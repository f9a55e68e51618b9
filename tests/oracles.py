"""Per-facet reference implementations that the vectorized kernels are
checked against.  They loop over single facets and elements in plain numpy,
the way the kinematics and the element time-step bound are written on
paper, and are deliberately not optimized."""

import numpy as np
import scipy.linalg

from ldpm.geometry import ConstraintKind


def frame(facets, k) -> np.ndarray:
    """3x3 matrix with columns [n, m, l] of facet k."""
    return np.column_stack([facets.normal[k], facets.tangent_m[k],
                            facets.tangent_l[k]])


def facet_strain(q, facets, k) -> np.ndarray:
    """Strain vector (e_N, e_M, e_L) of facet k for the DoF vector q."""
    q = np.asarray(q, float)
    i, j = facets.node_i[k], facets.node_j[k]
    u_i, th_i = q[6 * i: 6 * i + 3], q[6 * i + 3: 6 * i + 6]
    u_j, th_j = q[6 * j: 6 * j + 3], q[6 * j + 3: 6 * j + 6]
    jump = u_j + np.cross(th_j, facets.c_j[k]) \
        - u_i - np.cross(th_i, facets.c_i[k])
    return frame(facets, k).T @ jump / facets.edge_length[k]


def _skew(c):
    return np.array([[0.0, -c[2], c[1]],
                     [c[2], 0.0, -c[0]],
                     [-c[1], c[0], 0.0]])


def facet_blocks(facets, k):
    """The four 3x3 blocks of B_k: (u_I, theta_I, u_J, theta_J)."""
    Pt = frame(facets, k).T / facets.edge_length[k]
    return (-Pt, Pt @ _skew(facets.c_i[k]), Pt,
            -Pt @ _skew(facets.c_j[k]))


def critical_timestep(mesh, params, mass, constraints=None) -> float:
    """Element-by-element bound 2/omega_max: tets group the facets whose
    parent they are, every other facet is an element of its own whose node
    masses are shares of the lumped `mass` split over the orphan facets
    meeting at the node."""
    f = mesh.facets
    fixed = {6 * c.node + c.comp for c in constraints or ()
             if c.kind in (ConstraintKind.FIXED, ConstraintKind.VELOCITY)}
    rho = mesh.density * 1.0e-12
    dp = mesh.particle_diameters
    D = np.array([1.0, params.alpha, params.alpha]) * params.E0

    groups, orphans = {}, []
    for k in range(mesh.n_facets):
        if len(mesh.tets) and f.parent_tet[k] >= 0:
            groups.setdefault(int(f.parent_tet[k]), []).append(k)
        else:
            orphans.append(k)
    incident = np.zeros(mesh.n_nodes)
    for k in orphans:
        incident[f.node_i[k]] += 1
        incident[f.node_j[k]] += 1

    elements = []
    for t, ks in groups.items():
        nodes = sorted({int(n) for k in ks
                        for n in (f.node_i[k], f.node_j[k])})
        m = rho * mesh.tet_volumes[t] / 4.0
        elements.append((ks, nodes, [m] * len(nodes)))
    for k in orphans:
        nodes = [int(f.node_i[k]), int(f.node_j[k])]
        elements.append(([k], nodes,
                         [mass.values[6 * n] / incident[n] for n in nodes]))

    omega_max = 0.0
    for ks, nodes, m_node in elements:
        local = {n: i for i, n in enumerate(nodes)}
        nd = 6 * len(nodes)
        K = np.zeros((nd, nd))
        for k in ks:
            blocks = facet_blocks(f, k)
            owners = (f.node_i[k], f.node_i[k], f.node_j[k], f.node_j[k])
            offs = (0, 3, 0, 3)
            w = f.projected_area[k] * f.edge_length[k]
            for ba, na, oa in zip(blocks, owners, offs):
                ia = 6 * local[na] + oa
                for bb, nb, ob in zip(blocks, owners, offs):
                    ib = 6 * local[nb] + ob
                    K[ia:ia + 3, ib:ib + 3] += w * ba.T @ (D[:, None] * bb)
        M = np.zeros(nd)
        for i, (n, m) in enumerate(zip(nodes, m_node)):
            M[6 * i:6 * i + 3] = m
            M[6 * i + 3:6 * i + 6] = m * dp[n] ** 2 / 10.0
        keep = [6 * i + c for i, n in enumerate(nodes) for c in range(6)
                if 6 * n + c not in fixed and M[6 * i + c] > 0]
        if not keep:
            continue
        inv_sqrt = 1.0 / np.sqrt(M[keep])
        A = inv_sqrt[:, None] * K[np.ix_(keep, keep)] * inv_sqrt[None, :]
        lam = max(0.0, float(scipy.linalg.eigvalsh(A)[-1]))
        omega_max = max(omega_max, float(np.sqrt(lam)))
    return 2.0 / omega_max
