"""Reference implementations that the optimized kernels are checked
against.  The kinematics and the element time-step bound loop over single
facets and elements in plain numpy, the way they are written on paper; the
strain operator is assembled from COO triplets; the facet law evaluates
every boundary on every facet; the pass of the internal forces copies
every state array.  None of them is optimized."""

import numpy as np
import scipy.sparse as sp

from ldpm import material
from ldpm.material import H0, FacetStateArray, MaterialParams, sigma_bc, \
    sigma_bs

STATE_FIELDS = ("e_max", "e_p_m", "e_p_l", "e_n_res", "traction")


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


def strain_operator_coo(mesh) -> sp.csr_matrix:
    """The stacked strain operator B from COO triplets: each facet's
    blocks (u_I, theta_I, u_J, theta_J) on the columns of I and J, in that
    order, converted to CSR by scipy (which sorts every row's columns)."""
    f, nf = mesh.facets, mesh.n_facets
    Pt = f.axes / f.edge_length[:, None, None]
    skew_i, skew_j = (np.array([_skew(c) for c in cs]) for cs in (f.c_i,
                                                                  f.c_j))
    blocks = np.concatenate([-Pt, Pt @ skew_i, Pt, -Pt @ skew_j], axis=2)
    dofs = 6 * np.column_stack([f.node_i, f.node_j])[:, :, None] \
        + np.arange(6)
    rows = np.broadcast_to(np.arange(3 * nf).reshape(nf, 3, 1), blocks.shape)
    cols = np.broadcast_to(dofs.reshape(nf, 1, 12), blocks.shape)
    return sp.csr_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(3 * nf, mesh.n_dofs))


def critical_timestep(mesh, params, mass, fixed=()) -> float:
    """Element-by-element bound 2/omega_max: tets group the facets whose
    parent they are, every other facet is an element of its own whose node
    masses are shares of the lumped `mass` split over the orphan facets
    meeting at the node.  Every element is evaluated: its facets' rows
    stacked in facet order as X, K = X^T (W D X), A = S K S with S =
    M^-1/2 on its free, massive DoFs and 0 on the others, and the largest
    eigenvalue of A by `np.linalg.eigvalsh`."""
    f = mesh.facets
    fixed = {int(dof) for dof in fixed}
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
                         [mass[6 * n] / incident[n] for n in nodes]))

    omega_max = 0.0
    for ks, nodes, m_node in elements:
        local = {n: i for i, n in enumerate(nodes)}
        nd = 6 * len(nodes)
        # the element's facet rows stacked in facet order, each facet's
        # blocks on the columns of its nodes, and their weights A l D
        X = np.zeros((3 * len(ks), nd))
        wd = np.zeros(3 * len(ks))
        for r, k in enumerate(ks):
            owners = (f.node_i[k], f.node_i[k], f.node_j[k], f.node_j[k])
            offs = (0, 3, 0, 3)
            for blk, n, o in zip(facet_blocks(f, k), owners, offs):
                X[3 * r:3 * r + 3, 6 * local[n] + o:6 * local[n] + o + 3] = blk
            wd[3 * r:3 * r + 3] = f.projected_area[k] * f.edge_length[k] * D
        K = X.T @ (wd[:, None] * X)
        M = np.zeros(nd)
        for i, (n, m) in enumerate(zip(nodes, m_node)):
            M[6 * i:6 * i + 3] = m
            M[6 * i + 3:6 * i + 6] = m * dp[n] ** 2 / 10.0
        # M^-1/2 on the free, massive DoFs, 0 on the others
        s = np.zeros(nd)
        for i in range(nd):
            if 6 * nodes[i // 6] + i % 6 not in fixed and M[i] > 0:
                s[i] = 1.0 / np.sqrt(M[i])
        A = K * s[:, None] * s[None, :]
        lam = max(0.0, float(np.linalg.eigvalsh(A)[-1]))
        omega_max = max(omega_max, float(np.sqrt(lam)))
    return 2.0 / omega_max


def facet_update(state: FacetStateArray, strains, e_v, lengths,
                 params: MaterialParams):
    """Evaluate the constitutive model for all facets at the given total
    strains and return (tractions, trial_state).

    The input state is the last committed one and is not modified; the
    caller commits the trial state when a step is accepted.
    """
    e = np.asarray(strains, float)
    if not np.all(np.isfinite(e)):
        raise FloatingPointError("non-finite facet strains")
    e_n, e_m, e_l = e[:, 0], e[:, 1], e[:, 2]
    e_v = np.broadcast_to(np.asarray(e_v, float), e_n.shape)
    lengths = np.broadcast_to(np.asarray(lengths, float), e_n.shape)
    E0, a = params.E0, params.alpha
    frac = e_n > 0.0

    # fracture branch, evaluated everywhere and selected at the end (cheaper
    # than boolean gathers when most facets are active)
    shear2 = a * (e_m * e_m + e_l * e_l)
    e_eff = np.sqrt(e_n * e_n + shear2)
    e_max = np.where(frac, np.maximum(state.e_max, e_eff), state.e_max)
    # the envelope at omega = arctan2(e_N, sqrt(shear2)) from sin omega =
    # e_N / e_eff and cos omega = sqrt(shear2) / e_eff, e_eff clamped to
    # [e_N, the largest double] where it under- or overflowed; the tension
    # bound is discarded on compression facets, so evaluate it at pi/2
    # there, where the envelope denominator stays away from zero
    r = np.sqrt(shear2)
    d = np.minimum(np.maximum(e_eff, e_n), np.finfo(float).max)
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_w = np.where(frac, e_n / d, 1.0)
        cos_w = np.where(frac, r / d, 0.0)
    s0 = 2.0 * params.sigma_t / (sin_w + np.sqrt(
        sin_w ** 2 + 4.0 * params.alpha * cos_w ** 2 / params.rst ** 2))
    omega = np.where(frac, np.arctan2(e_n, r), np.pi / 2)
    h0 = H0(omega, lengths, params)
    # a zero modulus does not soften: no exponent where h0 = 0, also at
    # e_max = inf or s0 = 0
    soft = h0 != 0.0
    expo = np.zeros_like(e_max)
    np.multiply(-h0, np.maximum(e_max - s0 / E0, 0.0), out=expo, where=soft)
    np.divide(expo, s0, out=expo, where=soft)
    bound_t = s0 * np.exp(expo)
    # the elastic law E0 e where the boundary does not bind
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(bound_t < E0 * e_eff, bound_t / e_eff, E0)
    tf_n = scale * e_n
    tf_m = a * scale * e_m
    tf_l = a * scale * e_l

    # compression branch: incrementally elastic from the residual strain,
    # clamped by the compressive boundary; the unloading stiffness switches
    # once the committed traction has exceeded the yield plateau (inert for
    # Ed = E0)
    e_nc = np.where(-state.traction[:, 0] <= params.sigma_c0, E0, params.Ed)
    bound_c = sigma_bc(e_n - e_v, e_v, params)
    trial = e_nc * (e_n - state.e_n_res)
    tc_n = np.clip(trial, -bound_c, 0.0)
    e_n_res = np.where(~frac & (trial != tc_n), e_n - tc_n / e_nc,
                       state.e_n_res)

    tm = a * E0 * (e_m - state.e_p_m)
    tl = a * E0 * (e_l - state.e_p_l)
    tau = np.hypot(tm, tl)
    limit = sigma_bs(tc_n, params)
    yielding = ~frac & (tau > limit)
    # divide only where the facet yields: elsewhere tau may be subnormal
    scale_s = np.divide(limit, tau, out=np.ones_like(tau),
                        where=yielding & (tau > 0))
    tc_m = tm * scale_s
    tc_l = tl * scale_s

    t = np.empty_like(e)
    t[:, 0] = np.where(frac, tf_n, tc_n)
    t[:, 1] = np.where(frac, tf_m, tc_m)
    t[:, 2] = np.where(frac, tf_l, tc_l)
    new = FacetStateArray(
        e_max=e_max,
        e_p_m=np.where(yielding, state.e_p_m + (tm - tc_m) / (a * E0),
                       state.e_p_m),
        e_p_l=np.where(yielding, state.e_p_l + (tl - tc_l) / (a * E0),
                       state.e_p_l),
        e_n_res=e_n_res,
        traction=t.copy(),
    )
    return t, new


def force_rounding(ops, q, t) -> np.ndarray:
    """Per-DoF scale of the rounding of an internal force formed from q
    and the facet tractions t, by the gather B^T W t or by the split
    K q + B^T W (t - D e): |B|^T W (D |B| |q| + |t|)."""
    D = np.array([1.0, ops.params.alpha, ops.params.alpha]) * ops.params.E0
    abs_b = abs(ops.B)
    e = (abs_b @ np.abs(np.asarray(q, float))).reshape(-1, 3)
    return abs_b.T @ (ops.weights[:, None] * (D * e + np.abs(t))).ravel()


def internal_forces_all_rows(q, ops, states: dict, cert):
    """The pass of `assembly.internal_forces` at q from the committed state
    arrays `states` (a dict of full arrays) under the certificate `cert`,
    with full copies: the states of the evaluated facets gathered, the law
    run on them, and a copy of every committed array with their rows
    replaced.  Returns (f_int, trial arrays as a dict)."""
    q = np.asarray(q, float)
    f_int = ops.K @ q
    trial = {f: a.copy() for f, a in states.items()}
    rows = cert.rows
    if not len(rows):
        return f_int, trial
    rows3 = (3 * rows[:, None] + np.arange(3)).ravel()
    e = ops.strains(q)[rows]
    at = ops.facet_volumetric(q)
    sub = FacetStateArray(*(states[f][rows] for f in STATE_FIELDS))
    t, new = material.facet_update(sub, e, lambda hot: at(rows[hot]),
                                   ops.lengths[rows], ops.params)
    f_int += ops.B[rows3].T @ (np.repeat(ops.weights[rows], 3)
                               * (t - e * ops.D).ravel())
    for f in STATE_FIELDS:
        trial[f][rows] = getattr(new, f)
    return f_int, trial
