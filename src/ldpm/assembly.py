"""Global operators: facet strains from DoFs, internal force assembly,
elastic stiffness, lumped mass, volumetric strains, crack openings, and the
element-eigenvalue estimate of the critical explicit time step.

The kinematics is linear (small strains/displacements/rotations), so the
strain operator B with e_k = B_k q is built once per mesh and reused; the
volumetric strain of a tetrahedron is the one geometric nonlinearity kept
(it is evaluated from the displaced vertex positions, only for the facets
whose compressive boundary reads it, once a bound on the displacements has
ruled out inverted tetrahedra).  Solvers see the facets only through
`internal_forces(q, ops, states) -> (f_int, trial)`; the law mode
(elastic or inelastic) lives on the `SystemOperators`.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import scipy.sparse as sp

from .geometry import Mesh, tet_volume
from .material import MaterialParams, FacetStateArray, SnapBackError, \
    facet_update, elastic_tractions


class AssemblyError(Exception):
    pass


def _skew(c):
    """(n, 3, 3) cross-product matrices of stacked 3-vectors."""
    z = np.zeros(len(c))
    return np.stack([np.stack([z, -c[:, 2], c[:, 1]], axis=1),
                     np.stack([c[:, 2], z, -c[:, 0]], axis=1),
                     np.stack([-c[:, 1], c[:, 0], z], axis=1)], axis=1)


def _facet_blocks(facets, idx=slice(None)) -> np.ndarray:
    """(n, 3, 12) strain operators B_k of the facets `idx`, acting on
    (u_I, theta_I, u_J, theta_J)."""
    Pt = facets.axes[idx] / facets.edge_length[idx][:, None, None]
    return np.concatenate([-Pt, Pt @ _skew(facets.c_i[idx]), Pt,
                           -Pt @ _skew(facets.c_j[idx])], axis=2)


def build_strain_operator(mesh: Mesh) -> sp.csr_matrix:
    """Stacked strain operator B (3 nf x n_dofs) with B q = all facet
    strains, flattened facet-major."""
    f, nf = mesh.facets, mesh.n_facets
    blocks = _facet_blocks(f)
    dofs = 6 * np.column_stack([f.node_i, f.node_j])[:, :, None] + np.arange(6)
    rows = np.broadcast_to(np.arange(3 * nf).reshape(nf, 3, 1), blocks.shape)
    cols = np.broadcast_to(dofs.reshape(nf, 1, 12), blocks.shape)
    return sp.csr_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(3 * nf, mesh.n_dofs))


def assemble_lumped_mass(mesh: Mesh) -> np.ndarray:
    """Diagonal mass per DoF (tonne, tonne mm^2): translational mass from
    the per-node cell volume share, rotatory inertia from the solid-sphere
    formula m d_p^2 / 10."""
    if mesh.density <= 0:
        raise AssemblyError("density must be positive")
    rho = mesh.density * 1.0e-12  # tonne/mm^3
    m = rho * mesh.cell_volumes
    inertia = m * mesh.particle_diameters ** 2 / 10.0
    values = np.zeros(mesh.n_dofs)
    for comp in range(3):
        values[comp::6] = m
        values[comp + 3::6] = inertia
    return values


def assemble_stiffness(mesh: Mesh, params: MaterialParams,
                       B: sp.csr_matrix | None = None) -> sp.csr_matrix:
    """Elastic stiffness K = sum_k A_k l_k B_k^T E B_k (symmetric PSD)."""
    if B is None:
        B = build_strain_operator(mesh)
    w = facet_weights(mesh)
    d = np.repeat(w, 3) * np.tile(
        np.array([1.0, params.alpha, params.alpha]) * params.E0, mesh.n_facets)
    K = (B.T @ sp.diags(d) @ B).tocsr()
    return ((K + K.T) * 0.5).tocsr()


def facet_weights(mesh: Mesh) -> np.ndarray:
    """Work weight A_k l_k per facet."""
    return mesh.facets.projected_area * mesh.facets.edge_length


def volumetric_strain(q, mesh: Mesh, tets=None) -> np.ndarray:
    """Volumetric strain (V - V0) / (3 V0) from displaced vertex positions,
    of every tetrahedron or of the tet indices `tets`."""
    ids = np.arange(len(mesh.tets)) if tets is None else np.asarray(tets, int)
    if not len(ids):
        return np.zeros(0)
    disp = np.asarray(q, float).reshape(-1, 6)[:, :3]
    p = (mesh.positions + disp)[mesh.tets[ids]]
    v = np.linalg.det(p[:, 1:] - p[:, :1]) / 6.0
    if np.any(v <= 0):
        raise AssemblyError(f"inverted tetrahedra {ids[v <= 0].tolist()[:10]}")
    v0 = mesh.tet_volumes[ids]
    return (v - v0) / (3.0 * v0)


# an inradius below this share of its tet's size (diameter plus largest
# coordinate) leaves the sign of a displaced volume to rounding
_GUARD_RATIO = 1e-4


def inversion_guard(mesh: Mesh) -> float:
    """Translation size below which no tetrahedron can invert: r_min / 2,
    with r_min the smallest inradius 3 V / S of the reference tets.

    Proof: let every node move by at most |u| < r_min / 2.  If a tet became
    flat on some plane along the path s u, s in [0, 1], each reference
    vertex would lie within |u| of that plane, and the reference tet, with
    its insphere of radius r >= r_min, inside a slab narrower than 2 r:
    impossible.  The volume is continuous along the path and never zero, so
    it stays positive.  The factor 1/2 keeps each displaced tet wider than r
    in every direction, so it holds a ball of radius r / (2 sqrt 3)
    (Steinhagen) and 6 V > 0.6 r^3, far above the ~1e-14 L^3 rounding of its
    determinant, L the tet's size, while r > _GUARD_RATIO L.

    Returns 0 (volumes always evaluated) without tets, when a reference
    volume is not positive, or when an inradius is within that margin.
    """
    if not len(mesh.tets):
        return 0.0
    p = mesh.positions[mesh.tets]
    v = tet_volume(*p.transpose(1, 0, 2))
    if not np.all(v > 0):
        return 0.0
    faces = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    area = sum(np.linalg.norm(np.cross(p[:, b] - p[:, a], p[:, c] - p[:, a]),
                              axis=1) for a, b, c in faces) / 2.0
    size = np.max([np.linalg.norm(p[:, a] - p[:, b], axis=1)
                   for a in range(4) for b in range(a)], axis=0) \
        + np.abs(p).max(axis=(1, 2))
    r = 3.0 * v / area
    if not np.all(r > _GUARD_RATIO * size):
        return 0.0
    return 0.5 * float(r.min())


class SystemOperators:
    """Per-mesh cache: strain operator, facet weights, geometry arrays, the
    facet -> parent-tet map and the law mode: elastic alone, or the facet
    law, which refuses facets at least as long as lt.  Shared read-only by
    solvers."""

    def __init__(self, mesh: Mesh, params: MaterialParams,
                 elastic_only: bool = False):
        lengths = mesh.facets.edge_length
        if not elastic_only and np.any(lengths >= params.lt):
            raise SnapBackError(
                f"edge length {float(lengths.max())!r} mm >= characteristic "
                f"length lt={params.lt}: softening would snap back")
        self.mesh = mesh
        self.params = params
        self.elastic_only = elastic_only
        self.B = build_strain_operator(mesh)
        # CSC view sharing B's arrays (a CSR copy of B^T would cost memory)
        self.BT = self.B.T
        self.weights = facet_weights(mesh)
        # A_k l_k per strain component, matching the flattened tractions
        self._weights3 = np.repeat(self.weights, 3)
        self.lengths = lengths
        self.parent_tet = mesh.facets.parent_tet
        self._has_parent = self.parent_tet >= 0
        self.inversion_guard = inversion_guard(mesh)
        self.K = assemble_stiffness(mesh, params, self.B)

    def strains(self, q) -> np.ndarray:
        return (self.B @ np.asarray(q, float)).reshape(-1, 3)

    def facet_volumetric(self, q):
        """Per-facet e_V at q for `facet_update`, 0 on orphan facets, once
        no tet has inverted.

        While sqrt(3) max|u| over the nodal translation components stays
        below `inversion_guard`, no tet can have inverted and no volume is
        computed: the result is the function `volumetric_at` bound to q,
        which evaluates only the facets asked for.  Otherwise every tet
        volume is evaluated, an inverted tet raises AssemblyError, and the
        result is the (nf,) array.
        """
        q = np.asarray(q, float)
        u = q.reshape(-1, 6)[:, :3]
        if np.sqrt(3.0) * np.abs(u).max() < self.inversion_guard:
            return partial(self.volumetric_at, q)
        e_v = np.zeros(self.mesh.n_facets)
        if len(self.mesh.tets):
            tet_ev = volumetric_strain(q, self.mesh)
            e_v[self._has_parent] = tet_ev[self.parent_tet[self._has_parent]]
        return e_v

    def volumetric_at(self, q, facets) -> np.ndarray:
        """e_V at q of the facets `facets` from their parent tets alone,
        each tet evaluated once; 0 on orphan facets."""
        e_v = np.zeros(len(facets))
        tets = self.parent_tet[facets]
        has = tets >= 0
        if has.any():
            ids, at = np.unique(tets[has], return_inverse=True)
            e_v[has] = volumetric_strain(q, self.mesh, ids)[at]
        return e_v

    def gather_forces(self, tractions) -> np.ndarray:
        return self.BT @ (self._weights3 * np.ravel(tractions))


def internal_forces(q, ops: SystemOperators, states: FacetStateArray):
    """Nodal internal forces at q from the committed facet `states`.

    Returns (f_int, trial); the trial states are not committed here.  The
    elastic law is linear, so on `elastic_only` operators f_int is the one
    product K q (K = B^T W D B) and the trial states are `states`.
    Otherwise the facet law gives the trial states, and f_int gathers
    their tractions.
    """
    if ops.elastic_only:
        return ops.K @ np.asarray(q, float), states
    t, trial = facet_update(states, ops.strains(q), ops.facet_volumetric(q),
                            ops.lengths, ops.params)
    return ops.gather_forces(t), trial


def elastic_response(q, ops: SystemOperators) -> np.ndarray:
    """(nf, 3) tractions of the elastic law at q."""
    return elastic_tractions(ops.strains(q), ops.params)


def crack_openings(mesh: Mesh, strains, tractions,
                   params: MaterialParams) -> np.ndarray:
    """Per-facet inelastic opening (w_N, w_M, w_L, w); only the positive
    normal part opens a crack."""
    e = np.asarray(strains, float)
    t = np.asarray(tractions, float)
    l = mesh.facets.edge_length
    w_n = l * np.maximum(0.0, e[:, 0] - t[:, 0] / params.E0)
    w_m = l * (e[:, 1] - t[:, 1] / (params.alpha * params.E0))
    w_l = l * (e[:, 2] - t[:, 2] / (params.alpha * params.E0))
    w = np.sqrt(w_n ** 2 + w_m ** 2 + w_l ** 2)
    return np.column_stack([w_n, w_m, w_l, w])


# elements per stacked eigenvalue batch of critical_timestep (24 x 24
# matrices: 1024 of them are 4.7 MB)
_DT_CHUNK = 1024


def critical_timestep(mesh: Mesh, params: MaterialParams,
                      mass: np.ndarray | None = None,
                      fixed=()) -> float:
    """Largest stable explicit step 2/omega_max, with omega_max the largest
    element eigenfrequency (the element bound of Irons & Treharne, 1971).
    Elements are tetrahedra (the facets whose parent is the tet, on the
    nodes those facets touch) when present, otherwise single facets (12
    DoFs).  Element masses are local shares so that they sum to the global
    lumped mass.  The DoF indices `fixed` (the prescribed DoFs of the load
    program) drop out of every element.
    """
    if mass is None:
        mass = assemble_lumped_mass(mesh)
    fixed_mask = np.zeros(mesh.n_dofs, dtype=bool)
    fixed_mask[np.asarray(fixed, dtype=int)] = True
    f = mesh.facets
    in_tet = f.parent_tet >= 0 if len(mesh.tets) \
        else np.zeros(len(f), dtype=bool)

    omega_max = 0.0
    grouped = np.nonzero(in_tet)[0]
    if len(grouped):
        # one element per parent tet on its sorted nodes; a node that none
        # of the tet's facets touches gets no mass and so drops out
        grouped = grouped[np.argsort(f.parent_tet[grouped], kind="stable")]
        tet_ids, elem = np.unique(f.parent_tet[grouped], return_inverse=True)
        nodes = np.sort(mesh.tets[tet_ids], axis=1)
        local = np.column_stack([
            np.argmax(nodes[elem] == ends[:, None], axis=1)
            for ends in (f.node_i[grouped], f.node_j[grouped])])
        touched = np.zeros(nodes.shape, dtype=bool)
        touched[elem[:, None], local] = True
        rho = mesh.density * 1.0e-12
        m_node = np.where(touched, rho * mesh.tet_volumes[tet_ids, None] / 4.0,
                          0.0)
        omega_max = _max_element_omega(f, grouped, elem, local, nodes, m_node,
                                       mesh.particle_diameters, fixed_mask,
                                       params)
    orphans = np.nonzero(~in_tet)[0]
    if len(orphans):
        nodes = np.column_stack([f.node_i[orphans], f.node_j[orphans]])
        incident = np.bincount(nodes.ravel(), minlength=mesh.n_nodes)
        m_node = mass[6 * nodes] / incident[nodes]
        omega_max = max(omega_max, _max_element_omega(
            f, orphans, np.arange(len(orphans)),
            np.tile([0, 1], (len(orphans), 1)), nodes, m_node,
            mesh.particle_diameters, fixed_mask, params))

    if omega_max <= 0:
        raise AssemblyError("no dynamic DoFs; cannot estimate a time step")
    return 2.0 / omega_max


def _max_element_omega(facets, fids, elem, local, nodes, m_node, dp, fixed,
                       params) -> float:
    """Largest sqrt-eigenvalue of M^-1 K over elements built from facets.

    fids/elem/local: the facets, their element and the local index of their
    two nodes, grouped by element in facet order; nodes/m_node: (ne, p)
    global node and translational mass per local node.  Each element keeps
    its free, massive DoFs in local order.
    """
    ne, p = nodes.shape
    D = np.array([1.0, params.alpha, params.alpha]) * params.E0
    ldofs = (6 * local[:, :, None] + np.arange(6)).reshape(-1, 12)
    slot = np.arange(len(fids)) - np.searchsorted(elem, elem)
    M = np.repeat(m_node, 6, axis=1)
    M[:, 3::6] = M[:, 4::6] = M[:, 5::6] = m_node * dp[nodes] ** 2 / 10.0
    keep = ~fixed[(6 * nodes[:, :, None] + np.arange(6)).reshape(ne, -1)] \
        & ~(M <= 0)
    omega_sq = 0.0
    bounds = np.searchsorted(elem, np.arange(0, ne + _DT_CHUNK, _DT_CHUNK))
    for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if lo == hi:
            continue
        e0 = c * _DT_CHUNK
        blocks = _facet_blocks(facets, fids[lo:hi])
        w = (facets.projected_area * facets.edge_length)[fids[lo:hi]]
        Ke = (w[:, None, None] * blocks.transpose(0, 2, 1)) \
            @ (D[:, None] * blocks)
        K = np.zeros((min(ne, e0 + _DT_CHUNK) - e0, 6 * p, 6 * p))
        el, dofs, sl = elem[lo:hi] - e0, ldofs[lo:hi], slot[lo:hi]
        for s in range(sl.max() + 1):
            at = sl == s
            K[el[at, None, None], dofs[at, :, None], dofs[at, None, :]] += \
                Ke[at]
        Mc, kc = M[e0:e0 + len(K)], keep[e0:e0 + len(K)]
        counts = kc.sum(axis=1)
        for k in np.unique(counts[counts > 0]):
            rows = np.nonzero(counts == k)[0]
            idx = np.argsort(~kc[rows], axis=1, kind="stable")[:, :k]
            Ks = K[rows[:, None, None], idx[:, :, None], idx[:, None, :]]
            inv_sqrt = 1.0 / np.sqrt(np.take_along_axis(Mc[rows], idx, 1))
            A = inv_sqrt[:, :, None] * Ks * inv_sqrt[:, None, :]
            omega_sq = max(omega_sq, float(np.linalg.eigvalsh(A)[:, -1].max()))
    return float(np.sqrt(omega_sq))
