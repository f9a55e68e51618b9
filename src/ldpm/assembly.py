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

Below its floors (`material.active_floors`) the facet law is linear, so
f_int = K q + B^T W (t - D e), and a facet whose traction is D e adds
nothing to the second term.  A `Certificate` proves, from a bound on the
nodal displacements since the configuration it was built at, which facets
stay linear; only the others are evaluated (`B_E q`, the facet law and the
gather `B_E^T W_E (t_E - D e_E)`).  The tractions of the certified facets
are computed on demand (`facet_tractions`).
"""

from __future__ import annotations

import copy
from functools import partial

import numpy as np
import scipy.sparse as sp

from .geometry import Mesh, tet_volume
from .material import FLOOR_MARGIN, MaterialParams, FacetStateArray, \
    active_floors, check_snap_back, facet_update, elastic_tractions


class AssemblyError(Exception):
    pass


def _skew(c):
    """(n, 3, 3) cross-product matrices of stacked 3-vectors."""
    z = np.zeros(len(c))
    return np.stack([np.stack([z, -c[:, 2], c[:, 1]], axis=1),
                     np.stack([c[:, 2], z, -c[:, 0]], axis=1),
                     np.stack([-c[:, 1], c[:, 0], z], axis=1)], axis=1)


def _facet_blocks(facets) -> np.ndarray:
    """(nf, 3, 12) strain operators B_k of every facet, acting on
    (u_I, theta_I, u_J, theta_J)."""
    Pt = facets.axes / facets.edge_length[:, None, None]
    return np.concatenate([-Pt, Pt @ _skew(facets.c_i), Pt,
                           -Pt @ _skew(facets.c_j)], axis=2)


def build_strain_operator(mesh: Mesh) -> sp.csr_matrix:
    """Stacked strain operator B (3 nf x n_dofs) with B q = all facet
    strains, flattened facet-major.

    Every row holds 12 entries, sorted by column: the 6 DoFs of the
    facet's lower node, then those of its higher node, so that a facet's
    3 rows are 36 consecutive entries of B.data (read by `_row_norms`,
    `Certificate` and `critical_timestep`).  B is written in CSR directly:
    the block B_k, with the halves of I and J swapped where node_i >
    node_j."""
    f, nf = mesh.facets, mesh.n_facets
    blocks = _facet_blocks(f)
    swap = f.node_i > f.node_j
    blocks[swap] = np.roll(blocks[swap], 6, axis=2)
    ends = np.sort(np.column_stack([f.node_i, f.node_j]), axis=1)
    index = np.int32 if max(36 * nf, mesh.n_dofs) <= np.iinfo(np.int32).max \
        else np.int64
    cols = (6 * ends[:, None, :, None] + np.arange(6)).astype(index)
    B = sp.csr_matrix(
        (blocks.ravel(), np.broadcast_to(cols, (nf, 3, 2, 6)).ravel(),
         np.arange(0, 36 * nf + 1, 12, dtype=index)),
        shape=(3 * nf, mesh.n_dofs))
    B.has_sorted_indices = True
    return B


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


# node pairs per batched product of assemble_stiffness: a chunk's rows of B
# and their weighted copy take 2 x 128 x 9 x 36 doubles (0.66 MB) at the
# prism's 9 facets a pair
_K_CHUNK = 128


def assemble_stiffness(mesh: Mesh, params: MaterialParams,
                       B: sp.csr_matrix | None = None) -> sp.csr_matrix:
    """Elastic stiffness K = sum_k A_k l_k B_k^T D B_k: symmetric PSD, in
    canonical CSR, exactly symmetric and without explicit zeros.

    The facets of a node pair (lower node a, higher node b) share the 12
    columns of their rows of B (`build_strain_operator`), so the pair adds
    one 12 x 12 block X^T (W D X), X its facets' rows stacked in facet
    order: one batched product per chunk of pairs with the same facet
    count.  K's (a, b) block is the pair's upper off-diagonal block and
    (b, a) its transpose; a node's diagonal block sums the pairs' diagonal
    blocks at the node, and its upper triangle is mirrored onto the lower.
    The blocks, in row and column order, form a block-sparse matrix that
    scipy converts to CSR.  The sums are plain products, no square roots,
    so that an elastic static step leaves an exactly zero residual where
    the factor solves exactly."""
    if B is None:
        B = build_strain_operator(mesh)
    rows = _facet_rows(B)
    wd = facet_weights(mesh)[:, None] * params.D
    f, nn = mesh.facets, mesh.n_nodes
    lo = np.minimum(f.node_i, f.node_j).astype(np.int64)
    key = lo * nn + np.maximum(f.node_i, f.node_j)
    order = np.argsort(key, kind="stable")
    pair, start, count = np.unique(key[order], return_index=True,
                                   return_counts=True)
    a, b = pair // nn, pair % nn
    # the 6 x 6 blocks of K: every node's diagonal block, then the (a, b)
    # and the (b, a) block of every pair, each at its place by row and column
    row = np.concatenate([np.arange(nn), a, b])
    col = np.concatenate([np.arange(nn), b, a])
    by = np.lexsort((col, row))
    at = np.empty(len(by), dtype=np.intp)
    at[by] = np.arange(len(by))
    blocks = np.empty((len(by), 6, 6))
    diag = np.zeros((nn, 6, 6))
    for m in np.unique(count):
        of_m = np.flatnonzero(count == m)
        for sel in np.array_split(of_m, -(-len(of_m) // _K_CHUNK)):
            ids = order[start[sel, None] + np.arange(m)]
            X = rows[ids].reshape(len(sel), 3 * m, 12)
            P = X.transpose(0, 2, 1) \
                @ (wd[ids].reshape(len(sel), 3 * m, 1) * X)
            np.add.at(diag, a[sel], P[:, :6, :6])
            np.add.at(diag, b[sel], P[:, 6:, 6:])
            upper = P[:, :6, 6:]
            blocks[at[nn + sel]] = upper
            blocks[at[nn + len(pair) + sel]] = upper.transpose(0, 2, 1)
    blocks[at[:nn]] = np.triu(diag) + np.triu(diag, 1).transpose(0, 2, 1)
    K = sp.bsr_matrix(
        (blocks, col[by], np.concatenate([[0], np.cumsum(
            np.bincount(row, minlength=nn))])),
        shape=(mesh.n_dofs, mesh.n_dofs)).tocsr()
    K.eliminate_zeros()
    return K


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
    v = tet_volume(p[:, 0], p[:, 1], p[:, 2], p[:, 3])
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


# rows of B per chunk of `_row_norms`
_ROW_CHUNK = 12288


def _facet_rows(B: sp.csr_matrix) -> np.ndarray:
    """B.data as (nf, 3, 12): the three rows of each facet, in the layout
    of `build_strain_operator` (12 entries a row, sorted by column)."""
    if not B.has_sorted_indices or B.nnz != 12 * B.shape[0]:
        raise ValueError("strain operator without 12 sorted entries a row")
    return B.data.reshape(-1, 3, 12)


def _row_norms(B: sp.csr_matrix):
    """(c_u, c_theta): per facet, the largest 1-norm of its three rows of
    B over the translation and over the rotation columns, read from B.data
    in place (`_facet_rows`): the 3 translations and 3 rotations of the
    facet's lower node, then those of its higher node."""
    rows = _facet_rows(B).reshape(-1, 12)
    rot = np.arange(12) % 6 >= 3
    columns = np.column_stack([~rot, rot]).astype(float)
    c = np.empty((B.shape[0], 2))
    for lo in range(0, B.shape[0], _ROW_CHUNK):
        c[lo:lo + _ROW_CHUNK] = np.abs(rows[lo:lo + _ROW_CHUNK]) @ columns
    c = c.reshape(-1, 3, 2).max(axis=1)
    return c[:, 0], c[:, 1]


class SystemOperators:
    """Per-mesh cache: strain operator, facet weights, geometry arrays, the
    facet -> parent-tet map and the law mode: elastic alone, or the facet
    law, which refuses facets at least as long as lt and carries the
    set-up constants of the certificates (`Certificate`).  Shared
    read-only by solvers."""

    def __init__(self, mesh: Mesh, params: MaterialParams,
                 elastic_only: bool = False):
        lengths = mesh.facets.edge_length
        if not elastic_only:
            check_snap_back(lengths, params)
        self.mesh = mesh
        self.params = params
        self.elastic_only = elastic_only
        self.B = build_strain_operator(mesh)
        # CSC view sharing B's arrays (a CSR copy of B^T would cost memory)
        self.BT = self.B.T
        self.weights = facet_weights(mesh)
        # A_k l_k per strain component, matching the flattened tractions
        self.weights3 = np.repeat(self.weights, 3)
        self.lengths = lengths
        self.parent_tet = mesh.facets.parent_tet
        self.inversion_guard = inversion_guard(mesh)
        self.K = assemble_stiffness(mesh, params, self.B)
        if not elastic_only:
            # set-up constants of the certificates
            self.D = params.D
            self.c_u, self.c_theta = _row_norms(self.B)
            self.zero_slack = float(self.slack(np.zeros((1, 3)))[0])

    def strains(self, q) -> np.ndarray:
        return (self.B @ np.asarray(q, float)).reshape(-1, 3)

    def slack(self, e) -> np.ndarray:
        """Per facet, a lower bound on the inf-norm distance from the
        strains e (n, 3) to the nearest floor a virgin facet can reach
        (`Certificate`), less a relative rounding margin; NaN stays NaN."""
        p = self.params
        floor_t, floor_s2 = active_floors(p)
        e_n, e_m, e_l = e[:, 0], e[:, 1], e[:, 2]
        e_eff = np.sqrt(e_n * e_n + p.alpha * (e_m * e_m + e_l * e_l))
        tension = np.maximum(-e_n, (floor_t - e_eff)
                             / np.sqrt(1.0 + 2.0 * p.alpha))
        g = p.D[1]
        shear = np.maximum(e_n, (np.sqrt(floor_s2) - g * np.hypot(e_m, e_l))
                           / (g * np.sqrt(2.0)))
        compression = e_n + p.sigma_c0 / p.E0
        return np.minimum(np.minimum(tension, shear), compression) \
            * (1.0 - FLOOR_MARGIN)

    def node_min(self, values) -> np.ndarray:
        """Per node, the least of the per-facet `values` over the facets
        that end at it; inf at a node no facet ends at."""
        out = np.full(self.mesh.n_nodes, np.inf)
        np.minimum.at(out, self.mesh.facets.node_i, values)
        np.minimum.at(out, self.mesh.facets.node_j, values)
        return out

    def facet_volumetric(self, q):
        """e_V at q for `facet_update`, once no tet has inverted: the
        function `volumetric_at` bound to q, which evaluates only the facets
        asked for (0 on orphan facets).

        While sqrt(3) max|u| over the nodal translation components stays
        below `inversion_guard`, no tet can have inverted and no volume is
        computed here.  Otherwise every tet volume is evaluated first, and
        an inverted tet raises AssemblyError.
        """
        q = np.asarray(q, float)
        u = q.reshape(-1, 6)[:, :3]
        if not np.sqrt(3.0) * np.abs(u).max() < self.inversion_guard:
            volumetric_strain(q, self.mesh)
        return partial(self.volumetric_at, q)

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

    def gather_forces(self, tractions, cert=None) -> np.ndarray:
        """B^T W t: the nodal forces of the per-facet `tractions` of every
        facet, or of the facets the Certificate `cert` evaluates."""
        on = self if cert is None else cert
        return on.BT @ (on.weights3 * np.ravel(tractions))


# the certified facets are the virgin ones whose slack at the reference
# configuration is at least this share of the slack of a zero strain
CERTIFY_SHARE = 0.25


class Certificate:
    """The facets proven to answer the linear law at every q near q_ref,
    built from the committed facet `states` at q_ref.

    Bound.  The strains of facet f are e_f = B_f q, and each of its three
    rows of B holds 6 entries per end node: 3 on its translations u, 3 on
    its rotations theta.  The translation entries are -P/l on the lower
    node and +P/l on the higher one (`_facet_blocks`), so B_f annihilates a
    common translation tau of every node.  With c_u,f and c_theta,f the
    largest row 1-norm over those translation and rotation columns
    (`SystemOperators.c_u`, `c_theta`), for any tau
        |e_f(q) - e_f(q_ref)|_inf <= c_u,f max_n |du_n - tau|_inf
                                     + c_theta,f max_n |dtheta_n|_inf,
    with du_n = u_n - u_n(q_ref), dtheta_n likewise and n over the facet's
    two nodes.  A common rotation has no such term: it moves the rotations
    of every node, so it counts against the rotation budgets in full.

    Slack.  A facet is virgin when e_max is below the tension floor of
    `active_floors`, e_p_m = e_p_l = e_n_res = 0 and its committed t_N >=
    -sigma_c0.  The law then leaves its linear range only on one of three
    sets, and `SystemOperators.slack` is the least inf-norm distance to
    them:
      tension, e_N > 0 and e_eff >= floor_t: e_eff is Lipschitz with the
        constant sqrt(1 + 2 alpha), so the distance is at least
        max(-e_N, (floor_t - e_eff) / sqrt(1 + 2 alpha));
      shear, e_N <= 0 and tau = alpha E0 |(e_M, e_L)| >= sqrt(tau2_floor)
        (the trial shear traction, e_p = 0): tau is Lipschitz with the
        constant alpha E0 sqrt 2, so the distance is at least
        max(e_N, (sqrt(tau2_floor) - tau) / (alpha E0 sqrt 2));
      compression, E0 e_N <= -sigma_c0 (the trial traction, e_n_res = 0,
        and the modulus is E0 because the committed t_N >= -sigma_c0):
        at least e_N + sigma_c0 / E0.
    The slack is shrunk by the relative `FLOOR_MARGIN`, far above the
    rounding of e_eff, the shear norm and B q (eps c_u,f |u|, while the
    displacements stay below 1e6 times the budgets).

    Certificate.  The certified facets are the virgin ones whose slack s_f
    at q_ref is at least `CERTIFY_SHARE` of the slack s_0 of a zero strain
    (a fixed hysteresis, so that a rebuild certifies facets with room to
    move).  Each node gets the budgets b_u,n = min s_f / (2 c_u,f) and
    b_theta,n = min s_f / (2 c_theta,f) over the certified facets at it
    (inf with none).  `covers` takes tau as the midrange of du over all
    nodes, per component.  While every node is inside its budgets,
    |du_n - tau|_inf < b_u,n and |dtheta_n|_inf < b_theta,n, the bound
    gives |e_f(q) - e_f(q_ref)| < s_f / 2 + s_f / 2, so no certified facet
    reaches a floor: `facet_update` would leave its history fields
    unchanged (e_max rises only below the floor, and is not stored),
    evaluate no boundary, and return D e itself: E0 e_N and
    alpha E0 (e_M, e_L).  A certified facet is therefore not evaluated and
    none of its committed fields changes.  Its e_max may go stale, but only
    below the floor, where `facet_update` never reads it: once evaluated
    again, max(stale, e_eff) reaches the floor exactly when the true
    history does.  Certified facets stay virgin, so the certificate holds
    for every state committed from `states` while q stays inside the
    budgets.  A NaN or an infinity in q fails `covers`: one in du makes
    tau NaN or infinite, and every comparison with a NaN is false.

    The other facets are evaluated: the index array `rows`, possibly
    empty, with their rows `B` of the strain operator (a zero-row matrix
    for none), its transpose `BT`, `weights3` and `lengths`.  `strains`,
    when given, are those of every facet at q (B q as (nf, 3)); otherwise
    they are formed here where needed.
    """

    def __init__(self, q, ops: SystemOperators, states: FacetStateArray,
                 strains=None):
        p = ops.params
        self.ops = ops
        # (6, n): one row per DoF component, so that `covers` reduces along
        # contiguous rows
        self.q_ref = q.reshape(-1, 6).T.copy()
        # every strain is 0 at q = 0, with no need of B q
        if not q.any():
            slack = ops.zero_slack
        else:
            slack = ops.slack(ops.strains(q) if strains is None else strains)
        virgin = (states.e_max < active_floors(p)[0]) \
            & (states.e_p_m == 0.0) & (states.e_p_l == 0.0) \
            & (states.e_n_res == 0.0) & (states.traction[:, 0] >= -p.sigma_c0)
        self.certified = virgin & (slack >= CERTIFY_SHARE * ops.zero_slack)
        half = np.where(self.certified, 0.5 * slack, np.inf)
        with np.errstate(divide="ignore"):
            self.b_u = ops.node_min(half / ops.c_u)
            self.b_theta = ops.node_min(half / ops.c_theta)
        self.rows = rows = np.flatnonzero(~self.certified)
        # a facet's 3 rows of B are 36 consecutive entries
        # (`build_strain_operator`), so B_E is sliced from B's arrays
        # directly, with B's index dtype so that scipy keeps the arrays
        n3, B = 3 * len(rows), ops.B
        self.B = sp.csr_matrix(
            (np.take(B.data.reshape(-1, 36), rows, axis=0).ravel(),
             np.take(B.indices.reshape(-1, 36), rows, axis=0).ravel(),
             np.arange(0, 12 * n3 + 1, 12, dtype=B.indptr.dtype)),
            shape=(n3, B.shape[1]))
        self.BT = self.B.T
        self.weights3 = np.repeat(ops.weights[rows], 3)
        self.lengths = ops.lengths[rows]

    def covers(self, q) -> bool:
        """Whether every node is inside its budgets: its translation since
        q_ref, less their common midrange tau, and its rotation since q_ref;
        false on a NaN or an infinity."""
        d = q.reshape(-1, 6).T - self.q_ref
        du = d[:3]
        tau = 0.5 * (du.max(axis=1) + du.min(axis=1))
        # a NaN or an infinity in du makes tau NaN or infinite
        if not np.isfinite(tau).all():
            return False
        du -= tau[:, None]
        np.abs(d, out=d)
        return bool((du < self.b_u).all() and (d[3:] < self.b_theta).all())


def internal_forces(q, ops: SystemOperators, states: FacetStateArray):
    """Nodal internal forces at q from the committed facet `states`.

    Returns (f_int, trial); the trial states are not committed here.  The
    elastic law is linear, so on `elastic_only` operators f_int is the one
    product K q (K = B^T W D B) and the trial states are `states`.

    Otherwise f_int = K q + B_E^T W_E (t_E - D e_E) over the facets E that
    the certificate memoized on `states` does not prove linear (see
    `Certificate`); it is rebuilt at q, and memoized on `states`, when q
    leaves its budgets.  Only E is evaluated: e_E = B_E q (on a rebuild,
    E's rows of the B q it forms), the facet law from the committed states
    of E, which compact committed states hold as they are, and e_V on
    those of E that reach the compressive boundary (`facet_volumetric`).
    With E empty, f_int is K q.  The trial states are compact: E's new rows
    on the full states the committed ones share
    (`FacetStateArray.with_rows`); they inherit the certificate.
    """
    q = np.asarray(q, float)
    if ops.elastic_only:
        return ops.K @ q, states
    cert, e = states.certificate, None
    if cert is None or cert.ops is not ops or not cert.covers(q):
        # a rebuild forms every strain at q (no B q at q = 0, where they
        # are 0), and E takes its own from them: row by row the bits of B_E q
        e = ops.strains(q) if q.any() else None
        cert = states.certificate = Certificate(q, ops, states, e)
    f_int = ops.K @ q
    rows = cert.rows
    if not len(rows):
        trial = copy.copy(states)
        trial.certificate = cert
        return f_int, trial
    e = (cert.B @ q).reshape(-1, 3) if e is None \
        else np.take(e, rows, axis=0)
    at = ops.facet_volumetric(q)
    base, sub = states.split(rows)
    t, sub = facet_update(sub, e, lambda hot: at(rows[hot]), cert.lengths,
                          ops.params)
    trial = FacetStateArray.with_rows(base, rows, sub)
    f_int += ops.gather_forces(t - e * ops.D, cert)
    trial.certificate = cert
    return f_int, trial


def facet_tractions(q, ops: SystemOperators,
                    states: FacetStateArray) -> np.ndarray:
    """(nf, 3) tractions of the committed `states` at their q: those of
    the law on the facets their certificate evaluated, and the elastic law
    of the strains at q on the facets it certified and on elastic
    operators."""
    if ops.elastic_only:
        return elastic_tractions(ops.strains(q), ops.params)
    cert = states.certificate
    if cert is None:
        return states.traction
    t = elastic_tractions(ops.strains(q), ops.params)
    if len(cert.rows):
        t[cert.rows] = states.split(cert.rows)[1].traction
    return t


def crack_openings(mesh: Mesh, strains, tractions,
                   params: MaterialParams) -> np.ndarray:
    """Per-facet inelastic opening (w_N, w_M, w_L, w); only the positive
    normal part opens a crack."""
    e = np.asarray(strains, float)
    t = np.asarray(tractions, float)
    l = mesh.facets.edge_length
    d = e - t / params.D
    w_n = l * np.maximum(0.0, d[:, 0])
    w_m = l * d[:, 1]
    w_l = l * d[:, 2]
    w = np.sqrt(w_n ** 2 + w_m ** 2 + w_l ** 2)
    return np.column_stack([w_n, w_m, w_l, w])


# elements per chunk of critical_timestep.  A chunk's working set is its
# stacked facet rows X, 128 x 36 x 24 doubles for tets of 12 facets (0.9 MB),
# their weighted copy, and its element matrices and the shifted copy that
# the certificate factors, 128 x 24 x 24 doubles each (0.6 MB)
_DT_CHUNK = 128
# elements whose eigenvalues seed omega_max: those with the largest diagonal
# entry of M^-1/2 K M^-1/2, a lower bound of their largest eigenvalue
_DT_SEEDS = 8
# relative margin of the certificate below omega_max^2 (critical_timestep)
_DT_MARGIN = 1e-10


def critical_timestep(mesh: Mesh, params: MaterialParams,
                      mass: np.ndarray | None = None, fixed=(),
                      B: sp.csr_matrix | None = None) -> float:
    """Largest stable explicit step 2/omega_max, with omega_max the largest
    element eigenfrequency (the element bound of Irons & Treharne, 1971).
    Elements are tetrahedra (the facets whose parent is the tet, on the
    nodes those facets touch) when present, otherwise single facets (12
    DoFs).  Element masses are local shares so that they sum to the global
    lumped mass.  The DoF indices `fixed` (the prescribed DoFs of the load
    program) drop out of every element.  The facet blocks are read from the
    strain operator `B` (`build_strain_operator`, built here when not
    given), whose first 6 columns of a facet are those of its lower node.

    An element's matrix is A = S X^T (W D X) S: X stacks its facets' rows
    of B in facet order on the element's DoFs, W D holds each row's A l D,
    and S = M^-1/2 on the element's free, massive DoFs, 0 on the others;
    one batched product per chunk of `_DT_CHUNK` elements.  omega_max^2
    starts as the largest eigenvalue (`eigvalsh`) of the `_DT_SEEDS`
    elements of largest diagonal entry of A, a lower bound of their
    largest eigenvalue.  Every other chunk is certified by one batched
    Cholesky factorization of tau I - A, tau = omega_max^2 (1 -
    `_DT_MARGIN`); only a chunk whose factorization fails is evaluated by
    `eigvalsh`, which may raise omega_max.

    The result equals the largest `eigvalsh` of every element.  A Cholesky
    factorization that completes is exact for tau I - A + E with |E| of
    order n eps (tau + |A|) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 10), so lambda_max(A) < tau + O(n eps tau); and
    `eigvalsh` is backward stable too (Golub & Van Loan, Matrix
    Computations, ch. 8), so its value for that element is within O(n eps
    |A|) of lambda_max(A).  At n <= 24 DoFs both terms, and the rounding of
    tau I - A and of A's two triangles, are below 1e-13 tau, far inside the
    margin of 1e-10: a certified element's `eigvalsh` value lies below the
    omega_max^2 it was certified against.
    """
    if mass is None:
        mass = assemble_lumped_mass(mesh)
    if B is None:
        B = build_strain_operator(mesh)
    blocks = _facet_rows(B)
    weights = facet_weights(mesh)
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
        ends = np.sort(np.column_stack([f.node_i[grouped],
                                        f.node_j[grouped]]), axis=1)
        local = np.column_stack([np.argmax(nodes[elem] == ends[:, k, None],
                                           axis=1) for k in (0, 1)])
        touched = np.zeros(nodes.shape, dtype=bool)
        touched[elem[:, None], local] = True
        rho = mesh.density * 1.0e-12
        m_node = np.where(touched, rho * mesh.tet_volumes[tet_ids, None] / 4.0,
                          0.0)
        omega_max = _max_element_omega(blocks, weights, grouped, elem, local,
                                       nodes, m_node, mesh.particle_diameters,
                                       fixed_mask, params)
    orphans = np.nonzero(~in_tet)[0]
    if len(orphans):
        # an orphan element keeps its nodes in the order (I, J), so B's
        # lower-node half goes to local node 1 where node_i > node_j
        nodes = np.column_stack([f.node_i[orphans], f.node_j[orphans]])
        incident = np.bincount(nodes.ravel(), minlength=mesh.n_nodes)
        m_node = mass[6 * nodes] / incident[nodes]
        swap = nodes[:, 0] > nodes[:, 1]
        omega_max = max(omega_max, _max_element_omega(
            blocks, weights, orphans, np.arange(len(orphans)),
            np.column_stack([swap, ~swap]).astype(int), nodes, m_node,
            mesh.particle_diameters, fixed_mask, params))

    if omega_max <= 0:
        raise AssemblyError("no dynamic DoFs; cannot estimate a time step")
    return 2.0 / omega_max


def _max_element_omega(blocks, weights, fids, elem, local, nodes, m_node, dp,
                       fixed, params) -> float:
    """Largest sqrt-eigenvalue of M^-1 K over elements built from facets.

    blocks/weights: every facet's (3, 12) rows of B and its A l;
    fids/elem/local: the facets, their element and the local index of
    their lower and higher node, grouped by element in facet order;
    nodes/m_node: (ne, p) global node and translational mass per local
    node.  An element keeps its free, massive DoFs: S = M^-1/2 there and 0
    on the others, and A_e = S X^T (W D X) S with X its facets' rows
    stacked in facet order (`critical_timestep`).
    """
    ne, p = nodes.shape
    n = 6 * p
    wd = weights[fids, None] * params.D
    slot = np.arange(len(fids)) - np.searchsorted(elem, elem)
    m = slot.max() + 1
    first = np.searchsorted(elem, np.arange(ne + 1))
    M = np.repeat(m_node, 6, axis=1)
    M[:, 3::6] = M[:, 4::6] = M[:, 5::6] = m_node * dp[nodes] ** 2 / 10.0
    keep = ~fixed[(6 * nodes[:, :, None] + np.arange(6)).reshape(ne, -1)] \
        & ~(M <= 0)
    S = np.zeros((ne, n))
    S[keep] = 1.0 / np.sqrt(M[keep])
    # the element columns of the 12 entries of a facet row on local nodes
    # (a, b), and their flat offsets in the facet's 3 rows of X
    dofs = 6 * np.arange(p)[:, None] + np.arange(6)
    column = np.concatenate(np.broadcast_arrays(dofs[:, None], dofs[None]), 2)
    offset = n * np.arange(3)[:, None] + column[:, :, None, :]

    def matrices(ids):
        # the facets `at` of the elements `ids`, element by element
        count = first[ids + 1] - first[ids]
        at = np.repeat(first[ids] - np.cumsum(count) + count, count) \
            + np.arange(count.sum())
        row = np.repeat(m * np.arange(len(ids)), count) + slot[at]
        X = np.zeros((len(ids), 3 * m, n))
        X.reshape(-1)[3 * n * row[:, None, None]
                      + offset[local[at, 0], local[at, 1]]] = blocks[fids[at]]
        W = np.zeros((len(ids) * m, 3))
        W[row] = wd[at]
        A = X.transpose(0, 2, 1) @ (W.reshape(len(ids), 3 * m, 1) * X)
        A *= S[ids, :, None]
        A *= S[ids, None, :]
        return A

    def largest(A) -> float:
        return float(np.linalg.eigvalsh(A)[:, -1].max())

    # the running maximum starts from the elements of largest diagonal
    diag = np.empty((ne, n))
    for e0 in range(0, ne, _DT_CHUNK):
        e1 = min(ne, e0 + _DT_CHUNK)
        at = slice(first[e0], first[e1])
        b = blocks[fids[at]]
        diag[e0:e1] = np.bincount(
            (n * (elem[at, None] - e0)
             + column[local[at, 0], local[at, 1]]).ravel(),
            np.einsum("fr,frc,frc->fc", wd[at], b, b).ravel(),
            minlength=(e1 - e0) * n).reshape(-1, n)
    diag *= S * S
    seeds = np.argsort(-diag.max(axis=1), kind="stable")[:_DT_SEEDS]
    omega_sq = max(0.0, largest(matrices(seeds)))
    seeded = np.zeros(ne, dtype=bool)
    seeded[seeds] = True
    for e0 in range(0, ne, _DT_CHUNK):
        ids = np.arange(e0, min(ne, e0 + _DT_CHUNK))
        ids = ids[~seeded[ids]]
        if not len(ids):
            continue
        A = matrices(ids)
        # certified: every eigenvalue below tau (critical_timestep)
        C = np.negative(A)
        C.reshape(len(ids), -1)[:, ::n + 1] += omega_sq * (1.0 - _DT_MARGIN)
        try:
            np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            omega_sq = max(omega_sq, largest(A))
    return float(np.sqrt(omega_sq))
