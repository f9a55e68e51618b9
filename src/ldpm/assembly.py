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

Within its slack (`material.linear_slack`) the facet law is linear, so
f_int = K q + B^T W (t - D e), and a facet whose traction is D e adds
nothing to the second term.  A `Certificate` proves, from a bound on the
relative motion of each node pair since the configuration it was built at
(the pair's linearized jump J q, `build_jump_operator`, which no rigid
motion changes), which facets stay linear; only the others are evaluated
(`B_E q`, the facet law and the gather `B_E^T W_E (t_E - D e_E)`).  The
tractions of the certified facets are computed on demand
(`facet_tractions`).

Every sparse matrix-vector product of the kit goes through `matvec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .geometry import Mesh, tet_volume
from .material import FLOOR_MARGIN, MaterialParams, FacetStateArray, \
    check_snap_back, facet_update, elastic_tractions, linear_slack


class AssemblyError(Exception):
    pass


def _load_kernels() -> dict:
    """scipy's private matvec kernels by sparse format; none when they
    cannot be imported."""
    try:
        from scipy.sparse._sparsetools import csc_matvec, csr_matvec
    except ImportError:
        return {}
    return {"csr": csr_matvec, "csc": csc_matvec}


_KERNELS = _load_kernels()
_FLOAT = np.dtype(np.float64)


def matvec(A, x, out=None) -> np.ndarray:
    """A @ x for a CSR or CSC matrix A, into the float64 array `out` when
    given.  With float64 values and a float64 vector x, x goes straight to
    the kernel that scipy's `@` calls, into a zeroed output as `@` does, so
    the bits equal A @ x without the dispatch around it.  Anything else,
    and every product when the kernels cannot be imported, is A @ x."""
    kernel = _KERNELS.get(A.format)
    data = A.data
    n_row, n_col = A.shape
    if kernel is None or type(x) is not np.ndarray or x.dtype is not _FLOAT \
            or data.dtype is not _FLOAT or x.shape != (n_col,):
        if out is None:
            return A @ x
        out[...] = A @ x
        return out
    if out is None:
        out = np.zeros(n_row)
    else:
        out.fill(0.0)
    kernel(n_row, n_col, A.indptr, A.indices, data, x, out)
    return out


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
    3 rows are 36 consecutive entries of B.data (read by `_jump_norms`,
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


@dataclass(frozen=True)
class NodePairs:
    """The node pairs of a mesh's facets, in increasing (lo, hi) order:
    lo < hi their end nodes, and `order` the facet indices grouped by
    pair, each group in facet order, the group of pair p starting at
    `start[p]` with `count[p]` facets."""
    lo: np.ndarray
    hi: np.ndarray
    order: np.ndarray
    start: np.ndarray
    count: np.ndarray


def node_pairs(mesh: Mesh) -> NodePairs:
    """Group the facets of `mesh` by their node pair (`NodePairs`)."""
    f, nn = mesh.facets, mesh.n_nodes
    key = np.minimum(f.node_i, f.node_j).astype(np.int64) * nn \
        + np.maximum(f.node_i, f.node_j)
    order = np.argsort(key, kind="stable")
    pair, start, count = np.unique(key[order], return_index=True,
                                   return_counts=True)
    return NodePairs(pair // nn, pair % nn, order, start, count)


def build_jump_operator(mesh: Mesh, pairs: NodePairs,
                        index) -> sp.csr_matrix:
    """Linearized jump operator J (6 rows a pair x n_dofs), in CSR with
    the index dtype `index`: for the pair (lo, hi) with h = (x_hi -
    x_lo) / 2, the rows of J q are
        a = u_hi - u_lo - (theta_hi + theta_lo) x h    (3 rows, 6 entries)
        b = theta_hi - theta_lo                        (3 rows, 2 entries),
    the relative translation and rotation of the two particles at the
    pair's midpoint.  Every rigid motion u = tau + omega x x, theta = omega
    has a = b = 0.  Each row's entries are sorted by column, and the
    explicit entries of h x . are kept where a component of h is 0."""
    lo, hi = pairs.lo.astype(index), pairs.hi.astype(index)
    n = len(lo)
    x = mesh.positions
    h = 0.5 * (x[pairs.hi] - x[pairs.lo])
    # h x theta on row k of a: the rotation columns j of row k and the
    # entries (h x .)_kj there
    j = np.array([[1, 2], [0, 2], [0, 1]], dtype=index)
    hx = np.stack([-h[:, 2], h[:, 1], h[:, 2], -h[:, 0], -h[:, 1], h[:, 0]],
                  axis=1).reshape(n, 3, 2)
    k = np.arange(3, dtype=index)
    data = np.empty((n, 24))
    cols = np.empty((n, 24), dtype=index)
    a, a_cols = data[:, :18].reshape(n, 3, 6), cols[:, :18].reshape(n, 3, 6)
    a[:, :, 0], a[:, :, 3] = -1.0, 1.0
    a[:, :, 1:3] = a[:, :, 4:6] = hx
    b, b_cols = data[:, 18:].reshape(n, 3, 2), cols[:, 18:].reshape(n, 3, 2)
    b[:, :, 0], b[:, :, 1] = -1.0, 1.0
    for end, node in enumerate((6 * lo[:, None], 6 * hi[:, None])):
        a_cols[:, :, 3 * end] = node + k
        a_cols[:, :, 3 * end + 1:3 * end + 3] = node[:, :, None] + 3 + j
        b_cols[:, :, end] = node + 3 + k
    indptr = np.empty(6 * n + 1, dtype=index)
    indptr[:-1] = (24 * np.arange(n, dtype=index)[:, None]
                   + np.array([0, 6, 12, 18, 20, 22], dtype=index)).ravel()
    indptr[-1] = 24 * n
    J = sp.csr_matrix((data.ravel(), cols.ravel(), indptr),
                      shape=(6 * n, mesh.n_dofs))
    J.has_sorted_indices = True
    return J


# node pairs per batched product of assemble_stiffness: a chunk's rows of B
# and their weighted copy take 2 x 128 x 9 x 36 doubles (0.66 MB) at the
# prism's 9 facets a pair
_K_CHUNK = 128


def assemble_stiffness(mesh: Mesh, params: MaterialParams, B: sp.csr_matrix,
                       pairs: NodePairs) -> sp.csr_matrix:
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
    the factor solves exactly.  `B` is the mesh's strain operator and
    `pairs` its facets' node pairs (`node_pairs`), as `SystemOperators`
    holds them.  An entry that overflows raises AssemblyError."""
    rows = _facet_rows(B)
    nn = mesh.n_nodes
    a, b = pairs.lo, pairs.hi
    order, start, count = pairs.order, pairs.start, pairs.count
    # the 6 x 6 blocks of K: every node's diagonal block, then the (a, b)
    # and the (b, a) block of every pair, each at its place by row and column
    row = np.concatenate([np.arange(nn), a, b])
    col = np.concatenate([np.arange(nn), b, a])
    by = np.lexsort((col, row))
    at = np.empty(len(by), dtype=np.intp)
    at[by] = np.arange(len(by))
    blocks = np.empty((len(by), 6, 6))
    diag = np.zeros((nn, 6, 6))
    # an overflow is refused below, once, as a non-finite entry of K
    with np.errstate(over="ignore", invalid="ignore"):
        wd = facet_weights(mesh)[:, None] * params.D
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
                blocks[at[nn + len(a) + sel]] = upper.transpose(0, 2, 1)
        blocks[at[:nn]] = np.triu(diag) + np.triu(diag, 1).transpose(0, 2, 1)
    K = sp.bsr_matrix(
        (blocks, col[by], np.concatenate([[0], np.cumsum(
            np.bincount(row, minlength=nn))])),
        shape=(mesh.n_dofs, mesh.n_dofs)).tocsr()
    # the solvers factor K and multiply by it unchecked
    if not np.isfinite(K.data).all():
        raise AssemblyError("elastic stiffness not finite: the moduli or the "
                            "facets overflow it")
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


def _facet_rows(B: sp.csr_matrix) -> np.ndarray:
    """B.data as (nf, 3, 12): the three rows of each facet, in the layout
    of `build_strain_operator` (12 entries a row, sorted by column)."""
    if not B.has_sorted_indices or B.nnz != 12 * B.shape[0]:
        raise ValueError("strain operator without 12 sorted entries a row")
    return B.data.reshape(-1, 3, 12)


# facets per chunk of `_jump_norms`: 4096 x 36 doubles (1.2 MB) of B.data
_NORM_CHUNK = 4096


def _jump_norms(B: sp.csr_matrix):
    """(c_a, c_b): per facet, the largest 1-norm of the rows of T = P / l,
    B's translation block at the facet's higher node (+-T), and of the
    rows of G, half the difference of B's rotation blocks at its lower and
    at its higher node (`Certificate`), read from B.data in place
    (`_facet_rows`), one chunk of facets at a time."""
    rows = _facet_rows(B)
    c_a, c_b = np.empty(len(rows)), np.empty(len(rows))
    for lo in range(0, len(rows), _NORM_CHUNK):
        x = rows[lo:lo + _NORM_CHUNK]
        for c, block in ((c_a, np.abs(x[:, :, 6:9])),
                         (c_b, np.abs(x[:, :, 3:6] - x[:, :, 9:12]))):
            norm = block[:, :, 0] + block[:, :, 1] + block[:, :, 2]
            c[lo:lo + _NORM_CHUNK] = np.maximum(
                np.maximum(norm[:, 0], norm[:, 1]), norm[:, 2])
    c_b *= 0.5
    return c_a, c_b


class SystemOperators:
    """Per-mesh cache: strain operator, facet weights, geometry arrays, the
    facet -> parent-tet map, the facets' node `pairs` (`node_pairs`, which
    the implicit solvers order) and the law mode: elastic alone, or the
    facet law, which refuses facets at least as long as lt and carries the
    `inversion_guard` of its e_V and the set-up constants of the
    certificates (`Certificate`).  Shared read-only by solvers."""

    def __init__(self, mesh: Mesh, params: MaterialParams,
                 elastic_only: bool = False):
        lengths = mesh.facets.edge_length
        if not elastic_only:
            check_snap_back(lengths, params)
        self.mesh = mesh
        self.params = params
        self.elastic_only = elastic_only
        self.B = build_strain_operator(mesh)
        self.weights = facet_weights(mesh)
        self.lengths = lengths
        self.parent_tet = mesh.facets.parent_tet
        self.pairs = pairs = node_pairs(mesh)
        self.K = assemble_stiffness(mesh, params, self.B, pairs)
        if not elastic_only:
            self.inversion_guard = inversion_guard(mesh)
            # set-up constants of the certificates
            self.D = params.D
            self.zero_slack = float(
                linear_slack(FacetStateArray.virgin(1), None, params)[0])
            self.jump = build_jump_operator(mesh, pairs, self.B.indptr.dtype)
            self.c_a, self.c_b = _jump_norms(self.B)
            # the rounding caps (`Certificate`): c_u = 2 c_a and c_theta =
            # 2 c_b + 4 |h|_inf c_a, with 2 h = c_i - c_j
            span = np.abs(mesh.facets.c_i - mesh.facets.c_j)
            span = np.maximum(np.maximum(span[:, 0], span[:, 1]), span[:, 2])
            room = FLOOR_MARGIN * CERTIFY_SHARE * self.zero_slack \
                / (2.0 * ROUNDING * np.finfo(float).eps)
            self.cap_u = room / (2.0 * self.c_a.max())
            self.cap_theta = room / (2.0 * self.c_b + 2.0 * span
                                     * self.c_a).max()

    def strains(self, q) -> np.ndarray:
        return matvec(self.B, np.asarray(q, float)).reshape(-1, 3)

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

    def gather_forces(self, tractions, cert) -> np.ndarray:
        """B_E^T W_E t: the nodal forces of the `tractions` (one row a
        facet) of the facets E that the Certificate `cert` evaluates."""
        return matvec(cert.BT, cert.weights3 * np.ravel(tractions))


# the certified facets are the virgin ones whose slack at the reference
# configuration is at least this share of the slack of a zero strain
CERTIFY_SHARE = 0.25
# a bound, in units of eps (c_u,f U + c_theta,f Theta), of the rounding
# that `Certificate` leaves to the floors' margin (36, counted there)
ROUNDING = 64


class Certificate:
    """The facets proven to answer the linear law at every q near q_ref,
    built from the committed facet `states` at q_ref.

    Bound.  Facet f joins the nodes of its pair p = (lo, hi), with h =
    (x_hi - x_lo) / 2 and r_f = (c_i + c_j) / 2 its centroid less the
    pair's midpoint.  Its three rows of B are T = P_f / l_f applied to the
    jump of the two rigid particles at the centroid,
        B_f dq = +-T [du_hi - du_lo + (r_f + h) x dtheta_lo
                     - (r_f - h) x dtheta_hi] = +-T (a_p + b_p x r_f),
    (sign - where node_i > node_j) with (a_p, b_p) = J_p dq the pair's
    linearized jump (`build_jump_operator`): a_p = du_hi - du_lo -
    (dtheta_hi + dtheta_lo) x h, b_p = dtheta_hi - dtheta_lo.  So, with
    c_a,f and c_b,f the largest 1-norm of the rows T_k and of T_k x r_f
    (`SystemOperators.c_a`, `c_b`),
        |e_f(q) - e_f(q_ref)|_inf <= c_a,f |a_p|_inf + c_b,f |b_p|_inf.
    Both are read from B (`_jump_norms`): T is its translation block at
    the higher node, and the rows T_k x r_f are those of T skew(r_f), half
    the difference of its rotation blocks T skew(c_lo) and -T skew(c_hi)
    (up to the common sign), the very entries that act on b_p.  J
    annihilates every rigid motion, du = tau + omega x x and dtheta =
    omega, rotations included: a rigid motion of the whole specimen spends
    no budget.  c_b,f = 0 where the centroid is the pair's midpoint (c_i =
    -c_j): the facet then bounds no rotation of its pair.

    Rounding.  While every node's translation and rotation, at q and at
    q_ref, stay below U and Theta in magnitude, the computed strains and
    jumps miss the bound above by at most 36 eps (c_u,f U + c_theta,f
    Theta).  Here c_u,f = 2 c_a,f is the largest 1-norm of f's rows of B
    over its translation columns, and c_theta,f = 2 c_b,f + 4 |h|_inf
    c_a,f bounds it over the rotation columns (|T_k x (r_f +- h)|_1 <=
    |T_k x r_f|_1 + 2 |h|_inf |T_k|_1).  Counted: fl(B q) and fl(B q_ref)
    12 eps each (12 products a row; Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 3), the identity above from the stored
    entries of B and J and the rounded h and r_f 4 eps, fl(q - q_ref) 1
    eps, fl(J dq) 6 eps (6 products a row of a) and the budgets' quotients
    1 eps.  `SystemOperators` sets the caps U = `cap_u` and Theta =
    `cap_theta` so that `ROUNDING` eps (c_u,f U + c_theta,f Theta) <=
    FLOOR_MARGIN CERTIFY_SHARE s_0 <= FLOOR_MARGIN s_f on every facet that
    can be certified; `covers` bounds |q - q_ref| by the caps less |q_ref|
    (`cap`, per DoF), which keeps |q| and |q_ref| below them.

    Certificate.  The certified facets are those whose slack s_f at q_ref
    (`material.linear_slack`, 0 unless virgin) is at least `CERTIFY_SHARE`
    of s_0 = `zero_slack` > 0, that of a zero strain (a fixed hysteresis,
    so that a rebuild certifies facets with room to move).  Each pair gets
    the budgets min s_f / (2 c_a,f) on |a_p|_inf and min s_f / (2 c_b,f) on
    |b_p|_inf over its certified facets (inf with none, and for b where
    c_b,f = 0), `budget` (n_pairs, 6), one per row of J.  While every jump
    of J (q - q_ref) is inside its budget and |q - q_ref| inside `cap`, the
    bounds give |e_f(q) - e_f(q_ref)| < s_f / 2 + s_f / 2 + FLOOR_MARGIN
    s_f, where the law returns D e and changes no history field but e_max
    below the floor (`linear_slack`).  A certified facet is therefore not
    evaluated and none of its committed fields changes.  Its e_max may go
    stale, but only below the floor, where `facet_update` never reads it:
    once evaluated again, max(stale, e_eff) reaches the floor exactly when
    the true history does.  Certified facets stay virgin, so the
    certificate holds for every state committed from `states` while q stays
    inside the budgets.  A NaN or an infinity in q fails `covers`: every
    comparison with a NaN is false, and an infinity is above every cap.

    The other facets are evaluated: the index array `rows`, possibly
    empty, with their rows `B` of the strain operator (a zero-row matrix
    for none), its CSC transpose `BT`, `weights3` (A_k l_k per strain
    component) and `lengths`.  `strains` are those of every facet at q (B q
    as (nf, 3)), or None at q = 0, where every strain is 0.
    """

    def __init__(self, q, ops: SystemOperators, states: FacetStateArray,
                 strains):
        self.ops = ops
        self.q_ref = q.copy()
        slack = linear_slack(states, strains, ops.params)
        self.certified = slack >= CERTIFY_SHARE * ops.zero_slack
        # the bounds of `covers`: the budgets of the rows of J, then the
        # caps of the DoFs
        pairs = ops.pairs
        m = ops.jump.shape[0]
        self._bound = np.empty(m + len(q))
        self.budget = self._bound[:m].reshape(-1, 6)
        self.cap = self._bound[m:]
        # per pair the least budget of its facets, grouped by pair; the
        # quotient is inf where c_b = 0
        half = np.where(self.certified, 0.5 * slack, np.inf)
        with np.errstate(divide="ignore"):
            for at, c in ((slice(0, 3), ops.c_a), (slice(3, 6), ops.c_b)):
                self.budget[:, at] = np.minimum.reduceat(
                    (half / c)[pairs.order], pairs.start)[:, None]
        ref = np.abs(self.q_ref).reshape(-1, 6)
        self.cap.reshape(-1, 6)[:] = np.repeat(
            [ops.cap_u - ref[:, :3].max(), ops.cap_theta - ref[:, 3:].max()],
            3)
        # scratch of `covers`: J (q - q_ref), then q - q_ref
        self._moved = np.empty(m + len(q))
        self._inside = np.empty(m + len(q), dtype=bool)
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
        """Whether every nodal translation and rotation since q_ref is
        inside `cap` and every pair's jump since q_ref inside its budgets;
        false on a NaN or an infinity."""
        moved, m = self._moved, self.budget.size
        dq = np.subtract(q, self.q_ref, out=moved[m:])
        matvec(self.ops.jump, dq, out=moved[:m])
        np.abs(moved, out=moved)
        # every comparison with a NaN is false
        return bool(np.less(moved, self._bound, out=self._inside).all())


def internal_forces(q, ops: SystemOperators, states: FacetStateArray):
    """Nodal internal forces at q from the committed facet `states`.

    Returns (f_int, trial); the trial states are not committed here, and
    they are `states` itself exactly when no facet was evaluated.  The
    elastic law is linear, so on `elastic_only` operators f_int is the one
    product K q (K = B^T W D B).

    Otherwise f_int = K q + B_E^T W_E (t_E - D e_E) over the facets E that
    the certificate memoized on `states` does not prove linear (see
    `Certificate`); it is rebuilt at q, and memoized on `states`, when q
    leaves its budgets.  Only E is evaluated: e_E = B_E q (on a rebuild,
    E's rows of the B q it forms), the facet law from the committed states
    of E, which compact committed states hold as they are, and e_V on
    those of E that reach the compressive boundary (`facet_volumetric`).
    With E empty, f_int is K q and the trial states are `states`, which
    hold the certificate.  Otherwise they are compact: E's new rows on the
    full states the committed ones share (`FacetStateArray.with_rows`);
    they inherit the certificate.
    """
    q = np.asarray(q, float)
    if ops.elastic_only:
        return matvec(ops.K, q), states
    cert, e = states.certificate, None
    if cert is None or cert.ops is not ops or not cert.covers(q):
        # a rebuild forms every strain at q (no B q at q = 0, where they
        # are 0), and E takes its own from them: row by row the bits of B_E q
        e = ops.strains(q) if q.any() else None
        cert = states.certificate = Certificate(q, ops, states, e)
    f_int = matvec(ops.K, q)
    rows = cert.rows
    if not len(rows):
        return f_int, states
    e = matvec(cert.B, q).reshape(-1, 3) if e is None \
        else np.take(e, rows, axis=0)
    at = ops.facet_volumetric(q)
    base, sub = states.split(rows)
    t, sub = facet_update(sub, e, lambda hot: at(rows[hot]), cert.lengths,
                          ops.params)
    trial = FacetStateArray.with_rows(base, rows, sub)
    f_int += ops.gather_forces(t - e * ops.D, cert)
    trial.certificate = cert
    return f_int, trial


def facet_tractions(q, ops: SystemOperators, states: FacetStateArray,
                    strains=None) -> np.ndarray:
    """(nf, 3) tractions of the committed `states` at their q: the elastic
    law of the strains at q, but on the facets that the certificate of
    `states` evaluated, those of the law.  `strains`, when given, are those
    at q (`ops.strains(q)`), which are then not formed again."""
    t = elastic_tractions(ops.strains(q) if strains is None else strains,
                          ops.params)
    cert = states.certificate
    if cert is not None and len(cert.rows):
        t[cert.rows] = states.split(cert.rows)[1].traction
    return t


def crack_openings(mesh: Mesh, strains, tractions,
                   params: MaterialParams) -> np.ndarray:
    """Per-facet inelastic opening (w_N, w_M, w_L, w); only the positive
    normal part opens a crack."""
    e = np.asarray(strains, float)
    out = np.empty((len(e), 4))
    # formed in the (nf, 4) result in place, with one (nf,) scratch array,
    # in the float order of w_N = l max(0, d_N), w = sqrt((w_N^2 + w_M^2)
    # + w_L^2) for d = e - t / D
    wv, w = out[:, :3], out[:, 3]
    np.divide(np.asarray(tractions, float), params.D, out=wv)
    np.subtract(e, wv, out=wv)
    np.maximum(0.0, wv[:, 0], out=wv[:, 0])
    wv *= mesh.facets.edge_length[:, None]
    np.square(wv[:, 0], out=w)
    sq = np.square(wv[:, 1])
    w += sq
    w += np.square(wv[:, 2], out=sq)
    np.sqrt(w, out=w)
    return out


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


def critical_timestep(mesh: Mesh, params: MaterialParams, mass: np.ndarray,
                      fixed, B: sp.csr_matrix) -> float:
    """Largest stable explicit step 2/omega_max, with omega_max the largest
    element eigenfrequency (the element bound of Irons & Treharne, 1971).
    Elements are tetrahedra (the facets whose parent is the tet, on the
    nodes those facets touch) when present, otherwise single facets (12
    DoFs).  Element masses are local shares so that they sum to the global
    lumped `mass`.  The DoF indices `fixed` (the prescribed DoFs of the
    load program) drop out of every element.  The facet blocks are read
    from the strain operator `B`, whose first 6 columns of a facet are
    those of its lower node.

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
