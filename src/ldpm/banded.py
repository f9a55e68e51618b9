"""Sparse symmetric positive definite solves by a banded Cholesky.

The matrix is ordered by reverse Cuthill-McKee, which keeps the nonzeros
of each row near the diagonal (Cuthill & McKee 1969; George & Liu 1981,
ch. 4), and LAPACK's blocked band Cholesky factors its lower band in
place: n (u + 1) doubles for half-bandwidth u, in O(n u^2) operations.
Only the lower triangle of the matrix is read.

The implicit solvers order the mesh's node graph rather than the graph of
the free DoFs (`node_order`): every node's DoFs couple to the same
neighbours, so the node graph is the DoF graph's quotient, with about 36
times fewer edges, and its order keeps each node's DoFs together.  On the
73,728-facet prism of the benchmark this narrows the band from u = 632 to
497.

The band of the kept rows and columns is scattered straight from the
matrix's CSR arrays, `_BLOCK` rows at a time: one pass finds the
bandwidth, a second writes the values, and neither forms the kept
submatrix nor a COO copy of it.  `scipy.sparse.csgraph` is imported when
`node_order` is first called, and `scipy.linalg` when `BandedCholesky`
is: only the implicit solvers use them, so an explicit run never loads
them, nor the OpenBLAS of `scipy.linalg` (about 11 MB resident).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# matrix rows per block of the band's scatter: a block's work arrays hold
# its entries, 63 a row on the dog-bone's stiffness and 72 on the prism's
_BLOCK = 1024


def node_order(node_i, node_j, n_nodes: int, dofs) -> np.ndarray:
    """An elimination order of the DoFs `dofs` (6 a node), as positions in
    `dofs`: the nodes in reverse Cuthill-McKee order of the graph with the
    edges (node_i, node_j), each node's DoFs together in their own order.
    The implicit solvers pass the mesh's node pairs (`assembly.node_pairs`),
    each edge once.  The graph holds all n_nodes nodes as numbered, so that
    a node whose DoFs are all fixed still links its neighbours in the
    search."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    graph = sp.csr_matrix((np.ones(2 * len(node_i), dtype=bool),
                           (np.concatenate([node_i, node_j]),
                            np.concatenate([node_j, node_i]))),
                          shape=(n_nodes, n_nodes))
    rank = np.empty(n_nodes, dtype=np.intp)
    rank[reverse_cuthill_mckee(graph, symmetric_mode=True)] = \
        np.arange(n_nodes)
    return np.argsort(rank[np.asarray(dofs) // 6], kind="stable")


def _lower_entries(A, rank):
    """The entries of the CSR matrix A on or below the diagonal of the
    band, one block of `_BLOCK` rows at a time: their offsets below the
    diagonal, columns and values, where `rank` gives each row and column
    its place in the band, -1 for those left out."""
    indptr, indices, data = A.indptr, A.indices, A.data
    for lo in range(0, A.shape[0], _BLOCK):
        hi = min(lo + _BLOCK, A.shape[0])
        s, e = indptr[lo], indptr[hi]
        r = np.repeat(rank[lo:hi], np.diff(indptr[lo:hi + 1]))
        c = rank[indices[s:e]]
        # c >= 0 and r >= c leave out the dropped rows as well
        lower = (c >= 0) & (r >= c)
        c = c[lower]
        yield r[lower] - c, c, data[s:e][lower]


class BandedCholesky:
    """Cholesky factor of the sparse SPD matrix A[keep][:, keep], its rows
    taken in the elimination `order` (a permutation of positions in
    `keep`, such as `node_order` gives).  Raises `np.linalg.LinAlgError`
    when a pivot is not positive.  `bandwidth` is the half-bandwidth u.
    A's entries must be finite: the band is factored without a scan for
    NaN or infinity, which the caller makes where it forms A."""

    def __init__(self, A, order, keep):
        from scipy.linalg import cho_solve_banded, cholesky_banded
        A = sp.csr_matrix(A)
        if not A.has_canonical_format:
            # duplicates summed on a copy: the caller's arrays stay as given
            A = A.copy()
            A.sum_duplicates()
        keep = np.asarray(keep)
        n = len(keep)
        rank = np.full(A.shape[0], -1, dtype=np.intp)
        rank[keep[order]] = np.arange(n)
        u = max((int(d.max()) for d, _, _ in _lower_entries(A, rank)
                 if len(d)), default=0)
        # Fortran order: LAPACK factors the band in place, without a copy
        band = np.zeros((u + 1, n), order="F")
        for d, c, values in _lower_entries(A, rank):
            band[d, c] = values
        self.perm = order
        self.bandwidth = u
        self.factor = cholesky_banded(band, lower=True, overwrite_ab=True,
                                      check_finite=False)
        self._cho_solve = cho_solve_banded

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b, dtype=float)
        x[self.perm] = self._cho_solve((self.factor, True), b[self.perm],
                                       check_finite=False)
        return x


# the name the implicit solvers call, and the probe patches (ldpm.integrators)
splu = BandedCholesky
