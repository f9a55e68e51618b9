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
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee


def node_order(node_i, node_j, n_nodes: int, dofs) -> np.ndarray:
    """An elimination order of the DoFs `dofs` (6 a node), as positions in
    `dofs`: the nodes in reverse Cuthill-McKee order of the graph with the
    edges (node_i, node_j), each node's DoFs together in their own order.
    The graph holds all n_nodes nodes as numbered, so that a node whose
    DoFs are all fixed still links its neighbours in the search."""
    graph = sp.csr_matrix((np.ones(2 * len(node_i), dtype=bool),
                           (np.concatenate([node_i, node_j]),
                            np.concatenate([node_j, node_i]))),
                          shape=(n_nodes, n_nodes))
    rank = np.empty(n_nodes, dtype=np.intp)
    rank[reverse_cuthill_mckee(graph, symmetric_mode=True)] = \
        np.arange(n_nodes)
    return np.argsort(rank[np.asarray(dofs) // 6], kind="stable")


class BandedCholesky:
    """Cholesky factor of a sparse SPD matrix, its rows taken in the
    elimination `order` (a permutation of them), by default reverse
    Cuthill-McKee of the matrix graph.  Raises `np.linalg.LinAlgError`
    when a pivot is not positive.  `bandwidth` is the half-bandwidth u."""

    def __init__(self, A, order=None):
        A = sp.csr_matrix(A)
        A.sum_duplicates()
        n = A.shape[0]
        if order is None:
            # reverse_cuthill_mckee has no answer for a 0 x 0 matrix
            order = reverse_cuthill_mckee(A, symmetric_mode=True) if n \
                else np.zeros(0, dtype=np.int32)
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        A = A.tocoo()
        r, c = rank[A.row], rank[A.col]
        lower = r >= c
        r, c = r[lower], c[lower]
        u = int((r - c).max()) if len(r) else 0
        # Fortran order: LAPACK factors the band in place, without a copy
        band = np.zeros((u + 1, n), order="F")
        band[r - c, c] = A.data[lower]
        self.perm = order
        self.bandwidth = u
        self.factor = cholesky_banded(band, lower=True, overwrite_ab=True)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b, dtype=float)
        x[self.perm] = cho_solve_banded((self.factor, True), b[self.perm],
                                        check_finite=False)
        return x


# the name the implicit solvers call, and the probe patches (ldpm.integrators)
splu = BandedCholesky
