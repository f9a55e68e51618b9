"""Sparse symmetric positive definite solves by a banded Cholesky.

The matrix is ordered by reverse Cuthill-McKee, which keeps the nonzeros
of each row near the diagonal (Cuthill & McKee 1969; George & Liu 1981,
ch. 4), and LAPACK's blocked band Cholesky factors its lower band in
place: n (u + 1) doubles for half-bandwidth u.  Only the lower triangle
of the matrix is read.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee


class BandedCholesky:
    """Cholesky factor of a sparse SPD matrix in reverse Cuthill-McKee
    order.  Raises `np.linalg.LinAlgError` when a pivot is not positive."""

    def __init__(self, A):
        A = sp.csr_matrix(A)
        A.sum_duplicates()
        n = A.shape[0]
        # reverse_cuthill_mckee has no answer for a 0 x 0 matrix
        perm = reverse_cuthill_mckee(A, symmetric_mode=True) if n \
            else np.zeros(0, dtype=np.int32)
        rank = np.empty(n, dtype=np.intp)
        rank[perm] = np.arange(n)
        A = A.tocoo()
        r, c = rank[A.row], rank[A.col]
        lower = r >= c
        r, c = r[lower], c[lower]
        u = int((r - c).max()) if len(r) else 0
        # Fortran order: LAPACK factors the band in place, without a copy
        band = np.zeros((u + 1, n), order="F")
        band[r - c, c] = A.data[lower]
        self.perm = perm
        self.factor = cholesky_banded(band, lower=True, overwrite_ab=True)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b, dtype=float)
        x[self.perm] = cho_solve_banded((self.factor, True), b[self.perm],
                                        check_finite=False)
        return x


# the name the implicit solvers call, and the probe patches (ldpm.integrators)
splu = BandedCholesky
