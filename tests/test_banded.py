"""Property tests of the banded Cholesky behind the implicit solvers: on
random sparse SPD matrices (empty, 1 x 1, diagonal-only, a dense block,
several disconnected components in scrambled order) `splu(A).solve(b)`
matches `np.linalg.solve` to 1e-12, and a matrix that is indefinite or
singular raises `LinAlgError`."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, strategies as st

from ldpm.banded import splu

# one component: (structure, size)
component_st = st.tuples(st.sampled_from(["diagonal", "dense", "sparse"]),
                         st.integers(1, 12))


def spd_matrix(components, seed):
    """A dense SPD matrix, block diagonal over `components` up to a random
    symmetric permutation, with eigenvalues in [1, about 3]."""
    rng = np.random.default_rng(seed)
    blocks = []
    for kind, k in components:
        if kind == "diagonal":
            blocks.append(np.diag(rng.uniform(1.0, 3.0, k)))
            continue
        G = rng.normal(size=(k, k))
        if kind == "sparse":
            G *= rng.random((k, k)) < 2.0 / k
        S = G @ G.T
        blocks.append(np.eye(k) + S / max(1.0, np.linalg.norm(S, 2)))
    n = sum(k for _, k in components)
    A = np.zeros((n, n))
    at = 0
    for blk in blocks:
        A[at:at + len(blk), at:at + len(blk)] = blk
        at += len(blk)
    perm = rng.permutation(n)
    return A[np.ix_(perm, perm)]


matrices_st = st.builds(spd_matrix,
                        st.lists(component_st, min_size=0, max_size=4),
                        st.integers(0, 2**32 - 1))


@given(matrices_st, st.integers(0, 2**32 - 1))
@example(np.zeros((0, 0)), 0)
@example(np.array([[2.0]]), 0)
def test_solve_matches_dense_solve(A, seed):
    b = np.random.default_rng(seed).normal(size=len(A))
    x = splu(sp.csr_matrix(A)).solve(b)
    x_ref = np.linalg.solve(A, b)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


@given(matrices_st.filter(len), st.data())
def test_indefinite_matrix_raises(A, data):
    # shifting the spectrum below zero leaves one eigenvalue at -0.1 or less
    k = data.draw(st.integers(0, len(A) - 1))
    lam = np.linalg.eigvalsh(A)
    shifted = A - (lam[0] + data.draw(st.floats(0.1, 1.0))) * np.eye(len(A))
    with pytest.raises(np.linalg.LinAlgError):
        splu(sp.csr_matrix(shifted))
    flipped = A.copy()
    flipped[k, k] = -flipped[k, k]
    with pytest.raises(np.linalg.LinAlgError):
        splu(sp.csr_matrix(flipped))


@given(matrices_st.filter(len), st.data())
def test_singular_matrix_raises(A, data):
    # a DoF with no stiffness: its row and column are zero
    k = data.draw(st.integers(0, len(A) - 1))
    A = A.copy()
    A[k, :] = A[:, k] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        splu(sp.csr_matrix(A))

