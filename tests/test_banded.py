"""Property tests of the banded Cholesky behind the implicit solvers: on
random sparse SPD matrices (empty, 1 x 1, diagonal-only, a dense block,
several disconnected components in scrambled order) `splu(A).solve(b)`
matches `np.linalg.solve` to 1e-12, and a matrix that is indefinite or
singular raises `LinAlgError`.  On the free stiffness of specimens, the
band in node order is no wider than in DoF order, and its solve matches
`scipy.sparse.linalg.spsolve` to 1e-12."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, strategies as st
from scipy.sparse.linalg import spsolve

from ldpm.assembly import SystemOperators
from ldpm.banded import node_order, splu
from ldpm.presets import preset_config
from ldpm.runner import build_solver, resolve_constraints

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


def free_stiffness(cfg):
    """K_ff of a run config, the matrix its static solver factors, and the
    node order of its free DoFs."""
    mesh = cfg.build_mesh()
    ops = SystemOperators(mesh, cfg.material_params(), elastic_only=True)
    free = resolve_constraints(mesh, cfg.constraints).free
    f = mesh.facets
    return ops.K[free][:, free], node_order(f.node_i, f.node_j,
                                             mesh.n_nodes, free)


def block_config():
    # the 9216-facet block of the set-up memory tests
    cfg = preset_config("unconfined-free", solver="static")
    cfg.specimen = "prism 60.0x60.0x120.0 div=4x4x8 seed=3"
    return cfg


def prism_config():
    # the prism of the prism-large-static benchmark workload, default seed
    cfg = preset_config("unconfined-free", solver="static")
    cfg.specimen = re.sub(r"\bdiv=\S+", "div=8x8x16", cfg.specimen)
    cfg.specimen = re.sub(r"\bseed=\d+", "seed=9", cfg.specimen)
    return cfg


@pytest.mark.parametrize("cfg", [preset_config("dog-bone", solver="static"),
                                 block_config()],
                         ids=["dog-bone", "block"])
def test_node_order_is_no_wider_than_the_dof_order(cfg):
    A, order = free_stiffness(cfg)
    by_nodes = splu(A, order)
    assert by_nodes.bandwidth <= splu(A).bandwidth
    b = np.random.default_rng(0).normal(size=A.shape[0])
    x_ref = spsolve(A.tocsc(), b)
    assert np.linalg.norm(by_nodes.solve(b) - x_ref) \
        <= 1e-12 * np.linalg.norm(x_ref)


def test_static_solver_factors_the_prism_in_node_order():
    cfg = prism_config()
    mesh = cfg.build_mesh()
    ops = SystemOperators(mesh, cfg.material_params(), cfg.elastic_only)
    program = resolve_constraints(mesh, cfg.constraints)
    solver, _ = build_solver(cfg, mesh, ops, program)
    factor = solver._factor
    # reverse Cuthill-McKee of the DoF graph gives 632
    assert factor.bandwidth == 497
    A = ops.K[program.free][:, program.free]
    b = np.random.default_rng(0).normal(size=A.shape[0])
    x_ref = spsolve(A.tocsc(), b)
    assert np.linalg.norm(factor.solve(b) - x_ref) \
        <= 1e-12 * np.linalg.norm(x_ref)
