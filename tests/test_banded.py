"""Property tests of the banded Cholesky behind the implicit solvers: on
random sparse SPD matrices (empty, 1 x 1, diagonal-only, a dense block,
several disconnected components in scrambled order), factored in the
reverse Cuthill-McKee order of their DoF graph, `splu(A, order,
keep).solve(b)` matches `np.linalg.solve` to 1e-12, and a matrix that is
indefinite or singular raises `LinAlgError`.  On the free stiffness of
specimens, the band in node order is no wider than in DoF order
(`oracles.band_coo`'s default), and its solve matches
`scipy.sparse.linalg.spsolve` to 1e-12.  The band scattered from CSR
blocks, and its factor, equal bit for bit those of the COO construction
(`oracles.band_coo`); the static set-up allocates less than one copy of K
beside what it keeps; and an explicit run loads neither `scipy.linalg`
nor `scipy.sparse.csgraph`."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
# the solver's one-time imports, made here so that no traced allocation
# below is an import
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph  # noqa: F401
from hypothesis import example, given, strategies as st
from scipy.sparse.linalg import spsolve

import ldpm
from ldpm.assembly import SystemOperators, assemble_lumped_mass
from ldpm.banded import node_order, splu
from ldpm.integrators import GeneralizedAlphaIntegrator, StaticSolver
from ldpm.presets import preset_config
from ldpm.runner import build_solver, resolve_constraints

import oracles

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


def factor_all(A):
    """`splu` of all of the dense A, in the reverse Cuthill-McKee order of
    its DoF graph (`oracles.band_coo`)."""
    A = sp.csr_matrix(A)
    return splu(A, oracles.band_coo(A)[1], np.arange(A.shape[0]))


@given(matrices_st, st.integers(0, 2**32 - 1))
@example(np.zeros((0, 0)), 0)
@example(np.array([[2.0]]), 0)
def test_solve_matches_dense_solve(A, seed):
    b = np.random.default_rng(seed).normal(size=len(A))
    x = factor_all(A).solve(b)
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
        factor_all(shifted)
    flipped = A.copy()
    flipped[k, k] = -flipped[k, k]
    with pytest.raises(np.linalg.LinAlgError):
        factor_all(flipped)


@given(matrices_st.filter(len), st.data())
def test_singular_matrix_raises(A, data):
    # a DoF with no stiffness: its row and column are zero
    k = data.draw(st.integers(0, len(A) - 1))
    A = A.copy()
    A[k, :] = A[:, k] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        factor_all(A)


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
    by_nodes = splu(A, order, np.arange(A.shape[0]))
    assert by_nodes.bandwidth <= len(oracles.band_coo(A)[0]) - 1
    b = np.random.default_rng(0).normal(size=A.shape[0])
    x_ref = spsolve(A.tocsc(), b)
    assert np.linalg.norm(by_nodes.solve(b) - x_ref) \
        <= 1e-12 * np.linalg.norm(x_ref)


@pytest.fixture(scope="module")
def prism():
    """(config, mesh, operators, load program) of the prism."""
    cfg = prism_config()
    mesh = cfg.build_mesh()
    ops = SystemOperators(mesh, cfg.material_params(), cfg.elastic_only)
    return cfg, mesh, ops, resolve_constraints(mesh, cfg.constraints)


def test_static_solver_factors_the_prism_in_node_order(prism):
    cfg, mesh, ops, program = prism
    solver, _ = build_solver(cfg, mesh, ops, program)
    factor = solver._factor
    # reverse Cuthill-McKee of the DoF graph gives 632
    assert factor.bandwidth == 497
    A = ops.K[program.free][:, program.free]
    b = np.random.default_rng(0).normal(size=A.shape[0])
    x_ref = spsolve(A.tocsc(), b)
    assert np.linalg.norm(factor.solve(b) - x_ref) \
        <= 1e-12 * np.linalg.norm(x_ref)


def factored(make):
    """(make(), the bands that it handed to LAPACK's band Cholesky, copied
    before the factor overwrote them)."""
    bands, cholesky_banded = [], scipy.linalg.cholesky_banded

    def record(ab, **kwargs):
        bands.append(np.array(ab, order="F"))
        return cholesky_banded(ab, **kwargs)

    with mock.patch.object(scipy.linalg, "cholesky_banded", record):
        return make(), bands


def assert_band_of(chol, bands, A, order, keep):
    """The one band `chol` factored, its bandwidth, order and factor equal
    those of `oracles.band_coo(A, order, keep)` bit for bit."""
    ref, ref_order = oracles.band_coo(A, order, keep)
    assert len(bands) == 1
    band = bands[0]
    assert band.shape == ref.shape and band.tobytes() == ref.tobytes()
    assert chol.bandwidth == len(ref) - 1
    assert np.array_equal(chol.perm, ref_order)
    factor = scipy.linalg.cholesky_banded(ref, lower=True)
    assert chol.factor.tobytes() == factor.tobytes()


@pytest.mark.parametrize("solver", ["static", "genalpha"])
@pytest.mark.parametrize("cfg", [preset_config("dog-bone"), block_config()],
                         ids=["dog-bone", "block"])
def test_solver_band_equals_the_coo_construction(cfg, solver):
    # the implicit drivers hand K_eff and the free DoFs to the factor,
    # which scatters K_eff's kept band straight from its CSR arrays
    cfg.solver = solver
    mesh = cfg.build_mesh()
    ops = SystemOperators(mesh, cfg.material_params(), elastic_only=True)
    program = resolve_constraints(mesh, cfg.constraints)
    conv, ga = cfg.solver_params()
    dt = 1e-6
    if ga is None:
        made, bands = factored(lambda: StaticSolver(ops, program, dt, conv))
        K_eff = ops.K
    else:
        mass = assemble_lumped_mass(mesh)
        made, bands = factored(lambda: GeneralizedAlphaIntegrator(
            ops, program, mass, ga, dt, conv))
        c_m = (1.0 - ga.alpha_m) / (ga.beta * dt * dt)
        K_eff = (1.0 - ga.alpha_f) * ops.K + sp.diags(c_m * mass)
    f = mesh.facets
    free = program.free
    order = node_order(f.node_i, f.node_j, mesh.n_nodes, free)
    assert_band_of(made._factor, bands, K_eff, order, free)


@st.composite
def kept_systems(draw):
    """(A, order, keep): an SPD matrix, a kept set of its rows (drawn,
    none or all of them) and an order of the kept rows (a permutation, or
    the reverse Cuthill-McKee order of `oracles.band_coo`)."""
    A = draw(matrices_st)
    n = len(A)
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                    dtype=bool)
    keep = draw(st.sampled_from([np.flatnonzero(mask), np.arange(0),
                                 np.arange(n)]))
    order = draw(st.one_of(st.none(), st.permutations(range(len(keep))).map(
        lambda p: np.array(p, dtype=np.intp))))
    if order is None:
        order = oracles.band_coo(A, None, keep)[1]
    return A, order, keep


@given(kept_systems())
@example((np.zeros((0, 0)), np.zeros(0, dtype=np.int32), np.arange(0)))
@example((np.array([[2.0]]), np.zeros(0, dtype=np.int32), np.arange(0)))
def test_band_of_kept_rows_equals_the_coo_construction(system):
    A, order, keep = system
    A = sp.csr_matrix(A)
    chol, bands = factored(lambda: splu(A, order, keep))
    assert_band_of(chol, bands, A, order, keep)


def test_duplicates_of_a_non_canonical_input_sum_as_the_coo_construction():
    # every entry of the dog-bone's K stored twice, as two parts, in
    # scrambled order inside its row: the sums equal those of the sliced
    # copy, and the caller's arrays stay as they were
    cfg = preset_config("dog-bone", solver="static")
    mesh = cfg.build_mesh()
    K = SystemOperators(mesh, cfg.material_params(), elastic_only=True).K
    K = K.tocoo()
    rng = np.random.default_rng(0)
    part = K.data * rng.uniform(0.2, 0.8, K.nnz)
    rows = np.concatenate([K.row, K.row])
    cols = np.concatenate([K.col, K.col])
    vals = np.concatenate([part, K.data - part])
    scramble = rng.permutation(len(rows))
    by_row = scramble[np.argsort(rows[scramble], kind="stable")]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows,
                                                        minlength=K.shape[0]))])
    A = sp.csr_matrix((vals[by_row], cols[by_row], indptr), shape=K.shape)
    assert not A.has_canonical_format
    given_arrays = [a.copy() for a in (A.data, A.indices, A.indptr)]
    free = resolve_constraints(mesh, cfg.constraints).free
    f = mesh.facets
    order = node_order(f.node_i, f.node_j, mesh.n_nodes, free)
    chol, bands = factored(lambda: splu(A, order, free))
    assert_band_of(chol, bands, A, order, free)
    for a, b in zip(given_arrays, (A.data, A.indices, A.indptr)):
        assert np.array_equal(a, b)


def test_static_set_up_allocates_less_than_one_copy_of_K(prism):
    # beside the band and the arrays the solver keeps, the set-up's
    # allocations stay below one copy of K (values and indices): the band
    # is scattered from K's CSR arrays a block of rows at a time, with no
    # slice of K to the free DoFs and no COO copy
    cfg, mesh, ops, program = prism
    conv, _ = cfg.solver_params()
    tracemalloc.start()
    try:
        solver = StaticSolver(ops, program, 1e-4, conv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = [a for a in vars(solver).values() if isinstance(a, np.ndarray)]
    kept += [getattr(solver.states, name) for name in
             ("e_max", "e_p_m", "e_p_l", "e_n_res", "traction")]
    kept += [solver._factor.factor, solver._factor.perm]
    K = ops.K
    k_bytes = K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
    rest = peak - sum(a.nbytes for a in kept)
    assert rest <= k_bytes, rest / k_bytes


# a shortened explicit free-vibration run, then a static single-facet run,
# in one fresh interpreter; prints the lazily loaded modules present after
# each, and whether the static run converged on its factor
EXPLICIT_THEN_STATIC = """
import sys
import ldpm, ldpm.cli
from ldpm.config import RunConfig
from ldpm.presets import preset_config
from ldpm.runner import run

def loaded():
    return [m for m in ("scipy.linalg", "scipy.sparse.csgraph")
            if m in sys.modules]

cfg = preset_config("free-vibration")
cfg.total_time = 2e-4
cfg.directory = sys.argv[1] + "/explicit"
rec = run(cfg)
print(len(rec.times) > 100, loaded())
cfg = RunConfig(fixture="single-facet", solver="static", dt=5e-4,
                total_time=5e-3, monitor="node:1 ux",
                constraints=("fix node:0 all", "fix node:1 uy,uz,rx,ry,rz",
                             "velocity node:1 ux 1"),
                directory=sys.argv[1] + "/static")
rec = run(cfg)
print(bool(rec.converged.all()), rec.solver._factor.bandwidth, loaded())
"""


def test_explicit_run_loads_no_implicit_machinery(tmp_path):
    src = str(Path(ldpm.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", EXPLICIT_THEN_STATIC,
                          str(tmp_path)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "True []",
        "True 0 ['scipy.linalg', 'scipy.sparse.csgraph']"]
