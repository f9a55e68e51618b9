import copy
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from ldpm import assembly
from ldpm.assembly import (
    AssemblyError,
    SystemOperators,
    assemble_lumped_mass,
    assemble_stiffness,
    build_strain_operator,
    crack_openings,
    critical_timestep,
    facet_tractions,
    facet_weights,
    inversion_guard,
    internal_forces,
    volumetric_strain,
)
from ldpm.geometry import (
    Mesh,
    build_block_specimen,
    build_fixture,
)
from ldpm.integrators import ExplicitIntegrator, LoadProgram
from ldpm.material import FacetStateArray, MaterialParams, \
    SnapBackError, facet_update, linear_slack
from ldpm.presets import preset_config
from ldpm.runner import build_solver, resolve_constraints, run

import oracles
from oracles import facet_strain, frame


@pytest.fixture
def params():
    return MaterialParams()


def stiffness(mesh, params):
    """K of `mesh` from its strain operator and node pairs."""
    return assemble_stiffness(mesh, params, build_strain_operator(mesh),
                              assembly.node_pairs(mesh))


def dt_crit(mesh, params, fixed=()):
    """The critical time step of `mesh` with its lumped mass and its strain
    operator, the DoFs `fixed` held."""
    return critical_timestep(mesh, params, assemble_lumped_mass(mesh), fixed,
                             build_strain_operator(mesh))


@pytest.fixture
def single_facet():
    return build_fixture("single-facet", length=100.0, area=100.0)


@pytest.fixture
def single_tet():
    return build_fixture("single-tet")


@pytest.fixture
def block():
    return build_block_specimen((30.0, 30.0, 30.0), (2, 2, 2), seed=6)


@pytest.fixture
def chain():
    return build_fixture("two-particle-chain", n=4, d_p=15.0)


def rigid_motion_vector(mesh, u0, omega):
    q = np.zeros(mesh.n_dofs)
    for n, x in enumerate(mesh.positions):
        q[6 * n: 6 * n + 3] = u0 + np.cross(omega, x)
        q[6 * n + 3: 6 * n + 6] = omega
    return q


def uniform_strain_vector(mesh, eps):
    q = np.zeros(mesh.n_dofs)
    for n, x in enumerate(mesh.positions):
        q[6 * n: 6 * n + 3] = eps @ x
    return q


class TestFacetStrain:
    def test_axial_stretch(self, single_facet):
        q = np.zeros(single_facet.n_dofs)
        q[6] = 0.05     # u_x of node 1
        e = facet_strain(q, single_facet.facets, 0)
        assert_allclose(e, [0.05 / 100.0, 0.0, 0.0], atol=1e-16)

    def test_rigid_translation(self, single_tet):
        q = rigid_motion_vector(single_tet, np.array([0.3, -0.2, 0.7]),
                                np.zeros(3))
        for k in range(single_tet.n_facets):
            assert np.abs(facet_strain(q, single_tet.facets, k)).max() < 1e-12

    def test_rigid_rotation(self, single_tet):
        q = rigid_motion_vector(single_tet, np.zeros(3),
                                np.array([1e-3, -2e-3, 5e-4]))
        for k in range(single_tet.n_facets):
            assert np.abs(facet_strain(q, single_tet.facets, k)).max() < 1e-12

    def test_uniform_strain_projection(self, block):
        rng = np.random.default_rng(8)
        a = rng.normal(scale=1e-4, size=(3, 3))
        eps = 0.5 * (a + a.T)
        q = uniform_strain_vector(block, eps)
        f = block.facets
        for k in range(0, block.n_facets, 7):
            want = frame(f, k).T @ (eps @ f.normal[k])
            assert_allclose(facet_strain(q, f, k), want, atol=1e-12)


def facet_rows(mesh, k):
    """The three rows of the stacked strain operator that belong to facet
    k."""
    return build_strain_operator(mesh)[3 * k: 3 * k + 3]


class TestFacetOperator:
    def test_single_facet_row(self, single_facet):
        B = facet_rows(single_facet, 0)
        row_n = B.toarray()[0]
        assert row_n[0] == pytest.approx(-1.0 / 100.0)
        assert row_n[6] == pytest.approx(1.0 / 100.0)

    def test_randomized_equivalence(self, single_tet):
        rng = np.random.default_rng(12)
        for k in range(4):
            B = facet_rows(single_tet, k)
            for _ in range(20):
                q = rng.normal(size=single_tet.n_dofs)
                assert np.abs(B @ q - facet_strain(q, single_tet.facets, k)
                              ).max() < 1e-12

    def test_locality(self, single_tet):
        f = single_tet.facets
        B = facet_rows(single_tet, 0).toarray()
        for n in range(single_tet.n_nodes):
            if n not in (f.node_i[0], f.node_j[0]):
                assert np.all(B[:, 6 * n: 6 * n + 6] == 0.0)

    def test_stacked_operator_matches(self, block):
        B = build_strain_operator(block)
        rng = np.random.default_rng(13)
        q = rng.normal(size=block.n_dofs)
        e = (B @ q).reshape(-1, 3)
        for k in (0, 5, 17, block.n_facets - 1):
            assert_allclose(e[k], facet_strain(q, block.facets, k),
                            atol=1e-14)

    @pytest.mark.parametrize("name", ["block", "single_tet", "single_facet",
                                      "chain"])
    def test_equals_the_coo_assembly_bit_for_bit(self, name, request):
        mesh = request.getfixturevalue(name)
        if name == "block":
            f = mesh.facets
            assert (f.node_i > f.node_j).any() and (f.node_i < f.node_j).any()
        B = build_strain_operator(mesh)
        want = oracles.strain_operator_coo(mesh)
        assert B.shape == want.shape and B.has_sorted_indices
        for a in ("indptr", "indices", "data"):
            got, ref = getattr(B, a), getattr(want, a)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


class TestVolumetricStrain:
    def test_zero_displacement(self, single_tet):
        assert_allclose(volumetric_strain(np.zeros(single_tet.n_dofs),
                                          single_tet), 0.0)

    def test_isotropic_field(self, block):
        eps = 1e-6
        q = uniform_strain_vector(block, eps * np.eye(3))
        assert_allclose(volumetric_strain(q, block), eps, rtol=1e-5)

    def test_uniaxial_field(self, block):
        eps = 1e-6
        e3 = np.zeros((3, 3))
        e3[0, 0] = eps
        q = uniform_strain_vector(block, e3)
        assert_allclose(volumetric_strain(q, block), eps / 3.0, rtol=1e-5)

    def test_inverted_element_rejected(self, single_tet):
        q = np.zeros(single_tet.n_dofs)
        lo, hi = single_tet.bounding_box()
        q[0::6] = -10.0 * (hi[0] - lo[0]) * \
            (single_tet.positions[:, 0] - lo[0]) / (hi[0] - lo[0])
        with pytest.raises(AssemblyError, match="inverted"):
            volumetric_strain(q, single_tet)


def translations(mesh, u):
    """DoF vector with the nodal translations u (nn, 3), no rotations."""
    q = np.zeros((mesh.n_nodes, 6))
    q[:, :3] = u
    return q.ravel()


class TestInversionGuard:
    def test_half_the_inradius_of_a_regular_tet(self, single_tet):
        # edge a = 100: inradius a / (2 sqrt 6)
        assert inversion_guard(single_tet) == pytest.approx(
            100.0 / (4.0 * np.sqrt(6.0)), rel=1e-12)

    def test_off_without_tets_or_for_flat_and_inverted_ones(
            self, single_facet, single_tet):
        assert inversion_guard(single_facet) == 0.0
        for z in (1e-5, -10.0):      # a sliver within the margin; inverted
            pos = single_tet.positions.copy()
            pos[3, 2] = z
            mesh = Mesh(pos, single_tet.particle_diameters,
                        single_tet.facets, single_tet.tets,
                        single_tet.tet_volumes, single_tet.cell_volumes)
            assert inversion_guard(mesh) == 0.0

    def test_built_only_for_the_facet_law(self, single_tet, params,
                                         monkeypatch):
        # only the facet law reads e_V, so elastic operators skip the guard
        calls = []
        guard = assembly.inversion_guard
        monkeypatch.setattr(assembly, "inversion_guard",
                            lambda mesh: calls.append(mesh) or guard(mesh))
        SystemOperators(single_tet, params, elastic_only=True)
        assert calls == []
        ops = SystemOperators(single_tet, params)
        assert calls == [single_tet]
        assert ops.inversion_guard == guard(single_tet)

    def test_on_demand_path_just_below_the_guard(self, single_tet, params,
                                                 monkeypatch):
        ops = SystemOperators(single_tet, params)
        calls = []
        monkeypatch.setattr(assembly, "volumetric_strain",
                            lambda q, mesh, tets=None: calls.append(tets))
        u = np.full((4, 3), -ops.inversion_guard / np.sqrt(3.0)
                    * (1.0 - 1e-12))
        ops.facet_volumetric(translations(single_tet, u))
        assert calls == []
        u[2, 1] = ops.inversion_guard / np.sqrt(3.0) * (1.0 + 1e-12)
        ops.facet_volumetric(translations(single_tet, u))
        assert calls == [None]

    def test_inverted_tet_raises_the_all_tet_message(self, single_tet,
                                                    params):
        ops = SystemOperators(single_tet, params)
        lo, hi = single_tet.bounding_box()
        q = np.zeros(single_tet.n_dofs)
        q[0::6] = -10.0 * (single_tet.positions[:, 0] - lo[0])
        with pytest.raises(AssemblyError) as want:
            volumetric_strain(q, single_tet)
        with pytest.raises(AssemblyError) as got:
            internal_forces(q, ops, FacetStateArray.virgin(12))
        assert str(got.value) == str(want.value) == "inverted tetrahedra [0]"

    @pytest.mark.parametrize("shift", [0.0, 10.0])
    def test_both_paths_give_the_all_tet_tractions(self, block, params,
                                                   shift):
        # hydrostatic compression past sigma_c0, so that the compressive
        # boundary reads e_V; a rigid shift of 10 guards checks every tet first
        ops = SystemOperators(block, params)
        q = uniform_strain_vector(block, -4e-3 * np.eye(3))
        q[0::6] += shift * ops.inversion_guard
        states = FacetStateArray.virgin(block.n_facets)
        _, trial = internal_forces(q, ops, states)
        tet_ev = volumetric_strain(q, block)
        want_t, want = facet_update(states, ops.strains(q),
                                    tet_ev[block.facets.parent_tet],
                                    ops.lengths, params)
        assert np.any(trial.e_n_res != 0.0)
        assert np.array_equal(trial.traction, want_t)
        assert np.array_equal(trial.e_n_res, want.e_n_res)


class TestInternalForces:
    def test_inelastic_operators_refuse_snap_back(self, single_facet):
        short = MaterialParams(lt=50.0)
        with pytest.raises(SnapBackError, match="lt=50.0"):
            SystemOperators(single_facet, short)
        assert SystemOperators(single_facet, short, elastic_only=True) \
            .elastic_only

    def test_trial_holds_the_gathered_tractions(self, block, params):
        # past the tension floor every facet is evaluated: the trial holds
        # the law's tractions, and f_int = K q + B^T W (t - D e) is the
        # gather B^T W t up to rounding
        ops = SystemOperators(block, params)
        q = uniform_strain_vector(block, 1e-4 * np.eye(3))
        states = FacetStateArray.virgin(block.n_facets)
        f, trial = internal_forces(q, ops, states)
        t, want = facet_update(states, ops.strains(q), 0.0, ops.lengths,
                               params)
        assert len(trial.certificate.rows) == block.n_facets
        assert np.array_equal(trial.traction, t)
        assert np.all(np.abs(f - oracles.gather_all(ops, t))
                      <= 1e-12 * oracles.force_rounding(ops, q, t))
        assert want.traction is t

    def test_a_pulled_dog_bone_evaluates_tension_only_and_mixed_sets(
            self, tmp_path, monkeypatch):
        # the dog-bone's evaluated sets are all in tension until facets in
        # compression join them: on both kinds of set the law is the
        # all-facet oracle, and each pass the full-copy pass, bit for bit
        cfg = _workload_module().make_config("dogbone-explicit", 7,
                                             str(tmp_path))
        mesh = cfg.build_mesh()
        ops = SystemOperators(mesh, cfg.material_params())
        solver, _ = build_solver(cfg, mesh, ops,
                                 resolve_constraints(mesh, cfg.constraints))
        law, kinds = assembly.facet_update, []

        def checked(state, e, e_v, lengths, p):
            t, new = law(state, e, e_v, lengths, p)
            t0, new0 = oracles.facet_update(
                state, e, e_v(np.arange(len(e))), lengths, p)
            assert t.tobytes() == t0.tobytes()
            for f in oracles.STATE_FIELDS:
                assert getattr(new, f).tobytes() == \
                    getattr(new0, f).tobytes(), f
            comp = np.count_nonzero(e[:, 0] <= 0.0)
            kinds.append("tension-only" if not comp
                         else "mixed" if comp < len(e) else "compression")
            return t, new

        monkeypatch.setattr(assembly, "facet_update", checked)
        passes = 0
        for step in range(int(round(cfg.total_time / solver.dt))):
            merged = copy.copy(solver.states)
            before = {f: getattr(merged, f).copy()
                      for f in oracles.STATE_FIELDS}
            calls = len(kinds)
            solver.step()
            if len(kinds) == calls or (step % 8 and "mixed" not in
                                       kinds[calls:]):
                continue
            f_int, want = oracles.internal_forces_all_rows(
                solver.q, ops, before, solver.states.certificate)
            assert f_int.tobytes() == solver.f_int.tobytes()
            merged = copy.copy(solver.states)
            for f in oracles.STATE_FIELDS:
                assert getattr(merged, f).tobytes() == want[f].tobytes(), f
            passes += 1
            if "mixed" in kinds:
                break
        assert {"tension-only", "mixed"} <= set(kinds) and passes > 10

    def test_zero_state(self, single_tet, params):
        ops = SystemOperators(single_tet, params)
        f, trial = internal_forces(np.zeros(single_tet.n_dofs), ops,
                                   FacetStateArray.virgin(12))
        assert np.all(f == 0.0)
        assert np.all(trial.traction == 0.0)

    def test_single_facet_axial(self, single_facet, params):
        ops = SystemOperators(single_facet, params)
        delta = 1e-4
        q = np.zeros(single_facet.n_dofs)
        q[6] = delta
        f, _ = internal_forces(q, ops, FacetStateArray.virgin(1))
        want = params.E0 * 100.0 * delta / 100.0
        assert f[6] == pytest.approx(want, rel=1e-12)
        assert f[0] == pytest.approx(-want, rel=1e-12)

    def test_elastic_equals_stiffness_action(self, single_tet, params):
        ops = SystemOperators(single_tet, params)
        rng = np.random.default_rng(14)
        q = rng.normal(scale=1e-7, size=single_tet.n_dofs)
        f, _ = internal_forces(q, ops, FacetStateArray.virgin(12))
        want = ops.K @ q
        assert_allclose(f, want, rtol=0, atol=1e-9 * np.abs(want).max())

    def test_rigid_motion_gives_no_force(self, block, params):
        ops = SystemOperators(block, params)
        q = rigid_motion_vector(block, np.array([0.1, 0.2, -0.3]),
                                np.array([1e-3, 2e-3, -1e-3]))
        f, _ = internal_forces(q, ops,
                               FacetStateArray.virgin(block.n_facets))
        assert np.abs(f).max() < 1e-9 * params.E0

    def test_work_conjugacy(self, block, params):
        ops = SystemOperators(block, params)
        rng = np.random.default_rng(15)
        q = rng.normal(scale=2e-4, size=block.n_dofs)
        f, trial = internal_forces(q, ops,
                                   FacetStateArray.virgin(block.n_facets))
        dq = rng.normal(size=block.n_dofs)
        de = (ops.B @ dq).reshape(-1, 3)
        lhs = f @ dq
        t = facet_tractions(ops.strains(q), ops, trial)
        rhs = np.sum(ops.weights[:, None] * t * de)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_newtons_third_law(self, block, params):
        ops = SystemOperators(block, params)
        rng = np.random.default_rng(16)
        q = rng.normal(scale=2e-4, size=block.n_dofs)
        f, _ = internal_forces(q, ops,
                               FacetStateArray.virgin(block.n_facets))
        forces = f.reshape(-1, 6)[:, :3]
        moments = f.reshape(-1, 6)[:, 3:]
        scale = np.abs(forces).max()
        assert_allclose(forces.sum(axis=0), 0.0, atol=1e-9 * scale)
        total_moment = moments.sum(axis=0) + \
            np.cross(block.positions, forces).sum(axis=0)
        assert_allclose(total_moment, 0.0,
                        atol=1e-9 * scale * block.positions.max())


def pair_facets(mesh, lo, hi):
    """The facets of the node pair (lo, hi), by brute force."""
    f = mesh.facets
    return [k for k in range(mesh.n_facets)
            if {f.node_i[k], f.node_j[k]} == {lo, hi}]


class TestCertificate:
    def test_row_norms_of_the_facet_blocks(self, block, params):
        # c_a and c_b: the largest 1-norms of the rows of T = P/l and of
        # T skew(r) = (theta_I - theta_J) / 2, the rows T_k x r, with r the
        # centroid less the pair's midpoint
        ops = SystemOperators(block, params)
        f = block.facets
        for k in range(block.n_facets):
            _, th_i, T, th_j = oracles.facet_blocks(f, k)
            r = f.c_i[k] - 0.5 * (block.positions[f.node_j[k]]
                                  - block.positions[f.node_i[k]])
            c_a = np.abs(T).sum(axis=1).max()
            c_b = np.abs(0.5 * (th_i - th_j)).sum(axis=1).max()
            assert ops.c_a[k] == pytest.approx(c_a, rel=1e-14)
            assert ops.c_b[k] == pytest.approx(c_b, rel=1e-14)
            assert ops.c_b[k] == pytest.approx(
                np.abs(np.cross(T, r)).sum(axis=1).max(), rel=1e-14)

    def test_virgin_states_at_zero_need_no_strains(self, block, params,
                                                   monkeypatch):
        ops = SystemOperators(block, params)
        monkeypatch.setattr(ops, "strains", None)
        states = FacetStateArray.virgin(block.n_facets)
        f, trial = internal_forces(np.zeros(block.n_dofs), ops, states)
        cert = states.certificate
        assert trial.certificate is cert and np.all(cert.certified)
        assert len(cert.rows) == 0
        assert np.all(f == 0.0)
        # every pair's budgets: the least over its facets, by brute force
        half = 0.5 * ops.zero_slack
        pairs = ops.pairs
        assert np.all(pairs.lo < pairs.hi)
        assert cert.budget.shape == (len(pairs.lo), 6)
        seen = []
        for p, (lo, hi) in enumerate(zip(pairs.lo, pairs.hi)):
            of = pair_facets(block, lo, hi)
            seen += of
            assert sorted(pairs.order[pairs.start[p]:][:pairs.count[p]]) \
                == of
            want_a = min(half / ops.c_a[k] for k in of)
            want_b = min(half / ops.c_b[k] for k in of)
            assert np.array_equal(cert.budget[p], [want_a] * 3 + [want_b] * 3)
        assert sorted(seen) == list(range(block.n_facets))

    def test_centroid_at_the_midpoint_bounds_no_rotation(self, chain,
                                                         params):
        # the chain's facets sit at their pairs' midpoints: c_b = 0, an
        # infinite budget on b, and no division warning
        ops = SystemOperators(chain, params)
        assert np.all(ops.c_b == 0.0)
        cert = assembly.Certificate(np.zeros(chain.n_dofs), ops,
                                    FacetStateArray.virgin(chain.n_facets),
                                    None)
        assert np.all(np.isfinite(cert.budget[:, :3]))
        assert np.all(cert.budget[:, 3:] == np.inf)
        # rotations of alternate sign: a = 0 on every pair, |b| = cap
        q = np.zeros((chain.n_nodes, 6))
        q[:, 3:] = 0.5 * cert.cap[3] * (-1.0) ** np.arange(chain.n_nodes)[
            :, None]
        assert cert.covers(q.ravel())
        assert np.abs(ops.strains(q.ravel())).max() \
            < 1e-6 * ops.zero_slack

    @pytest.mark.parametrize("bad,dof,error", [
        (np.nan, 0, FloatingPointError), (np.nan, 4, FloatingPointError),
        (np.inf, 4, FloatingPointError), (-np.inf, 4, FloatingPointError),
        # an infinite translation inverts tets before the law sees it
        (np.inf, 0, AssemblyError)])
    def test_nonfinite_q_raises_when_every_facet_is_certified(
            self, block, params, bad, dof, error):
        ops = SystemOperators(block, params)
        states = FacetStateArray.virgin(block.n_facets)
        q = np.zeros(block.n_dofs)
        internal_forces(q, ops, states)
        assert np.all(states.certificate.certified)
        q[6 * 5 + dof] = bad
        assert not states.certificate.covers(q)
        with pytest.raises(error), np.errstate(invalid="ignore",
                                               divide="ignore"):
            internal_forces(q, ops, states)

    def test_certified_facets_keep_their_committed_fields(self, block,
                                                          params):
        # a soft pull certifies the facets with room to move; the trial
        # shares their committed fields and inherits the certificate
        ops = SystemOperators(block, params)
        states = FacetStateArray.virgin(block.n_facets)
        q = uniform_strain_vector(block, 5e-5 * np.diag([1.0, 0.0, 0.0]))
        _, trial = internal_forces(q, ops, states)
        cert = states.certificate
        c = cert.certified
        assert 0 < np.count_nonzero(c) < block.n_facets
        assert trial.certificate is cert
        t, _ = facet_update(states, ops.strains(q), 0.0, ops.lengths, params)
        assert np.array_equal(trial.traction[~c], t[~c])
        assert np.all(trial.traction[c] == 0.0)
        e = ops.strains(q)
        assert np.array_equal(facet_tractions(e, ops, trial)[c],
                              (e * ops.D)[c])


class TestRigidMotionInvariance:
    """The certificate budgets each node pair's jump, which no rigid
    motion changes: only the rounding cap bounds a rigid motion."""

    @pytest.fixture(scope="class")
    def dog_bone(self):
        mesh = preset_config("dog-bone").build_mesh()
        ops = SystemOperators(mesh, MaterialParams())
        # a soft pull along z, with some noise, certifies most facets
        rng = np.random.default_rng(21)
        q_ref = uniform_strain_vector(mesh, np.diag([0.0, 0.0, 6e-5])) \
            + rng.normal(scale=1e-6, size=mesh.n_dofs)
        cert = assembly.Certificate(q_ref, ops,
                                    FacetStateArray.virgin(mesh.n_facets),
                                    ops.strains(q_ref))
        assert 0 < np.count_nonzero(cert.certified) < mesh.n_facets
        return mesh, ops, q_ref, cert

    def test_covers_rigid_motion_and_a_small_homogeneous_strain(
            self, dog_bone):
        mesh, ops, q_ref, cert = dog_bone
        budget_a = cert.budget[:, 0]
        largest = budget_a[np.isfinite(budget_a)].max()
        slack = linear_slack(FacetStateArray.virgin(mesh.n_facets),
                             ops.strains(q_ref), ops.params)
        # a homogeneous strain of spectral norm 10 % of the smallest
        # certified slack, in a rotated frame
        frame_ = np.linalg.qr(np.random.default_rng(3).normal(
            size=(3, 3)))[0]
        eps = 0.1 * slack[cert.certified].min() \
            * frame_ @ np.diag([1.0, -0.6, 0.3]) @ frame_.T
        tau = 100.0 * largest * np.array([1.0, -0.7, 0.4])
        omega = np.array([2e-3, -1e-3, 1.5e-3])
        dq = rigid_motion_vector(mesh, tau, omega) \
            + uniform_strain_vector(mesh, eps)
        assert np.abs(dq.reshape(-1, 6)[:, :3]).max() < cert.cap[0]
        q = q_ref + dq
        assert cert.covers(q)
        c = cert.certified
        e, e_ref = ops.strains(q), ops.strains(q_ref)
        assert np.all(np.abs(e - e_ref).max(axis=1)[c] < slack[c])

    def test_stops_covering_just_past_the_rounding_cap(self, dog_bone):
        mesh, ops, q_ref, cert = dog_bone
        ref = np.abs(q_ref.reshape(-1, 6))
        assert np.array_equal(cert.cap.reshape(-1, 6), np.broadcast_to(
            [ops.cap_u - ref[:, :3].max()] * 3
            + [ops.cap_theta - ref[:, 3:].max()] * 3, ref.shape))
        for scale, inside in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
            q = q_ref + rigid_motion_vector(
                mesh, scale * cert.cap[0] * np.array([0.0, -1.0, 0.0]),
                np.zeros(3))
            assert cert.covers(q) is inside

    def test_caps_alone_bound_a_certificate_with_no_certified_facet(
            self, dog_bone):
        # every facet softened: every budget is infinite, and the caps on
        # the translations and on the rotations decide
        mesh, ops, _, _ = dog_bone
        states = FacetStateArray.virgin(mesh.n_facets)
        states.e_p_m[:] = 1e-3
        q_ref = np.zeros(mesh.n_dofs)
        cert = assembly.Certificate(q_ref, ops, states, None)
        assert not cert.certified.any() and np.all(cert.budget == np.inf)
        rng = np.random.default_rng(4)
        for dof in (0, 3):
            for scale, inside in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
                q = rng.uniform(-0.5, 0.5, size=mesh.n_dofs) * cert.cap
                q[6 * rng.integers(mesh.n_nodes) + dof + rng.integers(3)] = \
                    rng.choice([-1.0, 1.0]) * scale * cert.cap[dof]
                assert cert.covers(q) is inside

    def test_a_pulled_dog_bone_rebuilds_a_third_as_often(self, tmp_path,
                                                         monkeypatch):
        # per-node budgets, which a homogeneous strain spends, built 64
        # certificates over this run
        built = []
        init = assembly.Certificate.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(assembly.Certificate, "__init__", counting)
        cfg = _workload_module().make_config("dogbone-explicit", 7,
                                             str(tmp_path))
        cfg.total_time = 0.0005
        run(cfg)
        assert 0 < len(built) <= 64 // 3


class TestJumpOperator:
    def test_rows_against_the_pair_jump(self, block):
        pairs = assembly.node_pairs(block)
        J = assembly.build_jump_operator(block, pairs, np.int32)
        assert J.has_sorted_indices and J.nnz == 24 * len(pairs.lo)
        assert np.all(np.diff(J.indptr).reshape(-1, 6) == [6, 6, 6, 2, 2, 2])
        cols = J.indices.copy()
        J.has_sorted_indices = False
        J.sort_indices()
        assert np.array_equal(J.indices, cols)
        q = np.random.default_rng(8).normal(size=block.n_dofs)
        jump = (J @ q).reshape(-1, 6)
        x, d = block.positions, q.reshape(-1, 6)
        for p, (lo, hi) in enumerate(zip(pairs.lo, pairs.hi)):
            h = 0.5 * (x[hi] - x[lo])
            a = d[hi, :3] - d[lo, :3] - np.cross(d[hi, 3:] + d[lo, 3:], h)
            assert_allclose(jump[p, :3], a, rtol=0, atol=1e-13)
            assert_allclose(jump[p, 3:], d[hi, 3:] - d[lo, 3:], rtol=0,
                            atol=1e-15)

    def test_rigid_motion_has_no_jump(self, block):
        J = assembly.build_jump_operator(block, assembly.node_pairs(block),
                                        np.int32)
        q = rigid_motion_vector(block, np.array([0.1, 0.2, -0.3]),
                                np.array([1e-3, 2e-3, -1e-3]))
        assert np.abs(J @ q).max() < 1e-15

    def test_pairs_of_the_stiffness(self, block, params):
        assert (stiffness(block, params)
                != SystemOperators(block, params).K).nnz == 0


class TestStiffness:
    def test_single_facet_diagonal(self, single_facet, params):
        K = stiffness(single_facet, params).toarray()
        assert K[0, 0] == pytest.approx(params.E0 * 100.0 / 100.0, rel=1e-12)
        assert K[0, 6] == pytest.approx(-params.E0, rel=1e-12)

    def test_symmetry_and_psd(self, block, params):
        K = stiffness(block, params)
        A = K.toarray()
        assert np.abs(A - A.T).max() <= 1e-9 * np.abs(A).max()
        ev = scipy.linalg.eigvalsh(A)
        assert ev[0] > -1e-8 * ev[-1]

    def test_six_rigid_modes(self, single_tet, params):
        A = stiffness(single_tet, params).toarray()
        ev = scipy.linalg.eigvalsh(A)
        assert np.sum(np.abs(ev) < 1e-8 * ev[-1]) == 6
        assert ev[-1] > 0

    def test_annihilates_rigid_vectors(self, single_tet, params):
        K = stiffness(single_tet, params)
        scale = np.abs(K.toarray()).max()
        for k in range(6):
            u0 = np.zeros(3)
            om = np.zeros(3)
            if k < 3:
                u0[k] = 1.0
            else:
                om[k - 3] = 1e-2
            q = rigid_motion_vector(single_tet, u0, om)
            assert np.abs(K @ q).max() < 1e-10 * scale

    def test_energy_identity(self, block, params):
        ops = SystemOperators(block, params)
        rng = np.random.default_rng(18)
        q = rng.normal(size=block.n_dofs)
        e = ops.strains(q)
        d = np.array([1.0, params.alpha, params.alpha]) * params.E0
        energy = 0.5 * np.sum(ops.weights[:, None] * e ** 2 * d)
        assert 0.5 * q @ (ops.K @ q) == pytest.approx(energy, rel=1e-10)

    # jittered meshes: on a regular tet some entries cancel to rounding, so
    # which of them come out exactly zero depends on the order of the sums
    @pytest.mark.parametrize("name", ["chain", "block", "dog_bone"])
    def test_pair_blocks_give_the_strain_operator_product(self, name,
                                                          request, params):
        mesh = preset_config("dog-bone").build_mesh() if name == "dog_bone" \
            else request.getfixturevalue(name)
        K = stiffness(mesh, params)
        # canonical CSR: every row's columns strictly increasing
        starts = np.zeros(len(K.indices), dtype=bool)
        starts[K.indptr[:-1][np.diff(K.indptr) > 0]] = True
        assert K.has_canonical_format
        assert (np.diff(K.indices) > 0)[~starts[1:]].all()
        assert (K != K.T).nnz == 0
        # the values and the pattern of the product B^T diag(d) B without
        # its exact zeros
        B = build_strain_operator(mesh)
        d = np.repeat(facet_weights(mesh), 3) * np.tile(params.D,
                                                        mesh.n_facets)
        ref = (B.T @ sp.diags(d) @ B).tocsr()
        ref.eliminate_zeros()
        ref.sort_indices()
        assert np.array_equal(K.indptr, ref.indptr)
        assert np.array_equal(K.indices, ref.indices)
        assert abs(K - ref).max() <= 1e-14 * abs(ref).max()


class TestLumpedMass:
    def test_single_tet_share(self, single_tet):
        m = assemble_lumped_mass(single_tet)
        v = single_tet.tet_volumes[0]
        want = 2380.0e-12 * v / 4.0
        assert_allclose(m[0::6], want, rtol=1e-12)
        assert_allclose(m[1::6], m[0::6], rtol=0)
        assert_allclose(m[2::6], m[0::6], rtol=0)

    def test_rotatory_formula(self, single_tet):
        m = assemble_lumped_mass(single_tet)
        dp = single_tet.particle_diameters
        for n in range(single_tet.n_nodes):
            want = m[6 * n] * dp[n] ** 2 / 10.0
            assert m[6 * n + 3] == pytest.approx(want, rel=1e-12)

    def test_total_mass_conservation(self, block):
        m = assemble_lumped_mass(block)
        total = 2380.0e-12 * 30.0 ** 3
        assert m[0::6].sum() == pytest.approx(total, rel=1e-10)

    def test_positivity_guard(self, single_facet, params):
        # the explicit solver refuses a zero mass on a free DoF only
        ops = SystemOperators(single_facet, params)
        m = assemble_lumped_mass(single_facet)
        m[7] = 0.0
        fixed = {dof: (0.0, 0.0) for dof in range(6)}
        with pytest.raises(AssemblyError, match=r"zero mass .* nodes \[1\]"):
            ExplicitIntegrator(ops, LoadProgram(12, fixed), m, 1e-7)
        fixed[7] = (0.0, 0.0)
        ExplicitIntegrator(ops, LoadProgram(12, fixed), m, 1e-7)


class TestCrackOpenings:
    def test_elastic_facet_closed(self, single_facet, params):
        e = np.array([[2e-5, 1e-5, -3e-5]])
        t = e * np.array([1.0, params.alpha, params.alpha]) * params.E0
        w = crack_openings(single_facet, e, t, params)
        assert_allclose(w, 0.0, atol=1e-18)

    def test_fully_softened_tension(self, single_facet, params):
        e = np.array([[1e-3, 0.0, 0.0]])
        t = np.zeros((1, 3))
        w = crack_openings(single_facet, e, t, params)
        assert w[0, 0] == pytest.approx(0.1, rel=1e-12)
        assert w[0, 3] == pytest.approx(0.1, rel=1e-12)

    def test_compressed_facet_closed(self, single_facet, params):
        e = np.array([[-1e-4, 0.0, 0.0]])
        t = np.array([[-1e-4 * params.E0, 0.0, 0.0]])
        w = crack_openings(single_facet, e, t, params)
        assert_allclose(w, 0.0, atol=1e-18)

    @given(st.integers(0, 2**32 - 1))
    def test_equals_the_column_formula_bit_for_bit(self, seed):
        # written in place into one (nf, 4) array, in the float order of
        # the columns formed one by one; openings, closures and zeros
        mesh = build_block_specimen((30.0, 30.0, 30.0), (2, 2, 2), seed=6)
        params = MaterialParams()
        rng = np.random.default_rng(seed)
        nf = mesh.n_facets
        e = rng.normal(size=(nf, 3)) * 1e-4 * (rng.random((nf, 1)) < 0.8)
        t = e * params.D * rng.uniform(0.0, 1.5, size=(nf, 3))
        got = crack_openings(mesh, e, t, params)
        want = oracles.crack_openings(mesh, e, t, params)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


class TestCriticalTimestep:
    def test_spring_mass_reduction(self, single_facet, params):
        # clamp node 0 entirely and every non-axial DoF of node 1: the
        # remaining system is one mass on one spring
        fixed = [dof for dof in range(12) if dof != 6]
        dt = dt_crit(single_facet, params, fixed)
        m = assemble_lumped_mass(single_facet)[6]
        k = params.E0 * 100.0 / 100.0
        assert dt == pytest.approx(2.0 * np.sqrt(m / k), rel=1e-10)

    def test_single_tet_matches_dense_oracle(self, single_tet, params):
        dt = dt_crit(single_tet, params)
        K = stiffness(single_tet, params).toarray()
        M = assemble_lumped_mass(single_tet)
        lam = scipy.linalg.eigvalsh(K, np.diag(M))[-1]
        assert dt == pytest.approx(2.0 / np.sqrt(lam), rel=1e-8)

    def test_density_scaling(self, block, params):
        dt1 = dt_crit(block, params)
        heavy = build_block_specimen((30.0, 30.0, 30.0), (2, 2, 2), seed=6,
                                     density=2 * 2380.0)
        dt2 = dt_crit(heavy, params)
        assert dt2 == pytest.approx(np.sqrt(2.0) * dt1, rel=1e-9)

    def test_element_bound_is_conservative(self, block, params):
        # the per-element estimate must not exceed the step allowed by the
        # assembled system
        dt = dt_crit(block, params)
        K = stiffness(block, params).toarray()
        M = assemble_lumped_mass(block)
        lam = scipy.linalg.eigvalsh(K, np.diag(M))[-1]
        assert dt <= 2.0 / np.sqrt(lam) * (1.0 + 1e-12)

    def test_positive(self, block, params):
        assert dt_crit(block, params) > 0.0

    def test_constrained_block_matches_element_loop(self, params):
        mesh = build_block_specimen((40.0, 40.0, 80.0), (2, 2, 4), seed=9)
        fixed = resolve_constraints(mesh, ["fix zmin all",
                                           "velocity zmax uz -5 ramp=0.001",
                                           "fix center-zmax ux,uy"]).prescribed
        # some elements keep only part of their DoFs
        held = np.isin(6 * mesh.tets[:, :, None] + np.arange(6), fixed)
        held = held.reshape(len(mesh.tets), -1).sum(axis=1)
        assert ((held > 0) & (held < 24)).any()
        mass = assemble_lumped_mass(mesh)
        dt = dt_crit(mesh, params, fixed)
        assert dt == oracles.critical_timestep(mesh, params, mass, fixed)
        assert dt != dt_crit(mesh, params)

    def test_orphan_chain_matches_element_loop(self, chain, params):
        mass = assemble_lumped_mass(chain)
        for fixed in ((), range(6)):
            dt = dt_crit(chain, params, fixed)
            assert dt == oracles.critical_timestep(chain, params, mass, fixed)

    @pytest.mark.parametrize("orphaned", ["third", "all", "reversed"])
    def test_orphans_of_both_orientations_match_element_loop(
            self, block, params, orphaned):
        # every third facet or every facet loses its parent tet, the others
        # staying in tet elements, or the facets with node_i > node_j are
        # kept alone, as orphans
        f = block.facets
        parent = f.parent_tet.copy()
        parent[::3 if orphaned == "third" else 1] = -1
        f = dataclasses.replace(f, parent_tet=parent)
        if orphaned == "reversed":
            rows = f.node_i > f.node_j
            f = dataclasses.replace(f, **{a.name: getattr(f, a.name)[rows]
                                          for a in dataclasses.fields(f)})
        mesh = Mesh(block.positions, block.particle_diameters, f,
                    block.tets, block.tet_volumes, block.cell_volumes)
        orphans = f.parent_tet < 0
        assert (orphans & (f.node_i > f.node_j)).any()
        assert (orphans & (f.node_i < f.node_j)).any() \
            == (orphaned != "reversed")
        mass = assemble_lumped_mass(mesh)
        fixed = resolve_constraints(mesh, ["fix zmin all",
                                           "fix zmax uz"]).prescribed
        for held in ((), fixed):
            dt = dt_crit(mesh, params, held)
            assert dt == oracles.critical_timestep(mesh, params, mass, held)

    def test_strain_operator_passed_in(self, block, params):
        fixed = resolve_constraints(block, ["fix zmin all"]).prescribed
        mass = assemble_lumped_mass(block)
        for held in ((), fixed):
            dt = oracles.critical_timestep(block, params, mass, held)
            for B in (build_strain_operator(block),
                      SystemOperators(block, params).B):
                assert critical_timestep(block, params, mass, held, B) == dt

    def test_refuses_a_strain_operator_of_another_layout(self, single_facet,
                                                         params):
        B = build_strain_operator(single_facet)
        B.eliminate_zeros()
        with pytest.raises(ValueError, match="12 sorted entries"):
            critical_timestep(single_facet, params,
                              assemble_lumped_mass(single_facet), (), B)

    @given(div=st.tuples(st.integers(1, 2), st.integers(1, 2),
                         st.integers(1, 2)),
           seed=st.integers(0, 99),
           chunk=st.sampled_from([1, 3, assembly._DT_CHUNK]),
           data=st.data())
    def test_certified_bound_equals_every_element(self, div, seed, chunk,
                                                  data):
        # one seed element, so that most chunks stand on the certificate,
        # and chunks of 1 and 3 elements, so that some fall back to eigvalsh:
        # the step still equals the largest eigenvalue of every element
        mesh = build_block_specimen((20.0, 20.0, 20.0), div, seed=seed)
        params = MaterialParams()
        fixed = data.draw(st.lists(st.integers(0, mesh.n_dofs - 1),
                                   max_size=mesh.n_dofs // 2, unique=True))
        mass = assemble_lumped_mass(mesh)
        with mock.patch.object(assembly, "_DT_CHUNK", chunk), \
                mock.patch.object(assembly, "_DT_SEEDS", 1):
            dt = critical_timestep(mesh, params, mass, fixed,
                                   build_strain_operator(mesh))
        assert dt == oracles.critical_timestep(mesh, params, mass, fixed)


# peak allocation of the set-up of B and of the time step, per byte of
# B.data, on the 9216-facet block of the test below: measured 3.3; a COO
# assembly of B with every element matrix of a 1024-element chunk formed
# at once reads 12.2, and one np.add.at over a whole 256-element chunk 7.1
SETUP_PEAK_PER_B_BYTE = 4.5


def test_setup_peak_allocation_is_bounded_by_the_strain_operator(params):
    mesh = build_block_specimen((60.0, 60.0, 120.0), (4, 4, 8), seed=3)
    mass = assemble_lumped_mass(mesh)
    fixed = resolve_constraints(mesh, ["fix zmin all"]).prescribed
    tracemalloc.start()
    try:
        B = build_strain_operator(mesh)
        critical_timestep(mesh, params, mass, fixed, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SETUP_PEAK_PER_B_BYTE * B.data.nbytes, \
        peak / B.data.nbytes


# peak allocation of SystemOperators per byte of B.data on the 9216-facet
# block of the test above: measured 2.75 with the stiffness written from one
# 12 x 12 block per node pair; the product B^T diag(d) B and its
# symmetrization read 5.22
OPERATORS_PEAK_PER_B_BYTE = 3.5


def test_operators_peak_allocation_is_bounded_by_the_strain_operator(params):
    mesh = build_block_specimen((60.0, 60.0, 120.0), (4, 4, 8), seed=3)
    tracemalloc.start()
    try:
        ops = SystemOperators(mesh, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= OPERATORS_PEAK_PER_B_BYTE * ops.B.data.nbytes, \
        peak / ops.B.data.nbytes


def test_facet_weights(single_facet):
    assert_allclose(facet_weights(single_facet), [100.0 * 100.0])


def _workload_module():
    """The workload definitions of the benchmark (perfbench/workloads.py)."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_configs():
    """The RunConfigs of the three benchmark workloads (perfbench)."""
    module = _workload_module()
    return [module.make_config(name, 11, "unused")
            for name in module.WORKLOADS]


class TestMatvec:
    """`assembly.matvec` calls scipy's kernel directly; its products equal
    A @ x bit for bit, and so do those of its fallback."""

    @staticmethod
    def operators():
        """(name, matrix) pairs: K, B and its CSC transpose B^T, the jump
        operator J, and a certificate's B_E and B_E^T, of the three
        workload meshes; an int64-index copy of a B_E and its transpose;
        empty matrices."""
        out = []
        for cfg in _workload_configs():
            mesh = cfg.build_mesh()
            ops = SystemOperators(mesh, cfg.material_params())
            q = np.random.default_rng(1).normal(scale=3e-4,
                                                size=mesh.n_dofs)
            cert = assembly.Certificate(
                q, ops, FacetStateArray.virgin(mesh.n_facets),
                ops.strains(q))
            assert 0 < len(cert.rows) < mesh.n_facets
            out += [(f"{cfg.specimen} {n}", A) for n, A in (
                ("K", ops.K), ("B", ops.B), ("B^T", ops.B.T), ("J", ops.jump),
                ("B_E", cert.B), ("B_E^T", cert.BT))]
        wide = cert.B.copy()
        wide.indices = wide.indices.astype(np.int64)
        wide.indptr = wide.indptr.astype(np.int64)
        assert wide.indices.dtype == wide.indptr.dtype == np.int64
        empty = sp.csr_matrix((0, 6))
        return out + [("int64", wide), ("int64^T", wide.T),
                      ("empty", empty), ("empty^T", empty.T),
                      ("no entries", sp.csr_matrix((4, 3)))]

    @staticmethod
    def assert_products(operators):
        rng = np.random.default_rng(2)
        for name, A in operators:
            x = rng.normal(size=A.shape[1])
            y = assembly.matvec(A, x)
            want = A @ x
            assert y.dtype == want.dtype and y.shape == want.shape, name
            assert y.tobytes() == want.tobytes(), name
            # into a given output, whatever it held
            out = np.full(A.shape[0], np.nan)
            assert assembly.matvec(A, x, out=out) is out, name
            assert out.tobytes() == want.tobytes(), name

    def test_equals_scipy_product(self):
        assert set(assembly._KERNELS) == {"csr", "csc"}
        self.assert_products(self.operators())

    def test_fallback_without_the_kernels(self, monkeypatch):
        import builtins
        real_import = builtins.__import__

        def no_sparsetools(name, *args, **kwargs):
            if name == "scipy.sparse._sparsetools":
                raise ImportError(name)
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_sparsetools)
        kernels = assembly._load_kernels()
        monkeypatch.undo()
        assert kernels == {}
        monkeypatch.setattr(assembly, "_KERNELS", kernels)
        self.assert_products(self.operators())

    def test_other_vectors_go_through_scipy(self):
        A = build_strain_operator(build_fixture("single-tet"))
        for x in (np.arange(A.shape[1]),
                  np.arange(A.shape[1], dtype=np.float32),
                  np.ones((A.shape[1], 1)), list(range(A.shape[1]))):
            assert assembly.matvec(A, x).tobytes() == (A @ x).tobytes()
