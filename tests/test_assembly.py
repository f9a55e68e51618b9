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
    SnapBackError, facet_update
from ldpm.presets import preset_config
from ldpm.runner import resolve_constraints

import oracles
from oracles import facet_strain, frame


@pytest.fixture
def params():
    return MaterialParams()


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
        assert np.all(np.abs(f - ops.gather_forces(t))
                      <= 1e-12 * oracles.force_rounding(ops, q, t))
        assert want.traction is t

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
        rhs = np.sum(ops.weights[:, None] * facet_tractions(q, ops, trial)
                     * de)
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


class TestCertificate:
    def test_row_norms_of_the_facet_blocks(self, block, params):
        ops = SystemOperators(block, params)
        for k in range(block.n_facets):
            u_i, th_i, u_j, th_j = oracles.facet_blocks(block.facets, k)
            c_u = (np.abs(u_i) + np.abs(u_j)).sum(axis=1).max()
            c_th = (np.abs(th_i) + np.abs(th_j)).sum(axis=1).max()
            assert ops.c_u[k] == pytest.approx(c_u, rel=1e-14)
            assert ops.c_theta[k] == pytest.approx(c_th, rel=1e-14)

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
        half = 0.5 * ops.zero_slack
        for b, c in ((cert.b_u, ops.c_u), (cert.b_theta, ops.c_theta)):
            want = [min(half / c[k] for k in range(block.n_facets)
                        if n in (block.facets.node_i[k],
                                 block.facets.node_j[k]))
                    for n in range(block.n_nodes)]
            assert np.array_equal(b, want)

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
        assert np.array_equal(facet_tractions(q, ops, trial)[c],
                              (ops.strains(q) * ops.D)[c])


class TestStiffness:
    def test_single_facet_diagonal(self, single_facet, params):
        K = assemble_stiffness(single_facet, params).toarray()
        assert K[0, 0] == pytest.approx(params.E0 * 100.0 / 100.0, rel=1e-12)
        assert K[0, 6] == pytest.approx(-params.E0, rel=1e-12)

    def test_symmetry_and_psd(self, block, params):
        K = assemble_stiffness(block, params)
        A = K.toarray()
        assert np.abs(A - A.T).max() <= 1e-9 * np.abs(A).max()
        ev = scipy.linalg.eigvalsh(A)
        assert ev[0] > -1e-8 * ev[-1]

    def test_six_rigid_modes(self, single_tet, params):
        A = assemble_stiffness(single_tet, params).toarray()
        ev = scipy.linalg.eigvalsh(A)
        assert np.sum(np.abs(ev) < 1e-8 * ev[-1]) == 6
        assert ev[-1] > 0

    def test_annihilates_rigid_vectors(self, single_tet, params):
        K = assemble_stiffness(single_tet, params)
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
        K = assemble_stiffness(mesh, params)
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


class TestCriticalTimestep:
    def test_spring_mass_reduction(self, single_facet, params):
        # clamp node 0 entirely and every non-axial DoF of node 1: the
        # remaining system is one mass on one spring
        fixed = [dof for dof in range(12) if dof != 6]
        dt = critical_timestep(single_facet, params, fixed=fixed)
        m = assemble_lumped_mass(single_facet)[6]
        k = params.E0 * 100.0 / 100.0
        assert dt == pytest.approx(2.0 * np.sqrt(m / k), rel=1e-10)

    def test_single_tet_matches_dense_oracle(self, single_tet, params):
        dt = critical_timestep(single_tet, params)
        K = assemble_stiffness(single_tet, params).toarray()
        M = assemble_lumped_mass(single_tet)
        lam = scipy.linalg.eigvalsh(K, np.diag(M))[-1]
        assert dt == pytest.approx(2.0 / np.sqrt(lam), rel=1e-8)

    def test_density_scaling(self, block, params):
        dt1 = critical_timestep(block, params)
        heavy = build_block_specimen((30.0, 30.0, 30.0), (2, 2, 2), seed=6,
                                     density=2 * 2380.0)
        dt2 = critical_timestep(heavy, params)
        assert dt2 == pytest.approx(np.sqrt(2.0) * dt1, rel=1e-9)

    def test_element_bound_is_conservative(self, block, params):
        # the per-element estimate must not exceed the step allowed by the
        # assembled system
        dt = critical_timestep(block, params)
        K = assemble_stiffness(block, params).toarray()
        M = assemble_lumped_mass(block)
        lam = scipy.linalg.eigvalsh(K, np.diag(M))[-1]
        assert dt <= 2.0 / np.sqrt(lam) * (1.0 + 1e-12)

    def test_positive(self, block, params):
        assert critical_timestep(block, params) > 0.0

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
        dt = critical_timestep(mesh, params, fixed=fixed)
        assert dt == oracles.critical_timestep(mesh, params, mass, fixed)
        assert dt != critical_timestep(mesh, params)

    def test_orphan_chain_matches_element_loop(self, chain, params):
        mass = assemble_lumped_mass(chain)
        for fixed in ((), range(6)):
            dt = critical_timestep(chain, params, fixed=fixed)
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
            dt = critical_timestep(mesh, params, fixed=held)
            assert dt == oracles.critical_timestep(mesh, params, mass, held)

    def test_strain_operator_passed_in(self, block, params):
        fixed = resolve_constraints(block, ["fix zmin all"]).prescribed
        mass = assemble_lumped_mass(block)
        for held in ((), fixed):
            dt = critical_timestep(block, params, mass, held)
            for B in (build_strain_operator(block),
                      SystemOperators(block, params).B):
                assert critical_timestep(block, params, mass, held, B) == dt
            assert dt == oracles.critical_timestep(block, params, mass, held)

    def test_refuses_a_strain_operator_of_another_layout(self, single_facet,
                                                         params):
        B = build_strain_operator(single_facet)
        B.eliminate_zeros()
        with pytest.raises(ValueError, match="12 sorted entries"):
            critical_timestep(single_facet, params, B=B)

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
            dt = critical_timestep(mesh, params, mass, fixed)
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
