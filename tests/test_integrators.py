import copy

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from ldpm.assembly import (
    Certificate,
    SystemOperators,
    assemble_lumped_mass,
    critical_timestep,
    facet_tractions,
    internal_forces,
)
from ldpm.geometry import build_block_specimen, build_fixture
from ldpm.integrators import (
    ConvergenceSpec,
    DivergenceError,
    ExplicitIntegrator,
    GenAlphaParams,
    GeneralizedAlphaIntegrator,
    LoadProgram,
    NonConvergenceError,
    StaticSolver,
    check_convergence,
    genalpha_from_rho,
    hht_params,
    newmark_params,
    perturb,
)
from ldpm.material import FacetStateArray, MaterialParams, active_floors, \
    elastic_tractions, facet_update

from oracles import STATE_FIELDS, ExplicitStep, internal_forces_all_rows


@pytest.fixture
def params():
    return MaterialParams()


def single_dof_setup(params, force=None, velocity=None, ramp=0.0,
                     elastic_only=False):
    """Single-facet fixture reduced to one axial DoF (node 1, u_x)."""
    mesh = build_fixture("single-facet", length=100.0, area=100.0)
    kinematic = {dof: (0.0, 0.0) for dof in range(12) if dof != 6}
    if velocity is not None:
        kinematic[6] = (velocity, ramp)
    forces = [] if force is None else [(6, ((0.0, force), (1.0, force)))]
    ops = SystemOperators(mesh, params, elastic_only)
    program = LoadProgram(mesh.n_dofs, kinematic, forces)
    mass = assemble_lumped_mass(mesh)
    k = params.E0 * 100.0 / 100.0
    m = mass[6]
    return mesh, ops, program, mass, k, m


# two-particle chain on its x axis: node 0 fixed, nodes 1 and 2 free in u_x
# only
CHAIN_FIXED = [*range(6), *range(7, 12), *range(13, 18)]


class TestGenAlphaParams:
    def test_rho_one(self):
        ga = genalpha_from_rho(1.0)
        assert (ga.alpha_m, ga.alpha_f, ga.gamma, ga.beta) == \
            (0.5, 0.5, 0.5, 0.25)

    def test_rho_08(self):
        ga = genalpha_from_rho(0.8)
        assert ga.alpha_m == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert ga.alpha_f == pytest.approx(4.0 / 9.0, rel=1e-14)
        assert ga.gamma == pytest.approx(11.0 / 18.0, rel=1e-14)
        assert ga.beta == pytest.approx(25.0 / 81.0, rel=1e-14)

    def test_rho_zero(self):
        ga = genalpha_from_rho(0.0)
        assert ga.alpha_m == -1.0
        assert ga.alpha_f == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            genalpha_from_rho(1.5)
        with pytest.raises(ValueError):
            genalpha_from_rho(-0.1)

    def test_hht_degenerate_newmark(self):
        ga = hht_params(0.0)
        assert (ga.alpha_m, ga.alpha_f, ga.gamma, ga.beta) == \
            (0.0, 0.0, 0.5, 0.25)

    def test_hht_standard(self):
        ga = hht_params(-0.05)
        assert ga.alpha_f == pytest.approx(0.05)
        assert ga.gamma == pytest.approx(0.55)
        assert ga.beta == pytest.approx(0.275625)

    def test_hht_extreme(self):
        ga = hht_params(-1.0 / 3.0)
        assert ga.gamma == pytest.approx(5.0 / 6.0, rel=1e-12)
        assert ga.beta == pytest.approx(4.0 / 9.0, rel=1e-12)

    def test_hht_out_of_range(self):
        with pytest.raises(ValueError):
            hht_params(0.1)
        with pytest.raises(ValueError):
            hht_params(-0.4)

    def test_newmark_default(self):
        ga = newmark_params()
        assert (ga.gamma, ga.beta) == (0.5, 0.25)


class TestConvergenceSpec:
    def test_needs_criteria(self):
        with pytest.raises(ValueError):
            ConvergenceSpec(criteria=())

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            ConvergenceSpec(criteria=("residual", "voodoo"))

    def test_positive_tolerances(self):
        with pytest.raises(ValueError):
            ConvergenceSpec(tolerance=0.0)
        with pytest.raises(ValueError):
            ConvergenceSpec(a_tol=-1.0)

    def test_on_fail_values(self):
        with pytest.raises(ValueError):
            ConvergenceSpec(on_fail="retry")


class TestCheckConvergence:
    def test_zero_residual_passes(self):
        ok, vals = check_convergence(
            np.zeros(3), np.zeros(3), np.ones(3), np.ones(3), np.ones(3),
            np.zeros(3), 1.0, ConvergenceSpec(criteria=("residual",)))
        assert ok
        assert vals["residual"] == 0.0

    def test_residual_below_tolerance(self):
        ok, vals = check_convergence(
            np.array([1e-5]), np.array([1.0]), np.array([1.0]),
            np.array([1.0]), np.array([1.0]), np.array([0.0]), 1.0,
            ConvergenceSpec(criteria=("residual",), tolerance=1e-4))
        assert ok
        assert vals["residual"] == pytest.approx(1e-5)

    def test_wrms_boundary_strict(self):
        spec = ConvergenceSpec(criteria=("wrms",), r_tol=1e-4, a_tol=1e-6)
        dq = np.full(5, spec.a_tol)
        q = np.zeros(5)       # r_tol |u| term vanishes
        ok, vals = check_convergence(dq, dq, q, q, q, q, 1.0, spec)
        assert vals["wrms"] == pytest.approx(1.0, rel=1e-12)
        assert not ok

    def test_zero_normalizer_skipped(self):
        spec = ConvergenceSpec(criteria=("residual",))
        ok, vals = check_convergence(
            np.array([1.0]), np.array([0.0]), np.array([0.0]),
            np.array([0.0]), np.array([0.0]), np.array([0.0]), 0.0, spec)
        assert not ok
        assert np.isnan(vals["residual"])

    def test_disjunctive_acceptance(self):
        # huge residual but tiny increment: the increment criterion accepts
        spec = ConvergenceSpec(criteria=("residual", "increment"),
                               tolerance=1e-6)
        ok, _ = check_convergence(
            np.array([10.0]), np.array([1e-9]), np.array([1.0]),
            np.array([1.0]), np.array([1.0]), np.array([0.0]), 1.0, spec)
        assert ok


class TestLoadProgram:
    def test_partition(self):
        mesh = build_fixture("single-facet")
        p = LoadProgram(mesh.n_dofs, {c: (0.0, 0.0) for c in range(6)})
        assert list(p.prescribed) == list(range(6))
        assert list(p.free) == list(range(6, 12))

    def test_ramp_formulas(self):
        p = LoadProgram(6, {2: (-5.0, 0.001)})
        # during the ramp: u = v t^2 / (2 t_ramp)
        assert p.displacement(0.0005)[0] == \
            pytest.approx(-5.0 * 0.0005 ** 2 / 0.002, rel=1e-12)
        assert p.velocity(0.0005)[0] == pytest.approx(-2.5, rel=1e-12)
        # after the ramp: u = v (t - t_ramp / 2)
        assert p.displacement(0.01)[0] == \
            pytest.approx(-5.0 * (0.01 - 0.0005), rel=1e-12)
        assert p.velocity(0.01)[0] == -5.0
        assert p.acceleration(0.01)[0] == 0.0

    def test_no_ramp(self):
        p = LoadProgram(6, {0: (2.0, 0.0)})
        assert p.displacement(0.25)[0] == pytest.approx(0.5, rel=1e-14)

    def test_force_interpolation(self):
        p = LoadProgram(6, {}, [(0, ((0.0, 0.0), (1.0, 10.0), (2.0, 0.0)))])
        assert p.external_force(0.5)[0] == pytest.approx(5.0)
        assert p.external_force(1.5)[0] == pytest.approx(5.0)
        assert p.external_force(5.0)[0] == pytest.approx(0.0)

    def test_constant_values_after_the_histories_end(self):
        # the values precomputed for the end of every ramp and force history
        # are those of the general formulas, bit for bit
        histories = ((7, ((0.0, 0.0), (0.0004, 7.0), (0.0004, 3.0))),
                     (7, ((0.0, 1.0), (0.0009, -2.5))), (8, ((0.0, 0.1),)))
        p = LoadProgram(12, {0: (-5.0, 0.001), 1: (0.3, 0.0007),
                             2: (2.0, 0.0), 6: (0.0, 0.0)}, histories)
        vel, ramp = np.array([-5.0, 0.3, 2.0, 0.0]), \
            np.array([0.001, 0.0007, 0.0, 0.0])
        ramped = ramp > 0
        div = np.where(ramped, ramp, 1.0)
        for t in np.linspace(0.0, 0.002, 41):
            on = ramped & (t <= ramp)
            u = np.where(on, vel * t * t / (2.0 * div),
                         np.where(ramped, vel * (t - ramp / 2.0), vel * t))
            f = np.zeros(12)
            for dof, hist in histories:
                h = np.array(hist)
                f[dof] += np.interp(t, h[:, 0], h[:, 1])
            assert p.displacement(t).tobytes() == u.tobytes()
            assert p.velocity(t).tobytes() == \
                np.where(on, vel * t / div, vel).tobytes()
            assert p.acceleration(t).tobytes() == \
                np.where(on, vel / div, 0.0).tobytes()
            assert p.external_force(t).tobytes() == f.tobytes()

    @pytest.mark.parametrize("vel", [0.0, -0.0])
    def test_fixed_displacement_after_the_ramps(self, vel):
        # with every velocity +0 the displacement is a shared zero array;
        # a -0 velocity keeps the general formula's -0
        p = LoadProgram(12, {0: (vel, 0.001), 1: (0.0, 0.0), 7: (0.0, 0.0)})
        ramp = np.array([0.001, 0.0, 0.0])
        for t in np.linspace(0.0011, 0.01, 7):
            want = np.array([vel, 0.0, 0.0]) * (t - ramp / 2.0)
            assert p.displacement(t).tobytes() == want.tobytes()


class TestPerturb:
    def test_zero_eta_unchanged(self):
        q = np.arange(6.0)
        out = perturb(q, np.arange(3), 0.0, np.random.default_rng(0))
        assert_allclose(out, q, rtol=0)

    def test_bound_and_reproducibility(self):
        q = np.zeros(100)
        free = np.arange(50)
        a = perturb(q, free, 1e-5, np.random.default_rng(42))
        b = perturb(q, free, 1e-5, np.random.default_rng(42))
        assert_allclose(a, b, rtol=0)
        assert np.abs(a).max() <= 5e-6
        assert np.abs(a[free]).max() > 0.0
        assert np.all(a[50:] == 0.0)       # prescribed untouched

    def test_distinct_seeds(self):
        q = np.zeros(10)
        free = np.arange(10)
        a = perturb(q, free, 1e-5, np.random.default_rng(1))
        b = perturb(q, free, 1e-5, np.random.default_rng(2))
        assert np.any(a != b)

    def test_negative_eta(self):
        with pytest.raises(ValueError):
            perturb(np.zeros(3), np.arange(3), -1.0,
                    np.random.default_rng(0))


def block_solvers(params, elastic_only=False, steps=3):
    """Each solver kind on one small compressed block, after `steps`
    steps."""
    mesh = build_block_specimen((40.0, 40.0, 40.0), (1, 1, 1), seed=2)
    kinematic = {6 * n + 2: (0.0, 0.0)
                 for n in np.nonzero(mesh.positions[:, 2] == 0.0)[0]}
    kinematic.update({c: (0.0, 0.0) for c in (0, 1, 3, 4, 5)})
    kinematic.update({6 * n + 2: (-5.0, 0.0)
                      for n in np.nonzero(mesh.positions[:, 2] == 40.0)[0]})
    ops = SystemOperators(mesh, params, elastic_only)
    program = LoadProgram(mesh.n_dofs, kinematic)
    mass = assemble_lumped_mass(mesh)
    dt = 0.5 * critical_timestep(mesh, params, mass, program.prescribed,
                                 ops.B)
    conv = ConvergenceSpec()
    solvers = {
        "explicit": ExplicitIntegrator(ops, program, mass, dt),
        "static": StaticSolver(ops, program, 20 * dt, conv),
        "newmark": GeneralizedAlphaIntegrator(
            ops, program, mass, newmark_params(), 20 * dt, conv),
        "hht": GeneralizedAlphaIntegrator(
            ops, program, mass, hht_params(-0.05), 20 * dt, conv),
        "genalpha": GeneralizedAlphaIntegrator(
            ops, program, mass, genalpha_from_rho(0.8), 20 * dt, conv),
    }
    for solver in solvers.values():
        for _ in range(steps):
            solver.step()
    return ops, solvers


class TestSolverPerturb:
    @pytest.mark.parametrize("kind", ["explicit", "static", "newmark", "hht",
                                      "genalpha"])
    def test_state_consistent_after_perturb(self, params, kind):
        ops, solvers = block_solvers(params)
        solver = solvers[kind]
        q_old, states_old = solver.q.copy(), solver.states
        solver.perturb(1e-3, np.random.default_rng(5))
        free, pres = solver.program.free, solver.program.prescribed
        assert np.all(solver.q[free] != q_old[free])
        assert np.array_equal(solver.q[pres], q_old[pres])
        f, trial = internal_forces(solver.q, ops, states_old)
        assert np.array_equal(solver.f_int, f)
        assert np.array_equal(solver.tractions,
                              facet_tractions(solver.q, ops, trial))
        assert np.array_equal(solver.strains, ops.strains(solver.q))
        for name in ("e_max", "e_p_m", "e_p_l", "e_n_res", "traction"):
            assert np.array_equal(getattr(solver.states, name),
                                  getattr(trial, name))
        f_ext = solver.program.external_force(solver.t)
        want = f[pres] - f_ext[pres]
        if solver.mass is not None:
            want = solver.mass[pres] * solver.a[pres] + f[pres] \
                - f_ext[pres]
        assert np.array_equal(solver.reaction_forces[pres], want)

    def test_explicit_perturb_is_the_refresh(self, params):
        # the explicit solver's perturbation is the draw plus _refresh, as
        # before perturb() existed, so perturbed explicit runs are unchanged
        _, a = block_solvers(params)
        _, b = block_solvers(params)
        a, b = a["explicit"], b["explicit"]
        a.perturb(1e-3, np.random.default_rng(5))
        b.q = perturb(b.q, b.program.free, 1e-3, np.random.default_rng(5))
        b._refresh()
        for solver in (a, b):
            solver.step()
        for attr in ("q", "v", "a", "f_int", "reaction_forces", "tractions"):
            assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes()


class TestElasticOnDemand:
    """elastic_only evaluations are f_int = K q alone; the facet strains
    and tractions are computed on demand from the committed q."""

    @staticmethod
    def assert_committed(solver, ops, strains_first):
        e = ops.strains(solver.q)
        t = elastic_tractions(e, ops.params)
        if strains_first:
            assert np.array_equal(solver.strains, e)
        assert np.array_equal(solver.tractions, t)
        assert np.array_equal(solver.strains, e)
        assert np.array_equal(solver.f_int, ops.K @ solver.q)

    @pytest.mark.parametrize("kind", ["explicit", "genalpha", "static"])
    def test_state_follows_every_step_and_perturb(self, params, kind):
        ops, solvers = block_solvers(params, elastic_only=True, steps=0)
        solver = solvers[kind]
        rng = np.random.default_rng(8)
        for i in range(6):
            if i == 3:
                solver.perturb(1e-3, rng)
                self.assert_committed(solver, ops, strains_first=False)
            solver.step()
            self.assert_committed(solver, ops, strains_first=i % 2 == 0)
        assert np.any(solver.strains != 0.0)


def pulled_explicit(params, steps=160, strain=2e-4, ramp_steps=0):
    """Explicit solver on a small block whose top is pulled along z to the
    mean strain `strain` in `steps` steps, past the tension floor; with
    `ramp_steps`, the pull reaches its velocity over that many steps."""
    mesh = build_block_specimen((40.0, 40.0, 40.0), (1, 1, 2), seed=3)
    z = mesh.positions[:, 2]
    kinematic = {6 * n + 2: (0.0, 0.0) for n in np.nonzero(z == 0.0)[0]}
    kinematic.update({c: (0.0, 0.0) for c in (0, 1, 3, 4, 5)})
    top = np.nonzero(z == z.max())[0]
    ops = SystemOperators(mesh, params)
    mass = assemble_lumped_mass(mesh)
    fixed = sorted([*kinematic, *(6 * top + 2)])
    dt = 0.5 * critical_timestep(mesh, params, mass, fixed, ops.B)
    kinematic.update({6 * n + 2: (strain * z.max() / (steps * dt),
                                  ramp_steps * dt) for n in top})
    program = LoadProgram(mesh.n_dofs, kinematic)
    return ops, ExplicitIntegrator(ops, program, mass, dt)


def free_vibration_solver():
    """The explicit solver of the free-vibration preset (elastic, with a
    force pulse), set up as `runner.run` does."""
    from ldpm.presets import preset_config
    from ldpm.runner import build_solver, resolve_constraints
    cfg = preset_config("free-vibration")
    mesh = cfg.build_mesh()
    ops = SystemOperators(mesh, cfg.material_params(), cfg.elastic_only)
    program = resolve_constraints(mesh, cfg.constraints)
    return build_solver(cfg, mesh, ops, program)[0]


class TestExplicitStepOracle:
    """ExplicitIntegrator, with its scratch buffers and its velocity formed
    when read, equals the plain step of `oracles.ExplicitStep` bit for bit
    after every step: the state arrays, the reactions and the ledger."""

    @staticmethod
    def assert_same(solver, oracle, with_v=True):
        names = ("q", "a", "f_int", "f_ext_total", "reaction_forces")
        for name in names + (("v",) if with_v else ()):
            assert getattr(solver, name).tobytes() == \
                getattr(oracle, name).tobytes(), name
        for name in ("w_ext", "w_int"):
            assert getattr(solver.ledger, name).hex() == \
                getattr(oracle.ledger, name).hex(), name

    def march(self, solver, steps, v_every, perturb_at, replace_at, eta):
        """Step the solver and its oracle side by side.  v is read after
        every `v_every`-th step only, so the steps between form none; at
        step `perturb_at` both are perturbed, and at `replace_at` a caller
        replaces q by a moved copy."""
        oracle = ExplicitStep(solver.ops, solver.program, solver.mass,
                              solver.dt)
        self.assert_same(solver, oracle)
        rngs = [np.random.default_rng(9) for _ in range(2)]
        for i in range(steps):
            if i == perturb_at:
                for s, rng in zip((solver, oracle), rngs):
                    s.perturb(eta, rng)
                self.assert_same(solver, oracle)
            if i == replace_at:
                for s in (solver, oracle):
                    s.q = s.q.copy()
                    s.q[s.program.free[::7]] += eta
            solver.step()
            oracle.step()
            self.assert_same(solver, oracle, with_v=i % v_every == 0)

    @pytest.mark.parametrize("v_every", [1, 7])
    def test_free_vibration_through_its_pulse(self, v_every):
        solver = free_vibration_solver()
        pulse = solver.program._force_end
        steps = int(pulse / solver.dt) + 300
        # the perturbation follows a step whose v was not read when
        # v_every is 7
        self.march(solver, steps, v_every, perturb_at=steps // 2 + 2,
                   replace_at=steps - 100, eta=1e-7)
        assert solver.t > pulse
        assert np.any(solver.program.external_force(0.5 * pulse) != 0.0)

    @pytest.mark.parametrize("v_every", [1, 3])
    def test_inelastic_block_with_a_ramp(self, params, v_every):
        _, solver = pulled_explicit(params, ramp_steps=40)
        self.march(solver, 170, v_every, perturb_at=62, replace_at=100,
                   eta=1e-4)
        assert np.any(solver.states.e_max >= active_floors(params)[0])

    @pytest.mark.parametrize("elastic_only", [True, False])
    def test_arrays_read_before_a_step_keep_their_values(self, params,
                                                         elastic_only):
        _, solvers = block_solvers(params, elastic_only=elastic_only)
        solver = solvers["explicit"]
        # the public arrays that every explicit step binds anew
        held = {name: getattr(solver, name)
                for name in ("q", "v", "a", "f_int", "f_ext", "f_ext_total")}
        want = {name: a.tobytes() for name, a in held.items()}
        for _ in range(2):
            solver.step()
            for name, a in held.items():
                assert a.tobytes() == want[name], name


def full_arrays(states) -> dict:
    """The state arrays of `states`, read from a shallow copy, so that
    compact states stay compact."""
    merged = copy.copy(states)
    return {f: getattr(merged, f).copy() for f in STATE_FIELDS}


def assert_same_states(states, want: dict):
    got = full_arrays(states)
    for f in STATE_FIELDS:
        assert np.array_equal(got[f], want[f]) and \
            np.array_equal(np.signbit(got[f]), np.signbit(want[f])), f


class TestCompactTrials:
    """Trials that hold only the evaluated rows on shared committed arrays
    equal, bit for bit, the pass that copies every state array."""

    def test_explicit_passes_and_perturb(self, params):
        ops, solver = pulled_explicit(params)
        chained = 0
        for i in range(161):
            committed = solver.states
            held = committed.certificate
            before = full_arrays(committed)
            if i < 160:
                solver.step()
            else:
                solver.perturb(1e-4, np.random.default_rng(4))
            cert = solver.states.certificate
            f, want = internal_forces_all_rows(solver.q, ops, before, cert)
            assert np.array_equal(solver.f_int, f)
            assert_same_states(solver.states, want)
            assert_same_states(committed, before)
            chained += held is cert and len(cert.rows) > 0
        # passes from compact committed states, with some facets softened
        assert chained >= 10
        assert np.any(solver.states.e_max >= active_floors(params)[0])

    def test_newton_passes_from_one_committed_state(self, params):
        ops, solver = pulled_explicit(params)
        for _ in range(150):
            solver.step()
        committed = solver.states
        before = full_arrays(committed)
        rng = np.random.default_rng(8)
        trials = []
        # tiny moves keep the certificate; the last pull leaves its budgets
        # and rebuilds it on the committed states
        for size in (1e-9, 1e-8, 1e-9, 1e-3):
            q = solver.q + rng.normal(scale=size, size=len(solver.q))
            f, trial = internal_forces(q, ops, committed)
            f_want, want = internal_forces_all_rows(q, ops, before,
                                                    trial.certificate)
            assert np.array_equal(f, f_want)
            trials.append((trial, want))
        assert trials[0][0].certificate is trials[2][0].certificate
        assert trials[-1][0].certificate is not trials[0][0].certificate
        assert len(trials[0][0].certificate.rows) < ops.mesh.n_facets
        # the trials stay independent of each other and of the committed
        # states
        for trial, want in trials:
            assert_same_states(trial, want)
        assert_same_states(committed, before)


    def test_rebuild_passes_equal_the_full_copy_pass(self, params):
        # a rebuild takes the strains of the facets it evaluates from the
        # B q it forms for its slack, not from a second product B_E q
        ops, solver = pulled_explicit(params)
        sizes = []
        for i in range(160):
            solver.step()
            if i % 8 == 7:
                states = copy.copy(solver.states)
                if i == 159:
                    # no facet virgin: the rebuild evaluates every facet
                    states = FacetStateArray(*(
                        full_arrays(states)[f] + (f == "e_p_l") * 1e-12
                        for f in STATE_FIELDS))
                states.certificate = None          # rebuilt at q
                before = full_arrays(states)
                f, trial = internal_forces(solver.q, ops, states)
                cert = trial.certificate
                assert states.certificate is cert
                f_want, want = internal_forces_all_rows(solver.q, ops,
                                                        before, cert)
                assert np.array_equal(f, f_want)
                assert_same_states(trial, want)
                assert_same_states(states, before)
                sizes.append(len(cert.rows))
        assert 0 < sizes[-2] < ops.mesh.n_facets == sizes[-1]


class TestCommittedTractions:
    @pytest.mark.parametrize("kind", ["explicit", "static", "newmark", "hht",
                                      "genalpha"])
    def test_states_or_elastic_law(self, params, kind):
        # inelastic: the committed law tractions on the facets the last
        # evaluation ran the law on, and on the facets it certified the
        # elastic law of the strains, which is the law's up to rounding;
        # elastic: the law of the strains
        ops, solvers = block_solvers(params)
        solver = solvers[kind]
        rng = np.random.default_rng(5)
        for _ in range(2):
            c = solver.states.certificate.certified
            t = solver.tractions
            e = ops.strains(solver.q)
            assert np.array_equal(t[~c], solver.states.traction[~c])
            assert np.array_equal(t[c], elastic_tractions(e, params)[c])
            law, _ = facet_update(solver.states, e,
                                  ops.facet_volumetric(solver.q),
                                  ops.lengths, params)
            assert np.all(np.abs(t[c] - law[c]) <= 1e-15 * np.abs(law[c]))
            assert np.any(t != 0.0)
            # a perturbation leaves some facets evaluated
            solver.perturb(1e-3, rng)
        assert np.any(~c)
        ops, solvers = block_solvers(params, elastic_only=True)
        solver = solvers[kind]
        assert np.array_equal(solver.tractions, elastic_tractions(
            ops.strains(solver.q), ops.params))

    @pytest.mark.parametrize("elastic_only", [True, False])
    def test_given_strains_are_those_formed(self, params, elastic_only):
        # runner.run passes the final strains it has formed already
        ops, solvers = block_solvers(params, elastic_only=elastic_only)
        for solver in solvers.values():
            e = solver.strains
            assert facet_tractions(solver.q, ops, solver.states, e)\
                .tobytes() == solver.tractions.tobytes()


class TestDivergence:
    @pytest.mark.parametrize("elastic_only", [True, False])
    def test_nan_in_q_raises_at_that_step(self, params, elastic_only):
        mesh, ops, program, mass, k, m = single_dof_setup(
            params, force=1.0, elastic_only=elastic_only)
        solver = ExplicitIntegrator(ops, program, mass, 0.5 * np.sqrt(m / k))
        for _ in range(4):
            solver.step()
        solver.q = solver.q.copy()
        solver.q[6] = np.nan
        with pytest.raises(DivergenceError) as exc:
            solver.step()
        assert exc.value.step == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_force_raises_at_that_step(self, params):
        mesh, ops, program, mass, k, m = single_dof_setup(
            params, force=1.0, elastic_only=True)
        solver = ExplicitIntegrator(ops, program, mass, 0.5 * np.sqrt(m / k))
        for _ in range(4):
            solver.step()
        # a finite displacement whose elastic force k q overflows
        solver.q = solver.q.copy()
        solver.q[6] = 1e305
        with pytest.raises(DivergenceError) as exc:
            solver.step()
        assert exc.value.step == 4


class TestBookkeeping:
    def test_reaction_sum_matches_loop(self):
        program = LoadProgram(60, {dof: (1.0, 0.0) for dof in range(42)})
        solver = StaticSolver.__new__(StaticSolver)
        solver.program = program
        solver.reaction_forces = np.random.default_rng(3).normal(size=60) \
            * 10.0 ** np.arange(-30, 30)
        want = np.zeros(3)
        for d in program.driven:
            if d % 6 < 3:
                want[d % 6] += solver.reaction_forces[d]
        assert solver.reaction_sum().tobytes() == want.tobytes()

    def test_external_force_fresh_without_histories(self):
        p = LoadProgram(6, {0: (0.0, 0.0)})
        f = p.external_force(0.1)
        f[0] = 1.0
        assert np.array_equal(p.external_force(0.2), np.zeros(6))

    def test_gather_transpose_shares_b(self, params):
        # every other facet past the tension floor: the certificate
        # evaluates those, and gathers through a view of its rows of B
        ops = SystemOperators(build_fixture("single-tet"), params)
        nf = ops.mesh.n_facets
        e_max = np.zeros(nf)
        e_max[::2] = 1.0
        states = FacetStateArray(e_max, np.zeros(nf), np.zeros(nf),
                                 np.zeros(nf), np.zeros((nf, 3)))
        cert = Certificate(np.zeros(ops.mesh.n_dofs), ops, states, None)
        assert np.array_equal(cert.rows, np.arange(0, nf, 2))
        assert np.shares_memory(cert.BT.data, cert.B.data)
        t = np.random.default_rng(0).normal(size=(len(cert.rows), 3))
        want = cert.B.T @ (ops.weights[cert.rows][:, None] * t).ravel()
        assert ops.gather_forces(t, cert).tobytes() == want.tobytes()


class TestExplicit:
    def test_quiescent(self, params):
        mesh, ops, program, mass, k, m = single_dof_setup(params)
        solver = ExplicitIntegrator(ops, program, mass, 1e-6)
        for _ in range(100):
            rep = solver.step()
            assert rep.iterations == 0
            assert rep.converged
        assert np.all(solver.q == 0.0)

    def test_matches_analytic_cosine(self, params):
        F = 10.0
        mesh, ops, program, mass, k, m = single_dof_setup(params, force=F)
        omega = np.sqrt(k / m)
        dt_crit = 2.0 / omega
        dt = 0.01 * dt_crit
        solver = ExplicitIntegrator(ops, program, mass, dt)
        period = 2.0 * np.pi / omega
        n = int(round(period / dt))
        u, times = [], []
        for _ in range(n):
            solver.step()
            u.append(solver.q[6])
            times.append(solver.t)
        u = np.array(u)
        exact = (F / k) * (1.0 - np.cos(omega * np.array(times)))
        assert np.abs(u - exact).max() <= 1e-4 * np.abs(exact).max()

    def test_stable_at_09(self, params):
        F = 10.0
        mesh, ops, program, mass, k, m = single_dof_setup(params, force=F)
        dt = 0.9 * 2.0 * np.sqrt(m / k)
        solver = ExplicitIntegrator(ops, program, mass, dt)
        for _ in range(5000):
            solver.step()
        assert np.abs(solver.q[6]) < 10.0 * 2 * F / k

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_above_critical(self, params):
        F = 10.0
        # elastic response: the nonlinear strength limits would otherwise
        # bound the forces and turn the blow-up into a finite rattle
        mesh, ops, program, mass, k, m = single_dof_setup(
            params, force=F, elastic_only=True)
        dt = 2.1 * 2.0 * np.sqrt(m / k)
        solver = ExplicitIntegrator(ops, program, mass, dt)
        with pytest.raises(DivergenceError):
            for _ in range(1000):
                solver.step()

    def test_prescribed_follows_program(self, params):
        mesh, ops, program, mass, k, m = single_dof_setup(
            params, velocity=-2.0, ramp=1e-4)
        dt = 0.5 * 2.0 * np.sqrt(m / k)
        solver = ExplicitIntegrator(ops, program, mass, dt)
        while solver.t < 5e-4:
            solver.step()
        want = -2.0 * (solver.t - 0.5e-4)
        assert solver.q[6] == pytest.approx(want, rel=1e-12)

    def test_determinism(self, params):
        runs = []
        for _ in range(2):
            mesh, ops, program, mass, k, m = single_dof_setup(
                params, force=3.0)
            solver = ExplicitIntegrator(ops, program, mass, 1e-6)
            for _ in range(200):
                solver.step()
            runs.append(solver.q.copy())
        assert runs[0].tobytes() == runs[1].tobytes()


class TestGeneralizedAlpha:
    def test_linear_single_iteration(self, params):
        mesh, ops, program, mass, k, m = single_dof_setup(
            params, velocity=-1.0, ramp=1e-4, elastic_only=True)
        solver = GeneralizedAlphaIntegrator(
            ops, program, mass, genalpha_from_rho(0.8), 5e-5,
            ConvergenceSpec(criteria=("residual",), tolerance=1e-8))
        for _ in range(10):
            rep = solver.step()
            assert rep.converged
            assert rep.iterations == 1
            assert rep.criteria["residual"] < 1e-10

    def test_energy_conservation_rho_one(self, params):
        mesh, ops, program, mass, k, m = single_dof_setup(params,
                                                          elastic_only=True)
        omega = np.sqrt(k / m)
        period = 2.0 * np.pi / omega
        solver = GeneralizedAlphaIntegrator(
            ops, program, mass, genalpha_from_rho(1.0), period / 100.0,
            ConvergenceSpec(criteria=("residual",), tolerance=1e-10))
        u0 = 1e-3
        solver.q[6] = u0
        solver.a[6] = -k * u0 / m
        e0 = 0.5 * k * u0 ** 2
        for _ in range(100 * 100):
            solver.step()
            e = 0.5 * m * solver.v[6] ** 2 + 0.5 * k * solver.q[6] ** 2
            assert abs(e - e0) <= 1e-6 * e0

    def test_high_mode_annihilation_rho_zero(self, params):
        # chain of two springs; initial condition along the highest mode;
        # large steps with full numerical damping must shrink its amplitude
        # monotonically
        mesh = build_fixture("two-particle-chain", n=2, length=100.0,
                             area=100.0)
        ops = SystemOperators(mesh, params, elastic_only=True)
        program = LoadProgram(mesh.n_dofs, {dof: (0.0, 0.0) for dof in
                                            CHAIN_FIXED})
        mass = assemble_lumped_mass(mesh)
        free = program.free
        K = ops.K.toarray()[np.ix_(free, free)]
        M = np.diag(mass[free])
        lam, vec = scipy.linalg.eigh(K, M)
        hi = vec[:, -1]
        t_hi = 2.0 * np.pi / np.sqrt(lam[-1])
        solver = GeneralizedAlphaIntegrator(
            ops, program, mass, genalpha_from_rho(0.0), 5.0 * t_hi,
            ConvergenceSpec(criteria=("residual",), tolerance=1e-10))
        solver.q[free] = 1e-3 * hi
        solver.a[free] = -1e-3 * lam[-1] * hi
        amp = [abs(hi @ (M @ solver.q[free]))]
        for _ in range(12):
            solver.step()
            amp.append(abs(hi @ (M @ solver.q[free])))
        # the amplification operator is non-normal, so allow a short
        # transient; the envelope must collapse by orders of magnitude
        assert max(amp[3:]) < 1e-2 * amp[0]
        assert amp[-1] < 1e-6 * amp[0]

    def test_prescribed_follows_program(self, params):
        mesh, ops, program, mass, k, m = single_dof_setup(
            params, velocity=3.0, ramp=1e-4, elastic_only=True)
        solver = GeneralizedAlphaIntegrator(
            ops, program, mass, genalpha_from_rho(0.8), 1e-4,
            ConvergenceSpec())
        for _ in range(5):
            solver.step()
        want = 3.0 * (solver.t - 0.5e-4)
        assert solver.q[6] == pytest.approx(want, rel=1e-12)


def fixed_base(mesh):
    """The base (lowest z) of `mesh` fixed: its kinematic map, the top
    nodes' u_z DoFs, the first top node's u_x and the height."""
    z = mesh.positions[:, 2]
    kinematic = {6 * node + c: (0.0, 0.0) for c in range(6)
                 for node in np.flatnonzero(z == z.min())}
    top = np.flatnonzero(z == z.max())
    return kinematic, list(6 * top + 2), 6 * top[0], z.max() - z.min()


def linear_pull(params, kind, velocity):
    """A static run, on steps of 2e-5 s, of the two-particle chain (60 mm
    facets; node 2 driven in u_x at `velocity` mm/s) or of the single tet
    (base fixed; apex driven in u_z).  At 1 mm/s, 240 steps pull the chain
    to a strain of 4e-5 and the tet's most strained facet to 3.9e-5."""
    if kind == "chain":
        mesh = build_fixture("two-particle-chain", n=2, length=60.0,
                             area=100.0)
        kinematic = {**{dof: (0.0, 0.0) for dof in CHAIN_FIXED},
                     12: (velocity, 0.0)}
    else:
        mesh = build_fixture("single-tet")
        kinematic, driven, _, _ = fixed_base(mesh)
        kinematic.update({dof: (velocity, 0.0) for dof in driven})
    ops = SystemOperators(mesh, params)
    return StaticSolver(ops, LoadProgram(mesh.n_dofs, kinematic), 2e-5,
                        ConvergenceSpec())


class TestStatic:
    def test_elastic_exact_in_one_iteration(self, params):
        mesh, ops, program, mass, k, m = single_dof_setup(
            params, velocity=1.0)
        # no free DoFs beyond none: node 1 u_x is driven, so drive the
        # middle of a 2-chain instead for a nontrivial solve
        mesh = build_fixture("two-particle-chain", n=2, length=100.0,
                             area=100.0)
        ops = SystemOperators(mesh, params, elastic_only=True)
        program = LoadProgram(mesh.n_dofs, {**{dof: (0.0, 0.0) for dof in
                                               CHAIN_FIXED}, 12: (1.0, 0.0)})
        solver = StaticSolver(ops, program, dt=1e-5,
                              conv=ConvergenceSpec(criteria=("residual",),
                                                   tolerance=1e-10))
        rep = solver.step()
        assert rep.converged
        assert rep.iterations == 1
        delta = solver.q[12]
        # springs in series: end reaction = (k/2) * end displacement
        assert solver.reaction_sum()[0] == \
            pytest.approx(0.5 * params.E0 * delta, rel=1e-10)
        assert solver.q[6] == pytest.approx(delta / 2.0, rel=1e-10)

    def test_softening_chain_displacement_control(self, params):
        mesh = build_fixture("two-particle-chain", n=2, length=60.0,
                             area=100.0)
        ops = SystemOperators(mesh, params)
        program = LoadProgram(mesh.n_dofs, {**{dof: (0.0, 0.0) for dof in
                                               CHAIN_FIXED}, 12: (1.0, 0.0)})
        solver = StaticSolver(ops, program, dt=5e-5,
                              conv=ConvergenceSpec(max_iter=100))
        peak = params.sigma_t * 100.0
        reactions = []
        for _ in range(200):
            rep = solver.step()
            assert rep.converged
            reactions.append(solver.reaction_sum()[0])
        reactions = np.array(reactions)
        assert reactions.max() == pytest.approx(peak, rel=0.02)
        assert reactions[-1] < 0.8 * reactions.max()

    @pytest.mark.parametrize("elastic_only", [True, False])
    def test_residual_scale_sees_the_load_path(self, params, elastic_only):
        # displacement-driven: f_ext is 0 on the free DoFs, where f_int is
        # the residual itself, so a scale over the free DoFs alone reads
        # |r| / |r| = 1; the reactions on the driven DoFs carry the load
        ops, solvers = block_solvers(params, elastic_only, steps=0)
        solver = StaticSolver(ops, solvers["static"].program,
                              solvers["static"].dt,
                              ConvergenceSpec(criteria=("residual",),
                                              max_iter=1))
        for _ in range(4):
            rep = solver.step()
            assert rep.converged
            assert rep.criteria["residual"] < solver.conv.tolerance

    def test_a_step_without_a_pass_is_certified_linear(self, params):
        # the chain is pulled through the certified share of its facets'
        # linear range to cracking: a step committed from the prediction
        # alone evaluated no facet, so a prediction at which the law ran is
        # never taken
        mesh = build_fixture("two-particle-chain", n=2, length=60.0,
                             area=100.0)
        ops = SystemOperators(mesh, params)
        program = LoadProgram(mesh.n_dofs, {**{dof: (0.0, 0.0) for dof in
                                               CHAIN_FIXED}, 12: (1.0, 0.0)})
        solver = StaticSolver(ops, program, dt=5e-5, conv=ConvergenceSpec())
        predicted = evaluated = 0
        for _ in range(200):
            rep = solver.step()
            rows = len(solver.states.certificate.rows)
            if rep.iterations == 0:
                assert rows == 0
                predicted += 1
            evaluated += rows > 0
        assert predicted and evaluated

    @pytest.mark.parametrize("kind", ["chain", "tet"])
    def test_a_linear_pull_solves_once(self, params, kind):
        # pulled to a strain of 4e-5, inside the facets' linear range (the
        # tension floor is 5.7e-5) but past the budgets of the certificate
        # built at q = 0: every step after the first is taken on the
        # prediction alone, those that rebuild the certificate too
        solver = linear_pull(params, kind, 1.0)
        certs = set()
        for k in range(240):
            rep = solver.step()
            assert rep.converged and (rep.iterations > 0) == (k == 0), k
            certs.add(id(solver.states.certificate))
        assert len(certs) >= 3

    def test_a_prediction_is_judged_by_its_evaluation(self, params):
        # the tet pulled past the certified share of its facets' linear
        # range: an evaluation returns the committed states themselves
        # exactly when it runs the law on no facet, also where it rebuilds
        # the certificate; only then is a prediction taken without a pass,
        # and only a step whose last evaluation did so is extrapolated
        solver = linear_pull(params, "tet", 1.2)
        rebuilt = evaluated = 0
        for k in range(240):
            committed = solver.states
            cert = committed.certificate
            rep = solver.step()
            kept = solver.states is committed
            if k:
                assert (rep.iterations == 0) == kept, k
            assert (solver._predictor is not None) == kept, k
            f, trial = internal_forces(solver.q, solver.ops, committed)
            assert (trial is committed) == kept
            assert np.array_equal(f, solver.f_int)
            assert kept == (not len(solver.states.certificate.rows))
            rebuilt += kept and k > 0 \
                and solver.states.certificate is not cert
            evaluated += not kept
        assert rebuilt >= 3 and evaluated >= 10

    def test_force_control_past_peak_fails(self, params):
        mesh, ops, program, mass, k, m = single_dof_setup(
            params, force=2.0 * params.sigma_t * 100.0)
        solver = StaticSolver(
            ops, program, dt=0.5,
            conv=ConvergenceSpec(criteria=("residual",), tolerance=1e-8,
                                 max_iter=40, on_fail="abort"))
        with pytest.raises((NonConvergenceError, FloatingPointError,
                            OverflowError)):
            for _ in range(4):
                solver.step()

    def test_prescribed_follows_program(self, params):
        mesh, ops, program, mass, k, m = single_dof_setup(
            params, velocity=-4.0, ramp=2e-4, elastic_only=True)
        solver = StaticSolver(ops, program, dt=1e-4, conv=ConvergenceSpec())
        for _ in range(6):
            solver.step()
        want = -4.0 * (solver.t - 1e-4)
        assert solver.q[6] == pytest.approx(want, rel=1e-12)


def rebuild_case():
    """A case of `predictor_cases`: the 1 x 1 x 2 block (seed 0) with the
    facet law, pulled to 1e-5 in three steps, whose certificate is rebuilt
    at the third step inside the facets' linear range."""
    mesh = build_block_specimen((40.0, 40.0, 40.0), (1, 1, 2), seed=0)
    kinematic, driven, _, length = fixed_base(mesh)
    kinematic.update({dof: (1e-5 * length, 0.0) for dof in driven})
    return SystemOperators(mesh, MaterialParams()), kinematic, [], 1.0 / 3, \
        3, None


@st.composite
def predictor_cases(draw):
    """A linear static run: a chain, a tet or a block (div up to 2 x 2 x 4),
    fixed at one end and driven at the other by one ramped velocity to a
    nominal strain of at most 1e-5, with or without the facet law.  At
    times a force acts on a free DoF, held from the start or ramped up and
    then held, and a tiny perturbation comes before one step.  Returns
    (ops, kinematic, forces, dt, steps, jump), jump None or (step, eta)."""
    kind = draw(st.sampled_from(["chain", "tet", "block"]))
    if kind == "chain":
        n = draw(st.integers(1, 3))
        mesh = build_fixture("two-particle-chain", n=n)
        kinematic = {dof: (0.0, 0.0) for dof in range(6 * (n + 1))
                     if dof % 6 or dof == 0}
        driven, pushed, length = [6 * n], 6 * (n - 1), 100.0 * n
    else:
        mesh = build_fixture("single-tet") if kind == "tet" else \
            build_block_specimen((40.0, 40.0, 40.0), (
                draw(st.integers(1, 2)), draw(st.integers(1, 2)),
                draw(st.integers(1, 4))), seed=draw(st.integers(0, 3)))
        kinematic, driven, pushed, length = fixed_base(mesh)
    steps = draw(st.integers(3, 8))
    dt = 1.0 / steps
    ramp = draw(st.sampled_from([0.0, 0.5 * dt, 2.0 * dt, 1.0]))
    strain = draw(st.floats(1e-6, 1e-5)) * draw(st.sampled_from([-1, 1]))
    params = MaterialParams()
    v = strain * length / (1.0 - ramp / 2.0)
    kinematic.update({dof: (v, ramp) for dof in driven})
    forces = []
    force = "none" if pushed in kinematic else \
        draw(st.sampled_from(["none", "held", "ramped"]))
    if force != "none":
        # a fifth to a half of the load a mean facet carries at the strain:
        # a prediction that misses it misses equilibrium by far more than
        # the tolerance, and the law stays linear
        f = draw(st.floats(0.2, 0.5)) * params.E0 * abs(strain) \
            * mesh.facets.projected_area.mean()
        forces = [(pushed, ((0.0, f), (1.0, f)) if force == "held"
                   else ((0.0, 0.0), (draw(st.floats(0.1, 0.9)), f)))]
    jump = None
    if draw(st.booleans()):
        jump = (draw(st.integers(1, steps - 1)), 1e-6 * abs(strain) * length)
    ops = SystemOperators(mesh, params, draw(st.booleans()))
    return ops, kinematic, forces, dt, steps, jump


# the largest deviation, in eps of each quantity's magnitude, between a
# static run with the predictor and one without (2277 at most in 9000
# examples, on the single tet)
PREDICTOR_EPS = 1e4


@given(predictor_cases())
@example(rebuild_case())
def test_predictor_is_the_linear_solution(case):
    """A certified-linear static step accepted on the prediction alone is
    the solution a pass finds: with the default criteria, and with
    `increment,energy`, which never predicts, the final q, reactions and
    W_int agree to rounding.  On runs that evaluate no facet (every
    elastic run, and inelastic ones across rebuilds of the certificate)
    every step from the second on is taken without a pass, but for the
    one after a perturbation, the two after a step over which the external
    force changes and, when the force is out of balance at q = 0, the
    second step: these start from an increment that extrapolates no
    equilibrium, and the first of each takes at least one pass."""
    ops, kinematic, forces, dt, steps, jump = case
    runs = []
    for criteria in (("residual", "increment", "energy"),
                     ("increment", "energy")):
        program = LoadProgram(ops.mesh.n_dofs, kinematic, forces)
        solver = StaticSolver(ops, program, dt,
                              ConvergenceSpec(criteria=criteria))
        reports, linear = [], True
        for k in range(steps):
            committed = solver.states
            if jump is not None and k == jump[0]:
                solver.perturb(jump[1], np.random.default_rng(7))
            reports.append(solver.step())
            # no facet evaluated: the trial states are the committed ones
            linear = linear and solver.states is committed
        runs.append((solver, reports, linear))
    (a, reports, linear), (b, _, _) = runs
    tol = PREDICTOR_EPS * np.finfo(float).eps
    for x, y in ((a.q, b.q), (a.reaction_forces, b.reaction_forces),
                 (a.ledger.w_int, b.ledger.w_int)):
        assert np.abs(x - y).max() <= tol * np.abs(y).max()
    if not linear:
        return
    f_ext = [a.program.external_force(t)
             for t in [0.0] + [rep.time for rep in reports]]
    moved = [not np.array_equal(f0, f1) for f0, f1 in zip(f_ext, f_ext[1:])]
    refused = {1} if f_ext[0][a.program.free].any() else set()
    if jump is not None:
        refused.add(jump[0])
    for k, rep in enumerate(reports[1:], 1):
        if k in refused:
            assert rep.iterations >= 1, k
        elif not (moved[k] or moved[k - 1]
                  or (jump is not None and k == jump[0] + 1)):
            assert rep.iterations == 0, k
