import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from ldpm import diagnostics
from ldpm.assembly import SystemOperators, assemble_lumped_mass, \
    critical_timestep
from ldpm.diagnostics import (
    EnergyLedger,
    accumulate_work,
    book_perturbation,
    book_release,
    energy_balance_error,
    fft_peaks,
    kinetic_energy,
)
from ldpm.geometry import build_block_specimen, build_fixture
from ldpm.integrators import ConvergenceSpec, ExplicitIntegrator, \
    GeneralizedAlphaIntegrator, LoadProgram, StaticSolver, newmark_params
from ldpm.material import MaterialParams
from ldpm.presets import preset_config
from ldpm.runner import build_solver, resolve_constraints, run


@pytest.fixture
def params():
    return MaterialParams()


class TestKineticEnergy:
    def test_zero_velocity(self):
        mass = np.array([2.0, 3.0])
        assert kinetic_energy(np.zeros(2), mass) == 0.0

    def test_half_m_v_squared(self):
        mass = np.array([2.0])
        assert kinetic_energy(np.array([3.0]), mass) == pytest.approx(9.0)

    def test_quadratic_in_velocity(self):
        rng = np.random.default_rng(4)
        mass = rng.uniform(0.5, 2.0, 12)
        v = rng.standard_normal(12)
        assert kinetic_energy(2.0 * v, mass) == \
            pytest.approx(4.0 * kinetic_energy(v, mass), rel=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        mass = rng.uniform(0.1, 1.0, 30)
        for _ in range(10):
            assert kinetic_energy(rng.standard_normal(30), mass) >= 0.0


class TestAccumulateWork:
    def test_zero_increment_unchanged(self):
        led = EnergyLedger(w_int=1.5, w_ext=2.5)
        f = np.array([10.0, -3.0])
        accumulate_work(led, f, f, f, f, np.zeros(2))
        assert (led.w_ext, led.w_int) == (2.5, 1.5)

    @pytest.mark.parametrize("n_steps", [1, 7, 50])
    def test_linear_spring_exact_quadrature(self, n_steps):
        # trapezoid is exact for a force linear in displacement, so the
        # accumulated internal work is half k delta^2 for any step count
        k, delta = 250.0, 0.4
        led = EnergyLedger()
        u = np.linspace(0.0, delta, n_steps + 1)
        for a, b in zip(u[:-1], u[1:]):
            accumulate_work(led, [0.0], [0.0], [k * a], [k * b],
                            np.array([b - a]))
        assert led.w_int == pytest.approx(0.5 * k * delta ** 2, rel=1e-14)

    def test_quasi_static_elastic_external_equals_internal(self, params):
        # single facet loaded through the static solver: with the reaction
        # counted as the external force, the two work tallies coincide
        mesh = build_fixture("single-facet", length=100.0, area=100.0)
        kinematic = {dof: (0.0, 0.0) for dof in range(12)}
        kinematic[6] = (0.1, 0.0)
        program = LoadProgram(mesh.n_dofs, kinematic)
        ops = SystemOperators(mesh, params, elastic_only=True)
        solver = StaticSolver(ops, program, dt=1e-3,
                              conv=ConvergenceSpec(criteria=("residual",),
                                                   tolerance=1e-12))
        led = EnergyLedger()
        q_old = solver.q.copy()
        f_int_old = solver.f_int.copy()
        f_ext_old = solver.reaction_forces.copy()
        for _ in range(40):
            solver.step()
            accumulate_work(led, f_ext_old, solver.reaction_forces,
                            f_int_old, solver.f_int, solver.q - q_old)
            q_old = solver.q.copy()
            f_int_old = solver.f_int.copy()
            f_ext_old = solver.reaction_forces.copy()
        delta = solver.q[6]
        k = params.E0 * 100.0 / 100.0
        assert led.w_int == pytest.approx(0.5 * k * delta ** 2, rel=1e-9)
        assert led.w_ext == pytest.approx(led.w_int, rel=1e-9)
        assert energy_balance_error(led) < 1e-6


class TestPerturbationWork:
    def test_jump_enters_both_sides(self):
        ledger = EnergyLedger(w_int=1.0, w_ext=3.0)
        book_perturbation(ledger, [2.0, 0.0], [4.0, 2.0], [0.5, -1.0])
        # 0.5 * ((2 + 4) * 0.5 + (0 + 2) * -1) = 0.5
        assert (ledger.w_int, ledger.w_ext) == (1.5, 3.5)

    def test_release_is_external(self):
        ledger = EnergyLedger(w_int=1.0, w_ext=3.0)
        book_release(ledger, [4.0, -2.0], [-0.5, 0.5])
        assert (ledger.w_int, ledger.w_ext) == (1.0, 1.5)

    @pytest.mark.parametrize("solver", ["static", "newmark", "hht"])
    def test_perturbed_run_keeps_its_balance(self, solver):
        # each draw's strain energy is the agent's work, given back when
        # the solver relaxes the drawn state in the next step: the balance
        # error stays at the unperturbed one (it read 0.356 % when the
        # draw's strain energy went into W_int alone)
        peak = {}
        for eta in (0.0, 1e-5):
            cfg = preset_config("unconfined-free", solver=solver)
            cfg.eta, cfg.stride = eta, 1
            rec = run(cfg, write_outputs=False)
            late = rec.times >= 0.0015     # past the start-up transient
            peak[eta] = rec.balance_err[late].max()
        assert peak[1e-5] < 1.02 * peak[0.0]


class TestSolverLedger:
    @pytest.mark.parametrize("name,kind,total_time", [
        ("dog-bone", None, 1e-4), ("unconfined-free", "genalpha", 2e-3)])
    def test_hand_driven_ledger_matches_run(self, name, kind, total_time):
        # the solver books every step and perturbation itself, so driving
        # it by hand through run()'s schedule books run()'s work
        cfg = preset_config(name, solver=kind)
        cfg.total_time, cfg.stride = total_time, 1
        cfg.eta, cfg.interval = 1e-5, total_time / 10
        rec = run(cfg, write_outputs=False)
        mesh = cfg.build_mesh()
        ops = SystemOperators(mesh, cfg.material_params(), cfg.elastic_only)
        solver, dt = build_solver(cfg, mesh, ops,
                                  resolve_constraints(mesh, cfg.constraints))
        rng = np.random.default_rng(cfg.seed)
        next_perturb = cfg.interval
        w_int, w_ext = [0.0], [0.0]
        for _ in range(len(rec.times) - 1):
            solver.step()
            if solver.t >= next_perturb - 0.5 * dt:
                solver.perturb(cfg.eta, rng)
                next_perturb += cfg.interval
            w_int.append(solver.ledger.w_int)
            w_ext.append(solver.ledger.w_ext)
        assert next_perturb > 5 * cfg.interval
        assert np.array(w_int).tobytes() == rec.w_int.tobytes()
        assert np.array(w_ext).tobytes() == rec.w_ext.tobytes()
        if kind is not None:
            # the energy criterion's scale comes from the solver's ledger
            assert solver.energy_ref == abs(rec.w_ext[-1]) + rec.w_kin[-1] \
                > 0.0

    def test_every_solver_commits_its_start(self):
        # the reactions at t = 0 are committed before the first step: on
        # unconfined-free they are the prescribed nodes' m a_p(0), and row
        # 0 is the same for every dynamic solver
        rows = set()
        for kind in ("explicit", "genalpha", "hht", "newmark"):
            cfg = preset_config("unconfined-free", solver=kind)
            cfg.total_time, cfg.stride = 2e-4, 1
            rec = run(cfg, write_outputs=False)
            rows.add(np.array([
                rec.times[0], rec.iterations[0], rec.converged[0],
                *rec.reactions[0], rec.w_kin[0], rec.w_int[0], rec.w_ext[0],
                rec.balance_err[0], rec.monitor_disp[0]]).tobytes())
            assert rec.reactions[0, 2] != 0.0
        assert len(rows) == 1

    def test_a_force_at_t0_enters_the_first_step(self):
        # a force on the driven face from t = 0 is balanced there by the
        # reactions at t = 0; when the first step's W_ext missed them, its
        # balance error read 94 %
        cfg = preset_config("dog-bone", solver="static")
        cfg.constraints = (*(c for c in cfg.constraints
                             if not c.startswith("velocity")),
                           "velocity zmax uz 1", "force zmax uz 0:5,1:5")
        cfg.total_time, cfg.stride = 2e-4, 1
        rec = run(cfg, write_outputs=False)
        assert rec.reactions[0, 2] == -125.0
        assert rec.balance_err[1] <= 1e-9

    def test_explicit_kinetic_energy_once_per_recorded_row(
            self, monkeypatch):
        calls = []
        kinetic = diagnostics.kinetic_energy

        def counted(velocity, mass):
            calls.append(1)
            return kinetic(velocity, mass)

        monkeypatch.setattr(diagnostics, "kinetic_energy", counted)
        cfg = preset_config("dog-bone")
        cfg.total_time, cfg.stride = 1e-4, 7
        cfg.eta, cfg.interval = 1e-5, 1e-5
        rec = run(cfg, write_outputs=False)
        steps = int(round(cfg.total_time / rec.dt))
        assert steps > 3 * cfg.stride
        assert len(calls) == len(rec.times) == 1 + math.ceil(steps
                                                             / cfg.stride)


class TestEnergyBalanceError:
    def test_balanced(self):
        led = EnergyLedger(w_ext=5.0, w_int=5.0, w_kin=0.0)
        assert energy_balance_error(led) == 0.0
        assert not led.flagged

    def test_arithmetic(self):
        led = EnergyLedger(w_ext=100.0, w_int=98.0, w_kin=1.0)
        assert energy_balance_error(led) == pytest.approx(1.0)

    def test_sign_insensitive(self):
        led = EnergyLedger(w_ext=100.0, w_int=103.0, w_kin=0.0)
        assert energy_balance_error(led) == pytest.approx(3.0)

    def test_early_time_floor_flags_zero(self):
        led = EnergyLedger(w_ext=1e-13, w_int=5e-14, w_kin=0.0)
        assert energy_balance_error(led) == 0.0
        assert led.flagged

    def test_flag_clears_above_floor(self):
        led = EnergyLedger(w_ext=1e-13)
        energy_balance_error(led)
        assert led.flagged
        led.w_ext = 1.0
        led.w_int = 1.0
        energy_balance_error(led)
        assert not led.flagged


class TestFftPeaks:
    def test_pure_tone(self):
        dt = 1e-4
        t = np.arange(0, 1.0, dt)
        spec = fft_peaks(np.sin(2 * np.pi * 100.0 * t), dt, n_peaks=1)
        assert len(spec.peaks) == 1
        df = spec.frequencies[1] - spec.frequencies[0]
        assert abs(spec.peaks[0][0] - 100.0) <= 0.5 * df

    def test_two_tones_ascending(self):
        dt = 1e-4
        t = np.arange(0, 1.0, dt)
        y = np.sin(2 * np.pi * 100.0 * t) + 0.5 * np.sin(2 * np.pi * 250.0 * t)
        spec = fft_peaks(y, dt, n_peaks=2)
        freqs = [f for f, _ in spec.peaks]
        assert len(freqs) == 2
        assert freqs[0] < freqs[1]
        df = spec.frequencies[1] - spec.frequencies[0]
        assert_allclose(freqs, [100.0, 250.0], atol=0.5 * df)

    def test_constant_series_no_peaks(self):
        spec = fft_peaks(np.full(64, 3.7), 1e-3)
        assert spec.peaks == []

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            fft_peaks(np.zeros(15), 1e-3)

    def test_amplitude_scaling_invariance(self):
        rng = np.random.default_rng(12)
        dt = 1e-3
        t = np.arange(0, 2.0, dt)
        y = np.sin(2 * np.pi * 31.0 * t) + 0.3 * np.sin(2 * np.pi * 77.0 * t) \
            + 0.01 * rng.standard_normal(len(t))
        f1 = [f for f, _ in fft_peaks(y, dt, n_peaks=3).peaks]
        f2 = [f for f, _ in fft_peaks(1000.0 * y, dt, n_peaks=3).peaks]
        assert_allclose(f1, f2, rtol=1e-12)

    def test_frequencies_at_most_nyquist(self):
        dt = 2e-3
        spec = fft_peaks(np.sin(np.arange(200)), dt)
        assert spec.frequencies.max() <= 0.5 / dt + 1e-12

    def test_peak_count_capped(self):
        dt = 1e-3
        t = np.arange(0, 1.0, dt)
        y = sum(np.sin(2 * np.pi * f * t) for f in (20.0, 60.0, 110.0, 180.0))
        spec = fft_peaks(y, dt, n_peaks=2)
        assert len(spec.peaks) == 2

    def test_parabolic_refinement_off_bin(self):
        # frequency deliberately between bins; refinement should land much
        # closer than the half-bin guarantee
        dt = 1e-3
        t = np.arange(0, 1.0, dt)
        f0 = 50.37
        spec = fft_peaks(np.sin(2 * np.pi * f0 * t), dt, n_peaks=1)
        assert abs(spec.peaks[0][0] - f0) < 0.15


class TestFreeVibrationConservation:
    def test_kinetic_plus_stored_constant_after_release(self, params):
        # single-DoF spring-mass rung by a short triangular force pulse;
        # once the pulse ends the total mechanical energy must hold steady
        mesh = build_fixture("single-facet", length=100.0, area=100.0)
        mass = assemble_lumped_mass(mesh)
        k = params.E0 * 100.0 / 100.0
        m = mass[6]
        period = 2.0 * np.pi * np.sqrt(m / k)
        t_off = 0.5 * period
        program = LoadProgram(
            mesh.n_dofs, {dof: (0.0, 0.0) for dof in range(12) if dof != 6},
            [(6, ((0.0, 0.0), (0.5 * t_off, 20.0), (t_off, 0.0)))])
        ops = SystemOperators(mesh, params, elastic_only=True)
        dt = 0.9 * 2.0 * np.sqrt(m / k) * 1e-2
        solver = ExplicitIntegrator(ops, program, mass, dt)
        totals = []
        while solver.t < t_off + 2.0 * period:
            solver.step()
            if solver.t > t_off:
                e = kinetic_energy(solver.v, mass) \
                    + 0.5 * k * solver.q[6] ** 2
                totals.append(e)
        totals = np.array(totals)
        assert totals[0] > 0.0
        assert np.ptp(totals) <= 0.005 * totals.mean()


@st.composite
def pulsed_prisms(draw):
    """A Newmark (gamma = 1/2, beta = 1/4) run on an elastic prism (div
    entries 1-2) fixed at its base, rung by a triangular force pulse on one
    DoF of its top-centre node, of a drawn amplitude and length, on a step
    of a drawn multiple of the critical one; the run lasts the pulse and a
    few steps of ringing.  Returns (solver, steps)."""
    div = tuple(draw(st.integers(1, 2)) for _ in range(3))
    mesh = build_block_specimen((40.0, 40.0, 80.0), div,
                                seed=draw(st.integers(0, 3)))
    params = MaterialParams()
    ops = SystemOperators(mesh, params, elastic_only=True)
    mass = assemble_lumped_mass(mesh)
    dof = draw(st.sampled_from(["ux", "uy", "uz", "rx", "ry", "rz"]))
    amplitude = draw(st.floats(1e-2, 1e2)) * draw(st.sampled_from([-1, 1]))
    fixed = resolve_constraints(mesh, ["fix zmin all"])
    dt = draw(st.floats(0.5, 45.0)) * critical_timestep(
        mesh, params, mass, fixed.prescribed, ops.B)
    pulse = draw(st.floats(2.5, 10.0)) * dt
    program = resolve_constraints(mesh, [
        "fix zmin all", f"force center-zmax {dof} "
        f"0:0,{pulse / 2!r}:{amplitude!r},{pulse!r}:0"])
    solver = GeneralizedAlphaIntegrator(ops, program, mass, newmark_params(),
                                        dt, ConvergenceSpec())
    return solver, int(pulse / dt) + draw(st.integers(2, 10))


@given(pulsed_prisms())
def test_newmark_energy_identity_on_force_driven_elastic_runs(case):
    """The trapezoidal rule books, on a linear system in equilibrium at
    every step end, the work of the external force as the stored energy
    plus the kinetic energy: W_ext = W_int + W_kin to rounding, at every
    step.  (Displacement-driven runs are left out: their prescribed DoFs
    take the load program's velocity and acceleration, not the rule's, and
    an unramped velocity starts them out of step with their work.)"""
    solver, steps = case
    ledger, gap, scale = solver.ledger, 0.0, 0.0
    for _ in range(steps):
        solver.step()
        w_kin = solver.kinetic_energy()
        gap = max(gap, abs(ledger.w_ext - ledger.w_int - w_kin))
        scale = max(scale, abs(ledger.w_ext), abs(ledger.w_int) + w_kin)
    assert scale > 0.0
    assert gap <= 1e-10 * scale, gap / scale
