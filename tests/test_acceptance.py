"""Acceptance suite: one test per shipped criterion, each printing a single
PASS/FAIL line (run with -s to see them).  The expensive multi-solver studies
are shared through module-scoped fixtures."""

import filecmp
import shutil

import numpy as np
import pytest

from ldpm.assembly import (
    SystemOperators,
    assemble_lumped_mass,
    critical_timestep,
)
from ldpm.compare import FieldSample, compare_fields, nrmse, pearson
from ldpm.config import RunConfig, parse_config, write_config
from ldpm.diagnostics import fft_peaks
from ldpm.geometry import build_block_specimen, build_fixture
from ldpm.integrators import (
    ConvergenceSpec,
    DivergenceError,
    ExplicitIntegrator,
    GeneralizedAlphaIntegrator,
    LoadProgram,
    StaticSolver,
    genalpha_from_rho,
)
from ldpm.material import FacetStateArray, MaterialParams, facet_update, \
    sigma_bc, sigma_bs, sigma_bt
from ldpm.presets import preset_config
from ldpm.runner import run

from oracles import facet_strain, frame


def report(num: int, name: str, ok: bool) -> None:
    print(f"\n[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def params():
    return MaterialParams()


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dogbone_runs():
    """Dog-bone preset run with all three solver families (criteria 4, 8)."""
    recs = {}
    for kind in ("explicit", "genalpha", "static"):
        cfg = preset_config("dog-bone", solver=kind)
        cfg.stride = 10
        if kind == "genalpha":
            # resolve the near-peak response: ~12.5x the explicit limit
            cfg.dt_crit_factor = 11.25
        if kind == "static":
            cfg.dt = 2.5e-5
            cfg.dt_crit_factor = None
        recs[kind] = run(cfg, write_outputs=False)
    return recs


@pytest.fixture(scope="module")
def vibration_runs():
    """Free-vibration preset: explicit at 0.9 dt_crit vs generalized-alpha
    at 200 dt_crit (criterion 3)."""
    cfg = preset_config("free-vibration")
    cfg.stride = 5
    rec_e = run(cfg, write_outputs=False)
    cfg_g = preset_config("free-vibration", solver="genalpha")
    cfg_g.dt_crit_factor = 200.0
    cfg_g.stride = 1
    rec_g = run(cfg_g, write_outputs=False)
    return rec_e, rec_g


# ---------------------------------------------------------------------------
# 1. kinematic exactness
# ---------------------------------------------------------------------------

class TestCriterion1:
    def test_kinematics(self):
        mesh = build_block_specimen((40.0, 40.0, 80.0), (2, 2, 4), seed=13,
                                    jitter=0.15)
        pos = mesh.positions
        rng = np.random.default_rng(1)

        # rigid motion: translation + small rotation
        u0 = rng.standard_normal(3)
        theta = rng.standard_normal(3) * 1e-3
        q = np.zeros(mesh.n_dofs)
        for n in range(mesh.n_nodes):
            q[6 * n:6 * n + 3] = u0 + np.cross(theta, pos[n])
            q[6 * n + 3:6 * n + 6] = theta
        f = mesh.facets
        rigid_max = max(np.abs(facet_strain(q, f, k)).max()
                        for k in range(mesh.n_facets))

        # uniform strain tensor: affine displacements, zero rotations
        eps = rng.standard_normal((3, 3)) * 1e-4
        eps = 0.5 * (eps + eps.T)
        q = np.zeros(mesh.n_dofs)
        for n in range(mesh.n_nodes):
            q[6 * n:6 * n + 3] = eps @ pos[n]
        proj_max = 0.0
        for k in range(mesh.n_facets):
            e = facet_strain(q, f, k)
            want = frame(f, k).T @ (eps @ f.normal[k])
            proj_max = max(proj_max, np.abs(e - want).max())

        ok = rigid_max < 1e-12 and proj_max < 1e-12
        report(1, f"kinematic exactness (rigid {rigid_max:.2e}, "
                  f"projection {proj_max:.2e})", ok)
        assert ok


# ---------------------------------------------------------------------------
# 2. constitutive golden traces
# ---------------------------------------------------------------------------

class TestCriterion2:
    def test_traces(self, params):
        # monotonic pure tension against the closed-form envelope
        length = np.array([100.0])
        e_path = np.linspace(0.0, 4e-4, 400)[1:]
        states = FacetStateArray.virgin(1)
        err = 0.0
        for e in e_path:
            strains = np.array([[e, 0.0, 0.0]])
            t, states = facet_update(states, strains, 0.0, length, params)
            want = min(params.E0 * e,
                       float(sigma_bt(np.array([e]), np.array([np.pi / 2]),
                                      length, params)[0]))
            err = max(err, abs(t[0, 0] - want) / want)

        # compressive boundary continuity at both knots
        e_c0 = params.sigma_c0 / params.E0
        e_c1 = params.kappa_c0 * e_c0
        eps = 1e-12
        knot1 = knot2 = 0.0
        for e_d in np.linspace(0.0, 5e-3, 7):
            lo = float(sigma_bc(e_d, -eps, params))
            hi = float(sigma_bc(e_d, eps, params))
            knot1 = max(knot1, abs(lo - hi) / params.sigma_c0)
            lo = float(sigma_bc(e_d, -(e_c1 - eps), params))
            hi = float(sigma_bc(e_d, -(e_c1 + eps), params))
            knot2 = max(knot2,
                        abs(lo - hi) / abs(float(sigma_bc(e_d, -e_c1,
                                                          params))))

        shear0 = float(sigma_bs(0.0, params))
        ok = err < 1e-8 and knot1 < 1e-9 and knot2 < 1e-9 \
            and shear0 == params.rst * params.sigma_t
        report(2, f"constitutive golden traces (tension {err:.2e}, knots "
                  f"{knot1:.2e}/{knot2:.2e}, sigma_bs(0)={shear0})", ok)
        assert ok


# ---------------------------------------------------------------------------
# 3. elastic cross-solver consistency
# ---------------------------------------------------------------------------

class TestCriterion3:
    def test_free_vibration(self, vibration_runs):
        rec_e, rec_g = vibration_runs
        dt_s = rec_e.times[1] - rec_e.times[0]
        u_g = np.interp(rec_e.times, rec_g.times, rec_g.monitor_disp)

        spec_e = fft_peaks(rec_e.monitor_disp, dt_s, n_peaks=3)
        spec_g = fft_peaks(u_g, dt_s, n_peaks=3)
        f_e = max(spec_e.peaks, key=lambda p: p[1])[0]
        f_g = max(spec_g.peaks, key=lambda p: p[1])[0]
        f_err = abs(f_e - f_g) / f_e

        mask = rec_e.times <= 2.0 / f_e
        l2 = np.linalg.norm(u_g[mask] - rec_e.monitor_disp[mask]) \
            / np.linalg.norm(rec_e.monitor_disp[mask])

        ok = l2 < 0.02 and f_err < 0.01
        report(3, f"elastic cross-solver consistency (L2 {100 * l2:.2f}%, "
                  f"peak {f_e:.0f} vs {f_g:.0f} Hz, diff {100 * f_err:.3f}%)",
               ok)
        assert ok


# ---------------------------------------------------------------------------
# 4. energy discipline
# ---------------------------------------------------------------------------

class TestCriterion4:
    def test_energy(self, dogbone_runs, tmp_path):
        cfg = RunConfig(fixture="single-facet", solver="static", dt=5e-4,
                        total_time=5e-3, directory=str(tmp_path / "el"),
                        constraints=("fix node:0 all",
                                     "fix node:1 uy,uz,rx,ry,rz",
                                     "velocity node:1 ux 1"),
                        monitor="node:1 ux")
        rec_el = run(cfg, write_outputs=False)
        elastic_err = rec_el.balance_err.max()

        dogbone_err = dogbone_runs["explicit"].balance_err.max()
        ok = elastic_err < 1e-6 and dogbone_err < 2.0
        report(4, f"energy discipline (elastic {elastic_err:.2e}%, "
                  f"dog-bone {dogbone_err:.3f}%)", ok)
        assert ok


# ---------------------------------------------------------------------------
# 5. stability boundary
# ---------------------------------------------------------------------------

class TestCriterion5:
    @staticmethod
    def _system(kind, params):
        if kind == "1dof":
            mesh = build_fixture("single-facet", length=100.0, area=100.0)
            fixed = [dof for dof in range(12) if dof != 6]
            loaded = 6
        else:
            mesh = build_fixture("single-tet")
            fixed, loaded = range(6), 12
        ops = SystemOperators(mesh, params, elastic_only=True)
        program = LoadProgram(mesh.n_dofs, {dof: (0.0, 0.0) for dof in fixed},
                              [(loaded, ((0.0, 10.0), (1.0, 10.0)))])
        mass = assemble_lumped_mass(mesh)
        dt_crit = critical_timestep(mesh, params, mass, program.prescribed,
                                    ops.B)
        return ops, program, mass, dt_crit

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stability(self, params):
        results = {}
        for kind in ("1dof", "tet"):
            ops, program, mass, dt_crit = self._system(kind, params)
            solver = ExplicitIntegrator(ops, program, mass, 0.9 * dt_crit)
            early = 0.0
            peak = 0.0
            for step in range(100_000):
                solver.step()
                amp = np.abs(solver.q).max()
                peak = max(peak, amp)
                if step == 999:
                    early = peak
            stable = np.all(np.isfinite(solver.q)) and peak < 10.0 * early

            ops, program, mass, dt_crit = self._system(kind, params)
            solver = ExplicitIntegrator(ops, program, mass, 2.1 * dt_crit)
            diverged = False
            try:
                for _ in range(10_000):
                    solver.step()
            except DivergenceError:
                diverged = True
            results[kind] = (stable, diverged)
        ok = all(s and d for s, d in results.values())
        report(5, f"stability boundary (1dof {results['1dof']}, "
                  f"tet {results['tet']})", ok)
        assert ok


# ---------------------------------------------------------------------------
# 6. modified-Newton linear convergence
# ---------------------------------------------------------------------------

class TestCriterion6:
    def test_single_iteration(self, params):
        mesh = build_fixture("two-particle-chain", n=3, length=100.0,
                             area=100.0)
        fixed = [dof for dof in range(24) if dof not in (6, 12, 18)]
        ops = SystemOperators(mesh, params, elastic_only=True)
        program = LoadProgram(mesh.n_dofs, {dof: (0.0, 0.0) for dof in fixed},
                              [(18, ((0.0, 0.0), (1.0, 100.0)))])
        mass = assemble_lumped_mass(mesh)

        conv = ConvergenceSpec(criteria=("residual",), tolerance=1e-12)
        ga = GeneralizedAlphaIntegrator(
            ops, program, mass, genalpha_from_rho(0.8), 1e-4, conv)
        ga_ok = True
        for _ in range(10):
            rep = ga.step()
            f_ext = program.external_force(ga.t)
            res = rep.criteria["residual"]
            ga_ok &= rep.converged and rep.iterations == 1 and res < 1e-10

        st = StaticSolver(ops, program, dt=1e-4, conv=conv)
        st_ok = True
        for _ in range(10):
            rep = st.step()
            f_ext = program.external_force(st.t)
            r = np.linalg.norm((st.f_int - f_ext)[program.free])
            st_ok &= rep.converged and rep.iterations == 1 \
                and r < 1e-10 * np.linalg.norm(f_ext)

        ok = ga_ok and st_ok
        report(6, f"modified-Newton linear convergence (genalpha {ga_ok}, "
                  f"static {st_ok})", ok)
        assert ok


# ---------------------------------------------------------------------------
# 7. comparison metrics oracle
# ---------------------------------------------------------------------------

class TestCriterion7:
    def test_oracle(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for trial in range(5):
            n = 60
            base = np.abs(rng.standard_normal(n))
            runs = [FieldSample(f"r{i}", base + 0.3 * rng.standard_normal(n)
                                + (6.0 if trial == 0 and i == 1 else 0.0)
                                * (rng.random(n) > 0.9))
                    for i in range(3)]
            matrix = compare_fields(runs, "r0", cap=4.0)
            capped = {s.label: np.minimum(s.values, 4.0) for s in runs}
            norm = capped["r0"].max()
            for i, a in enumerate(matrix.labels):
                for j in range(i + 1, len(matrix.labels)):
                    x, y = capped[a], capped[matrix.labels[j]]
                    corr = np.corrcoef(x, y)[0, 1]
                    rms = 100.0 * np.sqrt(np.mean((x - y) ** 2)) / norm
                    worst = max(worst,
                                abs(matrix.correlation[j, i] - corr),
                                abs(matrix.error[i, j] - rms))
            # bare metrics against explicit formulas
            a, b = runs[0].values, runs[1].values
            corr = float(np.sum((a - a.mean()) * (b - b.mean()))
                         / np.sqrt(np.sum((a - a.mean()) ** 2)
                                   * np.sum((b - b.mean()) ** 2)))
            worst = max(worst, abs(pearson(runs[0], runs[1]) - corr))
            worst = max(worst, abs(
                nrmse(runs[0], runs[1], a.max())
                - 100.0 * np.sqrt(np.mean((a - b) ** 2)) / a.max()))
        ok = worst < 1e-12
        report(7, f"comparison metrics oracle (max deviation {worst:.2e})",
               ok)
        assert ok


# ---------------------------------------------------------------------------
# 8. softening consistency across solvers
# ---------------------------------------------------------------------------

class TestCriterion8:
    def test_dog_bone_trio(self, dogbone_runs):
        peaks = {k: r.nominal_stress.max() for k, r in dogbone_runs.items()}
        spread = (max(peaks.values()) - min(peaks.values())) \
            / max(peaks.values())

        fields = [FieldSample(k, r.crack_field[:, 3],
                              r.mesh.mesh_hash())
                  for k, r in dogbone_runs.items()]
        matrix = compare_fields(fields, "explicit", cap=4.0)
        acceptable = {"practically identical", "minor"}
        n = len(matrix.labels)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pair_ok = all(matrix.corr_class[j][i] in acceptable
                      and matrix.error_class[i][j] in acceptable
                      for i, j in pairs)
        worst_corr = min(matrix.correlation[j, i] for i, j in pairs)
        worst_nrmse = max(matrix.error[i, j] for i, j in pairs)

        ok = spread < 0.03 and pair_ok
        report(8, f"softening consistency (peak spread {100 * spread:.2f}%, "
                  f"worst corr {worst_corr:.3f}, "
                  f"worst NRMSE {worst_nrmse:.2f}%)", ok)
        assert ok


# ---------------------------------------------------------------------------
# 9. perturbation stability
# ---------------------------------------------------------------------------

class TestCriterion9:
    def test_perturbation(self):
        # generalized-alpha keeps the inertia but damps the snap transients;
        # the undamped explicit solver shifts individual snap times under
        # perturbation, which is a timing effect, not a path change
        recs = {}
        for eta in (0.0, 1e-5):
            cfg = preset_config("unconfined-free", solver="genalpha")
            cfg.eta = eta
            cfg.stride = 2
            recs[eta] = run(cfg, write_outputs=False)
        s0 = recs[0.0].nominal_stress
        s1 = recs[1e-5].nominal_stress
        i_peak = int(np.argmax(s0))
        diff = np.abs(s0[:i_peak + 1] - s1[:i_peak + 1]).max() / s0.max()
        ok = diff < 0.01
        report(9, f"perturbation stability (pre-peak deviation "
                  f"{100 * diff:.3f}%)", ok)
        assert ok


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

class TestCriterion10:
    def test_byte_identical(self, tmp_path):
        cfg = RunConfig(fixture="two-particle-chain n=2", solver="static",
                        dt=5e-4, total_time=5e-3,
                        directory=str(tmp_path / "run"),
                        constraints=("fix node:0 all",
                                     "fix node:1 uy,uz,rx,ry,rz",
                                     "fix node:2 uy,uz,rx,ry,rz",
                                     "velocity node:2 ux 2"),
                        monitor="node:2 ux", eta=1e-5, interval=1e-3, seed=4)
        path = tmp_path / "cfg.ini"
        write_config(cfg.validate(), path)

        rec1 = run(parse_config(path), write_outputs=True)
        first = tmp_path / "first"
        shutil.copytree(rec1.output_dir, first)
        rec2 = run(parse_config(path), write_outputs=True)

        names = sorted(p.name for p in rec2.output_dir.iterdir())
        same = all(filecmp.cmp(first / n, rec2.output_dir / n, shallow=False)
                   for n in names)
        ok = same and names == sorted(p.name for p in first.iterdir())
        report(10, f"determinism ({len(names)} files byte-identical: {same})",
               ok)
        assert ok
