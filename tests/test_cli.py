import dataclasses

import numpy as np
import pytest

from ldpm.assembly import assemble_lumped_mass, build_strain_operator, \
    critical_timestep
from ldpm.cli import EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, main
from ldpm.config import (
    ConfigError,
    RunConfig,
    parse_config,
    parse_directive,
    write_config,
)
from ldpm import geometry
from ldpm.geometry import build_fixture, write_mesh
from ldpm.integrators import StaticSolver, genalpha_from_rho
from ldpm.material import MaterialParams
from ldpm.presets import PRESET_NAMES, preset_config
from ldpm import runner
from ldpm.runner import RunError, check_output_directory, \
    resolve_constraints, run


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def broken_single_tet(path, facets=(0, 1)):
    """A single-tet mesh file whose `facets` have their m tangent doubled
    (a frame that is not orthonormal)."""
    write_mesh(build_fixture("single-tet"), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("FACETS"))
    for k in facets:
        tok = lines[start + 1 + k].split()
        tok[10:13] = [repr(2.0 * float(v)) for v in tok[10:13]]
        lines[start + 1 + k] = " ".join(tok)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


MINIMAL = """
[mesh]
fixture = single-facet

[solver]
kind = static
dt = 0.0005
total_time = 0.005

[load]
constraints =
    fix node:0 all
    fix node:1 uy,uz,rx,ry,rz
    velocity node:1 ux 1
monitor = node:1 ux
"""


def one_genalpha_step(dt):
    """One generalized-alpha step of dt on a tet pressed from its top."""
    return f"""
[mesh]
fixture = single-tet

[solver]
kind = genalpha
dt = {dt}
total_time = {dt}

[load]
constraints =
    fix zmin all
    velocity zmax uz -5 ramp=0.001
"""


# a free DoF between a fixed and a pulled node, with one increment-checked
# iteration a step: none of the 10 static steps converges
UNCONVERGED = MINIMAL.replace(
    "fixture = single-facet", "fixture = two-particle-chain n=2").replace(
    "kind = static", "kind = static\ncriteria = increment\nmax_iter = 1"
).replace("""    fix node:1 uy,uz,rx,ry,rz
    velocity node:1 ux 1""", """    fix nodes:1,2 uy,uz,rx,ry,rz
    velocity node:2 ux 1""")


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write_text(tmp_path / "c.ini", MINIMAL))
        assert cfg.safety == 0.9
        assert cfg.max_iter == 100
        assert cfg.on_fail == "accept"
        assert cfg.criteria == ("residual", "increment", "energy")
        assert cfg.stride == 1
        assert cfg.eta == 0.0
        assert cfg.fixture == "single-facet"
        assert len(cfg.constraints) == 3

    def test_negative_dt_rejected(self, tmp_path):
        bad = MINIMAL.replace("dt = 0.0005", "dt = -1e-5")
        with pytest.raises(ConfigError):
            parse_config(write_text(tmp_path / "c.ini", bad))

    def test_genalpha_rho(self, tmp_path):
        text = MINIMAL.replace("kind = static",
                               "kind = genalpha\nrho_inf = 0.8")
        cfg = parse_config(write_text(tmp_path / "c.ini", text))
        ga = genalpha_from_rho(cfg.rho_inf)
        assert ga.alpha_m == pytest.approx(1.0 / 3.0)
        assert ga.alpha_f == pytest.approx(4.0 / 9.0)
        assert ga.gamma == pytest.approx(11.0 / 18.0)
        assert ga.beta == pytest.approx(25.0 / 81.0)

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(write_text(tmp_path / "c.ini",
                                    MINIMAL + "\n[plotting]\nstyle = x\n"))

    def test_unknown_key_rejected(self, tmp_path):
        bad = MINIMAL.replace("dt = 0.0005", "dt = 0.0005\ncolour = red")
        with pytest.raises(ConfigError, match="solver.colour"):
            parse_config(write_text(tmp_path / "c.ini", bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "absent.ini"))

    def test_material_override(self, tmp_path):
        text = MINIMAL + "\n[material]\nE0 = 30000\nelastic_only = true\n"
        cfg = parse_config(write_text(tmp_path / "c.ini", text))
        assert cfg.material == {"E0": 30000.0}
        assert cfg.elastic_only
        assert cfg.material_params().E0 == 30000.0

    def test_bad_material_key(self, tmp_path):
        text = MINIMAL + "\n[material]\nyoungs = 1\n"
        with pytest.raises(ConfigError, match="material.youngs"):
            parse_config(write_text(tmp_path / "c.ini", text))


class TestValidate:
    def test_needs_exactly_one_mesh_source(self):
        cfg = RunConfig(dt=1e-5)
        with pytest.raises(ConfigError, match="exactly one"):
            cfg.validate()
        cfg = RunConfig(dt=1e-5, fixture="single-facet",
                        specimen="prism 1x1x2 div=1x1x1")
        with pytest.raises(ConfigError, match="exactly one"):
            cfg.validate()

    def test_needs_some_timestep(self):
        cfg = RunConfig(fixture="single-facet")
        with pytest.raises(ConfigError, match="dt or dt_crit_factor"):
            cfg.validate()

    def test_unknown_solver(self):
        cfg = RunConfig(fixture="single-facet", dt=1e-5, solver="leapfrog")
        with pytest.raises(ConfigError, match="unknown solver"):
            cfg.validate()

    def test_bad_stride(self):
        cfg = RunConfig(fixture="single-facet", dt=1e-5, stride=0)
        with pytest.raises(ConfigError, match="stride"):
            cfg.validate()

    def test_bad_constraint_checked_early(self):
        cfg = RunConfig(fixture="single-facet", dt=1e-5,
                        constraints=("fix zmin",))
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("monitor", ["node:1", "node:1 ux,uy"])
    def test_malformed_monitor_refused_by_the_parser(self, monitor,
                                                     tmp_path):
        # before any mesh or operator is built
        text = MINIMAL.replace("monitor = node:1 ux", f"monitor = {monitor}")
        with pytest.raises(ConfigError, match="load.monitor"):
            parse_config(write_text(tmp_path / "c.ini", text))


class TestDirectives:
    def test_fix(self):
        d = parse_directive("fix zmin all")
        assert (d.action, d.selector, d.dofs) == ("fix", "zmin",
                                                  (0, 1, 2, 3, 4, 5))

    def test_fix_horizontal(self):
        assert parse_directive("fix lateral horizontal").dofs == (0, 1)

    def test_velocity_with_ramp(self):
        d = parse_directive("velocity zmax uz -5 ramp=0.001")
        assert d.action == "velocity"
        assert d.dofs == (2,)
        assert d.velocity == -5.0
        assert d.t_ramp == 0.001

    def test_force_history(self):
        d = parse_directive("force node:7 ux 0:0,0.01:50,0.02:0")
        assert d.history == ((0.0, 0.0), (0.01, 50.0), (0.02, 0.0))

    @pytest.mark.parametrize("line", [
        "", "spin zmax uz 1", "fix zmin", "velocity zmax uz",
        "fix zmin twist", "force node:1 ux",
    ])
    def test_malformed(self, line):
        with pytest.raises(ConfigError):
            parse_directive(line)


class TestRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_round_trips(self, name, tmp_path):
        cfg = preset_config(name)
        path = tmp_path / f"{name}.ini"
        write_config(cfg, path)
        back = parse_config(path)
        assert dataclasses.asdict(back) == dataclasses.asdict(cfg)

    @pytest.mark.parametrize("solver", ["genalpha", "hht", "static"])
    def test_solver_override_round_trips(self, solver, tmp_path):
        cfg = preset_config("dog-bone", solver=solver)
        path = tmp_path / "c.ini"
        write_config(cfg, path)
        back = parse_config(path)
        assert dataclasses.asdict(back) == dataclasses.asdict(cfg)


class TestPresets:
    def test_each_call_is_independent(self):
        # mutated the way the benchmark workloads adjust a preset
        cfg = preset_config("dog-bone")
        fresh = dataclasses.asdict(cfg)
        cfg.constraints = tuple(d.replace("uz 1 ", "uz 10 ")
                                for d in cfg.constraints)
        cfg.specimen = cfg.specimen.replace("seed=7", "seed=8")
        cfg.total_time = 0.0011
        cfg.material["E0"] = 1.0
        again = preset_config("dog-bone")
        assert again is not cfg and again.material is not cfg.material
        assert dataclasses.asdict(again) == fresh

    def test_unknown_name_lists_every_preset(self):
        with pytest.raises(ConfigError) as err:
            preset_config("tensile-coupon")
        assert all(name in str(err.value) for name in PRESET_NAMES)
        assert len(PRESET_NAMES) == 6


class TestResolveConstraints:
    def test_duplicate_merge(self):
        mesh = build_fixture("two-particle-chain", n=2)
        program = resolve_constraints(mesh, ("fix node:0 all",
                                             "fix node:0 ux"))
        assert list(program.prescribed) == list(range(6))

    def test_conflict_rejected(self):
        mesh = build_fixture("two-particle-chain", n=2)
        with pytest.raises(ConfigError, match="conflicting"):
            resolve_constraints(mesh, ("fix node:0 ux",
                                       "velocity node:0 ux 1"))


class TestRunner:
    def test_elastic_single_facet_line(self, tmp_path):
        cfg = parse_config(write_text(tmp_path / "c.ini", MINIMAL))
        cfg.directory = str(tmp_path / "out")
        rec = run(cfg)
        # reaction follows the spring line E0 A / l times the displacement
        k = 60273.0 * 100.0 / 100.0
        assert_vals = rec.reactions[1:, 0]
        np.testing.assert_allclose(assert_vals, k * rec.monitor_disp[1:],
                                   rtol=1e-9)
        for name in ("steps.csv", "monitor.csv", "crack_openings.txt",
                     "volumetric_strain.txt", "summary.txt", "config.ini"):
            assert (tmp_path / "out" / name).exists()

    def test_nominal_requires_config(self, tmp_path):
        cfg = parse_config(write_text(tmp_path / "c.ini", MINIMAL))
        cfg.directory = str(tmp_path / "out")
        rec = run(cfg, write_outputs=False)
        with pytest.raises(RunError):
            rec.nominal_stress
        with pytest.raises(RunError):
            rec.nominal_strain

    def test_energy_ref_from_the_committed_step(self, tmp_path):
        # a free DoF between a fixed and a ramped node; stride 3 leaves the
        # last recorded row one step behind the last step
        text = MINIMAL.replace("kind = static", "kind = newmark").replace(
            "fixture = single-facet", "fixture = two-particle-chain n=2")
        text = text.replace("""    fix node:1 uy,uz,rx,ry,rz
    velocity node:1 ux 1""", """    fix nodes:1,2 uy,uz,rx,ry,rz
    velocity node:2 ux 1 ramp=0.002""") + "\n[output]\nstride = 3\n"
        cfg = parse_config(write_text(tmp_path / "c.ini", text))
        rec = run(cfg, write_outputs=False)
        assert rec.w_kin[-1] != rec.w_kin[-2]
        assert rec.solver.energy_ref == abs(rec.w_ext[-1]) + rec.w_kin[-1]

    def test_summary_matches_row_flags(self, tmp_path):
        cfg = parse_config(write_text(tmp_path / "c.ini", MINIMAL))
        cfg.directory = str(tmp_path / "out")
        rec = run(cfg, write_outputs=False)
        # stride 1: every step is recorded, plus the initial (converged) row
        assert rec.n_not_converged == int((~rec.converged).sum())


class TestCliRun:
    def test_run_and_determinism(self, tmp_path, capsys):
        path = write_text(tmp_path / "c.ini", MINIMAL)
        assert main(["run", path, "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["run", path, "--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("steps.csv", "monitor.csv", "crack_openings.txt",
                     "volumetric_strain.txt", "summary.txt"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_steps_accepted_without_convergence(self, tmp_path, capsys):
        path = write_text(tmp_path / "c.ini", UNCONVERGED)
        rec = run(parse_config(path), write_outputs=False)
        assert rec.n_not_converged == int((~rec.converged).sum()) == 10
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        assert "\nsteps_not_converged: 10\n" in summary
        assert capsys.readouterr().err == \
            "warning: 10 steps accepted without convergence\n"

    def test_bad_config_exit_2(self, tmp_path, capsys):
        path = write_text(tmp_path / "c.ini",
                          MINIMAL.replace("kind = static", "kind = warp"))
        assert main(["run", path]) == EXIT_VALIDATION

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.ini")]) == EXIT_VALIDATION

    def test_divergent_run_exit_3(self, tmp_path, capsys):
        text = """
[mesh]
fixture = single-facet

[material]
elastic_only = true

[solver]
kind = explicit
dt_crit_factor = 2.5
total_time = 1.0

[load]
constraints =
    fix node:0 all
    fix node:1 uy,uz,rx,ry,rz
    force node:1 ux 0:10,1:10
"""
        path = write_text(tmp_path / "c.ini", text)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", path]) == EXIT_SOLVER

    def test_nonfinite_residual_exit_3(self, tmp_path, capsys):
        # elastic_only skips the facet law's finiteness check; a force far
        # beyond what the soft facet can carry overflows the first Newton
        # update, and the driver stops on the non-finite residual instead
        # of iterating and accepting it
        text = """
[mesh]
fixture = single-facet

[material]
E0 = 1e-6
elastic_only = true

[solver]
kind = static
dt = 0.5
total_time = 1.0

[load]
constraints =
    fix node:0 all
    fix node:1 uy,uz,rx,ry,rz
    force node:1 ux 0:1e305,1:1e305
"""
        path = write_text(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", path, "--out", str(out)]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err == "solver failure: step 0: non-finite residual\n"
        assert not out.exists()

    # only ux of node 1 is prescribed: the free stiffness block has the
    # facet's rigid-body modes and cannot be factorized.  At dt = 1e-300
    # beta dt^2 underflows to 0; at dt = 1e-160 it is subnormal, and the
    # mass term (1 - alpha_m) / (beta dt^2) overflows
    @pytest.mark.parametrize("text,message", [
        pytest.param(MINIMAL.replace(
            "    fix node:0 all\n    fix node:1 uy,uz,rx,ry,rz\n", ""),
            "singular effective matrix", id="under-constrained-static"),
        pytest.param(one_genalpha_step("1e-300"),
                     "effective matrix not finite: beta dt^2 is 0 at "
                     "dt=1e-300", id="genalpha-dt-1e-300"),
        pytest.param(one_genalpha_step("1e-160"),
                     "effective matrix not finite", id="genalpha-dt-1e-160")])
    def test_unusable_effective_matrix_exit_3(self, tmp_path, capsys, text,
                                              message):
        path = write_text(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_SOLVER
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"solver failure: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("solver,message", [
        ("kind = explicit\ndt_crit_factor = 0.5\ntotal_time = 1e-4",
         "non-finite state"),
        ("kind = static\ndt = 0.5\ntotal_time = 1.0", "non-finite residual"),
    ], ids=["explicit", "static"])
    def test_diverging_inelastic_step_exit_3(self, tmp_path, capsys, solver,
                                             message):
        # the facet law runs, behind certificates; a force far beyond what
        # the facet carries makes the first step non-finite, and the run
        # stops there
        text = f"""
[mesh]
fixture = single-facet

[solver]
{solver}

[load]
constraints =
    fix node:0 all
    fix node:1 uy,uz,rx,ry,rz
    force node:1 ux 0:1e305,1:1e305
"""
        path = write_text(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", path, "--out", str(out)]) == EXIT_SOLVER
        assert capsys.readouterr().err == \
            f"solver failure: step 0: {message}\n"
        assert not out.exists()

    def test_snap_back_exit_2_before_any_step(self, tmp_path, capsys):
        text = MINIMAL.replace("kind = static", "kind = explicit") \
            + "\n[material]\nlt = 50\n"
        path = write_text(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_VALIDATION
        assert "lt=50" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def all_prescribed(solver, step):
        text = MINIMAL.replace("kind = static", f"kind = {solver}") \
            .replace("dt = 0.0005", step) \
            .replace("fix node:0 all\n    fix node:1 uy,uz,rx,ry,rz\n"
                     "    velocity node:1 ux 1", "fix all all")
        assert "fix all all" in text and step in text
        return text

    @pytest.mark.parametrize("solver", ["explicit", "static"])
    def test_every_dof_prescribed_dt_crit_factor_exit_2(self, tmp_path,
                                                        capsys, solver):
        path = write_text(tmp_path / "c.ini",
                          self.all_prescribed(solver, "dt_crit_factor = 0.5"))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: solver.dt_crit_factor needs a free "
                              "DoF") and err.count("\n") == 1, err
        assert "set solver.dt" in err
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["explicit", "static"])
    def test_every_dof_prescribed_with_dt_runs(self, tmp_path, capsys,
                                               solver):
        path = write_text(tmp_path / "c.ini",
                          self.all_prescribed(solver, "dt = 0.0005"))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert (out / "steps.csv").exists()

    @pytest.mark.parametrize("line", [
        "Hc0_over_E0 = -0.1", "Hc1_over_E0 = -0.1", "kappa_c2 = -1",
        "kappa_c3 = 0", "mu_inf = -0.1", "mu_0 = 0.1\nmu_inf = 0.2",
        "sigma_N0 = 0", "r_s = -0.5", "rst = 0"] + [
            # non-finite values, which the comparisons of the checks let by
            f"{f.name} = {value}"
            for f in dataclasses.fields(MaterialParams)
            for value in ("nan", "inf")])
    def test_bad_material_parameter_exit_2(self, tmp_path, capsys, line):
        path = write_text(tmp_path / "c.ini",
                          MINIMAL + f"\n[material]\n{line}\n")
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: material: ") \
            and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        pytest.param(MINIMAL + "\n[material]\nelastic_only = maybe\n",
                     id="bool"),
        pytest.param(MINIMAL.replace("velocity node:1 ux 1",
                                     "velocity node:1 ux fast"),
                     id="velocity"),
        pytest.param(MINIMAL.replace("velocity node:1 ux 1",
                                     "force node:1 ux 0-1"), id="force"),
        pytest.param(MINIMAL.replace("velocity node:1 ux 1",
                                     "force node:1 ux 0.5:10,0:0,1:5"),
                     id="force-times"),
        pytest.param(MINIMAL.replace("velocity node:1 ux 1",
                                     "velocity node:1 ux 1 ramp=-0.001"),
                     id="ramp-negative"),
        pytest.param(MINIMAL.replace("velocity node:1 ux 1",
                                     "velocity node:1 ux 1 ramp=inf"),
                     id="ramp-inf"),
        pytest.param(MINIMAL.replace("velocity node:1 ux 1",
                                     "velocity node:1 ux nan"),
                     id="velocity-nan"),
        pytest.param(MINIMAL.replace("velocity node:1 ux 1",
                                     "force node:1 ux 0:0,1:inf"),
                     id="force-inf"),
        pytest.param(MINIMAL.replace("kind = static",
                                     "kind = genalpha\nrho_inf = 2"),
                     id="rho_inf"),
        pytest.param(MINIMAL.replace("kind = static",
                                     "kind = hht\nhht_alpha = 0.5"),
                     id="hht_alpha"),
        pytest.param(MINIMAL.replace("kind = static",
                                     "kind = static\ntolerance = 0"),
                     id="tolerance"),
        pytest.param(MINIMAL.replace("kind = static",
                                     "kind = static\ncriteria = bogus"),
                     id="criteria"),
        pytest.param(MINIMAL.replace("single-facet", "blob"), id="fixture"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "specimen = prism 10x10x20 div=2x2"),
                     id="div"),
        pytest.param(MINIMAL.replace("fix node:0 all", "fix node:abc all"),
                     id="node-id"),
        pytest.param(MINIMAL.replace("monitor = node:1 ux",
                                     "monitor = node:99 ux"),
                     id="node-range"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "path = {tmp}/absent.mesh"),
                     id="path"),
        pytest.param(MINIMAL + "\n[solver]\nkind = static\n",
                     id="duplicate-section"),
        pytest.param(MINIMAL.replace("kind = static",
                                     "kind = static\nmax_iter = 0"),
                     id="max_iter"),
        pytest.param(MINIMAL + "\n[perturbation]\neta = 1e-5\n"
                     "interval = -1\n", id="interval"),
        # [mesh] density is the only density setting
        pytest.param(MINIMAL + "\n[material]\ndensity = 2000\n",
                     id="material-density"),
        # nothing reads a stiffness of that name
        pytest.param(MINIMAL + "\n[material]\nk_t = 0\n", id="material-k_t"),
        pytest.param(MINIMAL.replace("total_time = 0.005",
                                     "total_time = nan"), id="total_time"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "specimen = prism 10x10x20 div=0x2x2"),
                     id="div-zero"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "specimen = prism 10x10x20 dp=nan"),
                     id="specimen-dp-nan"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "specimen = prism 10x10xinf"),
                     id="specimen-size-inf"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "fixture = single-facet d_p=nan"),
                     id="fixture-d_p-nan"),
        # the waist collapses the mid-plane's nodes onto the axis
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "specimen = dogbone 10x10x20 div=2x2x2 "
                                     "waist=0"),
                     id="degenerate-tet"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "fixture = single-facet\ndensity = 0"),
                     id="density"),
        pytest.param(MINIMAL.replace("monitor = node:1 ux", "monitor = "
                                     "node:1 ux\nnominal_area = 0\n"
                                     "gauge_length = -0.0"),
                     id="nominal-zero"),
        pytest.param(MINIMAL.replace("monitor = node:1 ux", "monitor = "
                                     "node:1 ux\nnominal_area = nan"),
                     id="nominal_area-nan"),
        pytest.param(MINIMAL.replace("monitor = node:1 ux", "monitor = "
                                     "node:1 ux\ngauge_length = inf"),
                     id="gauge_length-inf"),
        pytest.param(MINIMAL.replace("monitor = node:1 ux", "monitor = "
                                     "node:1 ux\nnominal_sign = 0.5"),
                     id="nominal_sign"),
        pytest.param(MINIMAL.replace("monitor = node:1 ux", "monitor = "
                                     "node:1 ux\nnominal_sign = nan"),
                     id="nominal_sign-nan"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "path = {tmp}/broken.mesh"),
                     id="invalid-mesh"),
        pytest.param(MINIMAL.replace("monitor = node:1 ux",
                                     "monitor = node:1"), id="monitor-token"),
        pytest.param(MINIMAL.replace("monitor = node:1 ux",
                                     "monitor = node:1 ux,uy"),
                     id="monitor-dof"),
        pytest.param(MINIMAL.replace("total_time = 0.005",
                                     "total_time = 0.0002"),
                     id="total_time-short"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "specimen = prism"), id="specimen-size"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "specimen = cone 10x10x20"),
                     id="specimen-shape"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "specimen = prism 10x10x20 div"),
                     id="specimen-option-form"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "specimen = prism 10x10x20 colour=red"),
                     id="specimen-option"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "specimen = prism 10x10x20 waist=0.5"),
                     id="prism-waist"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "specimen = dogbone 10x10x20 "
                                     "notch_depth=0.5"),
                     id="dogbone-notch_depth"),
        pytest.param(MINIMAL.replace("fixture = single-facet",
                                     "specimen = notched 10x10x20 "
                                     "waist=0.5"),
                     id="notched-waist"),
        pytest.param(MINIMAL.replace("velocity node:1 ux 1",
                                     "velocity node:1 ux 1 0.001"),
                     id="velocity-ramp-token"),
        pytest.param(MINIMAL + "\n[perturbation]\neta = -1e-5\n",
                     id="eta"),
    ])
    def test_config_mistake_exit_2(self, tmp_path, capsys, text):
        broken_single_tet(tmp_path / "broken.mesh")
        path = write_text(tmp_path / "c.ini", text.replace("{tmp}",
                                                           str(tmp_path)))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_uncreatable_output_directory_exit_2_before_any_step(
            self, tmp_path, capsys, monkeypatch):
        path = write_text(tmp_path / "c.ini", MINIMAL)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "out"

        def no_step(*args):
            raise AssertionError("a step ran before the directory check")

        monkeypatch.setattr(StaticSolver, "step", no_step)
        assert main(["run", path, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: output.directory ") \
            and err.count("\n") == 1, err
        assert blocker.read_text(encoding="utf-8") == ""

    def test_monitor_matching_no_node_exit_2_before_any_step(
            self, tmp_path, capsys, monkeypatch):
        # an empty selection would record the mean of no displacement
        path = write_text(tmp_path / "c.ini", MINIMAL.replace(
            "monitor = node:1 ux", "monitor = xmin&xmax ux"))

        def no_step(*args):
            raise AssertionError("a step ran before the monitor check")

        monkeypatch.setattr(StaticSolver, "step", no_step)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: load.monitor 'xmin&xmax " \
            "ux': the selector matches no node\n"
        assert not out.exists()

    def test_output_write_failure_exit_2(self, tmp_path, capsys,
                                         monkeypatch):
        # a directory that passes the check but cannot be written to (a
        # full disk, a file system that refuses new entries) still ends
        # in one line
        path = write_text(tmp_path / "c.ini", MINIMAL)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setattr(runner, "check_output_directory",
                            lambda directory: None)
        assert main(["run", path, "--out", str(blocker / "out")]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: output.directory ") \
            and err.count("\n") == 1, err

    def test_output_directory_check_creates_nothing(self, tmp_path):
        out = tmp_path / "a" / "b"
        check_output_directory(out)
        assert not (tmp_path / "a").exists()

    def test_inverted_tet_mid_run_exit_3(self, tmp_path, capsys):
        text = """
[mesh]
fixture = single-tet

[solver]
kind = static
dt = 1.0
total_time = 2.0

[load]
constraints =
    fix node:0 all
    fix node:1 all
    fix node:2 all
    velocity node:3 uz -1000
"""
        path = write_text(tmp_path / "c.ini", text)
        assert main(["run", path, "--out", str(tmp_path / "o")]) \
            == EXIT_SOLVER
        assert "inverted" in capsys.readouterr().err


SPRING_LOAD = ("fix node:0 all", "fix node:1 uy,uz,rx,ry,rz",
               "force node:1 ux 0:1,1:1")
SPRING = """
[mesh]
fixture = single-facet

[solver]
kind = explicit
dt = {dt!r}
total_time = {total!r}

[load]
constraints =
""" + "".join(f"    {d}\n" for d in SPRING_LOAD)


class TestExplicitSafety:
    @staticmethod
    def dt_crit():
        mesh = build_fixture("single-facet")
        return critical_timestep(
            mesh, RunConfig().material_params(), assemble_lumped_mass(mesh),
            resolve_constraints(mesh, SPRING_LOAD).prescribed,
            build_strain_operator(mesh))

    def run_with(self, tmp_path, factor):
        dt = factor * self.dt_crit()
        path = write_text(tmp_path / "c.ini",
                          SPRING.format(dt=dt, total=10 * dt))
        return main(["run", path, "--out", str(tmp_path / "o")])

    def test_above_critical_exit_2(self, tmp_path, capsys):
        assert self.run_with(tmp_path, 1.01) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "exceeds the critical explicit time step" in err
        assert not (tmp_path / "o").exists()

    def test_above_safety_warns(self, tmp_path, capsys):
        assert self.run_with(tmp_path, 0.95) == EXIT_OK
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "above safety 0.9 x critical time step" in err

    def test_below_safety_silent(self, tmp_path, capsys):
        assert self.run_with(tmp_path, 0.85) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_user_dt_far_above_critical_refused(self, tmp_path, capsys):
        assert self.run_with(tmp_path, 1e4) == EXIT_VALIDATION

    def test_safety_out_of_range_rejected(self):
        cfg = RunConfig(fixture="single-facet", dt=1e-6, total_time=1e-5,
                        safety=1.5)
        with pytest.raises(ConfigError, match="safety"):
            cfg.validate()


class TestCliFixtureValidate:
    def test_fixture_then_validate(self, tmp_path, capsys):
        out = str(tmp_path / "chain.mesh")
        assert main(["fixture", "two-particle-chain", "--n", "3",
                     "-o", out]) == EXIT_OK
        assert main(["validate", out]) == EXIT_OK
        text = capsys.readouterr().out
        assert "hash" in text

    def test_unknown_fixture_kind(self, tmp_path, capsys):
        assert main(["fixture", "moebius", "-o",
                     str(tmp_path / "x.mesh")]) == EXIT_VALIDATION

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(["validate",
                     str(tmp_path / "no.mesh")]) == EXIT_VALIDATION

    def test_validate_corrupt_file(self, tmp_path, capsys):
        path = write_text(tmp_path / "bad.mesh", "not a mesh at all\n")
        assert main(["validate", str(path)]) == EXIT_VALIDATION

    # the message follows the file's path, a line number first where the
    # mistake has one
    @pytest.mark.parametrize("data,message", [
        pytest.param(b"NODES 1\n0 0.0 0.0 0.0 1.0 \xff\n",
                     ": not UTF-8 text (invalid start byte)",
                     id="not-utf8"),
        pytest.param(b"NODES 1\n0 0.0 0.0 0.0 1.0\n", ": no facet lines",
                     id="no-facets"),
        pytest.param(b"NODES 2\n0 0 0 0 1\nFACETS 1\n",
                     ":3: section NODES short by 1 entries",
                     id="section-short-at-header"),
        pytest.param(b"NODES two\n", ":1: malformed section header "
                     "'NODES two'", id="section-header"),
        pytest.param(b"NODES 1\n0 0 0 0\n",
                     ":2: node line needs: id x y z d_p", id="node-fields"),
        pytest.param(b"NODES 1\n0 0 0 0 1\nTETS 1\n0 0 0 0\n",
                     ":4: tet line needs: id n1 n2 n3 n4", id="tet-fields"),
        pytest.param(b"NODES 1\n0 0 0 0 1\nFACETS 1\n0 0 0\n",
                     ":4: facet line needs 16 or 17 fields",
                     id="facet-fields"),
        pytest.param(b"NODES 1\n1 0 0 0 1\nFACETS 0\n",
                     ": node ids must be contiguous from 0", id="node-ids"),
        pytest.param(b"NODES 2\n0 0 0 0 1\n1 1 0 0 1\nFACETS 1\n"
                     b"0 0 5 1 0.5 0 0 1 0 0 0 1 0 0 0 1\n",
                     ":5: facet 0 references missing node (0, 5)",
                     id="facet-node"),
        # refused before make_facets divides the normal by its norm and
        # casts the index, where numpy warned ahead of the error
        pytest.param(b"NODES 2\n0 0 0 0 1\n1 1 0 0 1\nFACETS 1\n"
                     b"0 0 1 1 0.5 0 0 inf 0 0 0 1 0 0 0 1\n",
                     ":5: facet 0: non-finite true_normal",
                     id="facet-true-normal-inf"),
        pytest.param(b"NODES 2\n0 0 0 0 1\n1 1 0 0 1\nFACETS 1\n"
                     b"0 nan 1 1 0.5 0 0 1 0 0 0 1 0 0 0 1\n",
                     ":5: facet 0: non-finite node_i",
                     id="facet-node-nan"),
        # read with int(), as a node line's id; a float read cast 1.7 to 1
        pytest.param(b"NODES 2\n0 0 0 0 1\n1 1 0 0 1\nFACETS 1\n"
                     b"0 0 1.7 1 0.5 0 0 1 0 0 0 1 0 0 0 1\n",
                     ":5: bad number: invalid literal for int() with base "
                     "10: '1.7'", id="facet-node-fractional"),
        # indices beyond int64, refused before they enter an array, where
        # numpy raised OverflowError or cast them with a warning
        pytest.param(b"NODES 4\n0 0 0 0 1\n1 1 0 0 1\n2 0 1 0 1\n3 0 0 1 1\n"
                     b"TETS 1\n0 0 1 2 100000000000000000000\nFACETS 0\n",
                     ":7: tet 0 references a missing node "
                     "(100000000000000000000)", id="tet-node-beyond-int64"),
        pytest.param(b"NODES 2\n0 0 0 0 1\n1 1 0 0 1\nFACETS 1\n"
                     b"0 0 100000000000000000000 1 0.5 0 0 1 0 0 0 1 0 0 0 "
                     b"1\n",
                     ":5: facet 0 references missing node "
                     "(0, 100000000000000000000)",
                     id="facet-node-beyond-int64"),
        pytest.param(b"NODES 2\n0 0 0 0 1\n1 1 0 0 1\nFACETS 1\n"
                     b"0 0 1 1 0.5 0 0 1 0 0 0 1 0 0 0 1 "
                     b"100000000000000000000\n",
                     ":5: facet 0 parent tet 100000000000000000000 does not "
                     "exist", id="facet-parent-beyond-int64")])
    def test_unusable_mesh_file_one_line_exit_2(self, tmp_path, capsys,
                                                data, message):
        path = tmp_path / "m.mesh"
        path.write_bytes(data)
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"invalid: {path}{message}\n"
        config = write_text(tmp_path / "c.ini", MINIMAL.replace(
            "fixture = single-facet", f"path = {path}"))
        out = tmp_path / "out"
        assert main(["run", config, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {path}{message}\n"
        assert not out.exists()

    def test_validate_prints_every_violation_of_one_pass(
            self, tmp_path, capsys, monkeypatch):
        path = broken_single_tet(tmp_path / "bad.mesh")
        passes = []
        validate = geometry.validate_mesh

        def counted(mesh):
            passes.append(validate(mesh))
            return passes[-1]

        monkeypatch.setattr(geometry, "validate_mesh", counted)
        assert main(["validate", path]) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(passes) == 1
        violations = [str(v) for v in passes[0].violations]
        assert len(violations) >= 2
        assert err[0].startswith(f"invalid: {path}: invalid mesh, "
                                 f"{len(violations)} violations, first ")
        assert err[1:] == violations

    def test_invalid_mesh_one_line_on_bench(self, tmp_path, capsys):
        path = broken_single_tet(tmp_path / "bad.mesh")
        out = tmp_path / "out"
        assert main(["bench", "uniaxial-strain", "--mesh", path,
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid mesh, ") \
            and err.count("\n") == 1, err
        assert not out.exists()


class TestCliCompare:
    @staticmethod
    def dump(path, values, mesh="cafebabe12345678"):
        lines = [f"# mesh {mesh}", "# facet_id w"]
        lines += [f"{i} {v!r}" for i, v in enumerate(values)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_compare_ok(self, tmp_path, capsys):
        a = self.dump(tmp_path / "a.txt", [0.0, 0.1, 0.5, 0.9])
        b = self.dump(tmp_path / "b.txt", [0.0, 0.11, 0.49, 0.91])
        rc = main(["compare", a, b, "--reference", "a",
                   "--csv", str(tmp_path / "m.csv")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "a" in out and "b" in out
        assert (tmp_path / "m.csv").exists()

    def test_unknown_reference_exit_2(self, tmp_path, capsys):
        a = self.dump(tmp_path / "a.txt", [0.0, 0.1, 0.5])
        assert main(["compare", a, "--reference", "zz"]) == EXIT_VALIDATION

    def test_mesh_hash_mismatch_exit_2(self, tmp_path, capsys):
        a = self.dump(tmp_path / "a.txt", [0.0, 0.1, 0.5])
        b = self.dump(tmp_path / "b.txt", [0.0, 0.1, 0.5], mesh="feedface0000")
        assert main(["compare", a, b, "--reference", "a"]) == EXIT_VALIDATION


class TestCliBench:
    def test_bench_static_uniaxial(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "uniaxial-strain", "--solver", "static",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "monitor.csv").exists()
        header = (out / "monitor.csv").read_text().splitlines()[0]
        assert header == "time,displacement,nominal_strain,nominal_stress"

    def test_bench_unknown_preset(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "tensile-coupon"])

    def test_bench_has_no_scale_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "dog-bone", "--scale", "2"])
        assert exc.value.code == EXIT_VALIDATION
