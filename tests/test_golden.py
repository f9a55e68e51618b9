"""Golden digests: every preset runs a few steps with its default solver, and
the SHA-256 of each output file, plus the specimen's mesh hash, must equal
the values stored in golden_digests.json.  The implicit cases run a preset
with another solver (static, Newmark, HHT, generalized-alpha) for the same
number of their own, larger steps.  The pore-collapse case compresses the
confined prism under static steps long enough for facets to cross the
compressive boundary, which no preset reaches in its first steps.

The digests pin the whole pipeline (mesh build, operators, critical time
step, solver, output formatting) byte for byte, so a refactor that is meant
to leave the arithmetic alone proves it here.  They depend on the numpy and
scipy builds, so the test skips when the installed versions differ from the
recorded ones.

A digest must never be re-recorded to make a failing run pass: a change of
output is justified first (CHANGES.md), and only then re-recorded with

    PYTHONPATH=src python tests/test_golden.py --record

which records every case that has no entry in the file yet; delete an entry
to record it anew.  To justify a change of output, run the stored cases
on both versions and compare the dumps:

    PYTHONPATH=src python tests/test_golden.py --dump DIR
    PYTHONPATH=src python tests/test_golden.py --deviation DIR_A DIR_B

--dump writes each case's five output files under DIR/<case>/; --deviation
prints, per case and file, the largest deviation of a numeric field from
A to B relative to the field's largest magnitude in A (and names any text
field that differs).
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from ldpm.presets import PRESET_NAMES, preset_config
from ldpm.runner import run

GOLDEN = Path(__file__).with_name("golden_digests.json")
FILES = ("steps.csv", "monitor.csv", "crack_openings.txt",
         "volumetric_strain.txt", "summary.txt")
STEPS = 20
# (preset, solver) pairs pinned besides the presets' default solvers
IMPLICIT = (("unconfined-free", "static"), ("unconfined-free", "newmark"),
            ("unconfined-free", "hht"), ("unconfined-free", "genalpha"),
            ("dog-bone", "static"))
COLLAPSE = "uniaxial-strain/static-collapse"


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def collapse_config():
    """The confined prism under static steps of 3 ms: in 20 steps it is
    compressed to a nominal strain of 0.37 %, and facets reach the
    pore-collapse boundary (e_n_res != 0), slip and soften."""
    cfg = preset_config("uniaxial-strain", solver="static")
    cfg.dt, cfg.dt_crit_factor = 3e-3, None
    return cfg


def short_run(cfg, total_time: float, directory):
    """Run `cfg` for `total_time` recording every step; return the digest
    of each output file and the mesh hash, and the run record."""
    cfg.total_time = total_time
    cfg.stride = 1
    cfg.directory = str(directory)
    rec = run(cfg)
    out = {f: hashlib.sha256((rec.output_dir / f).read_bytes()).hexdigest()
           for f in FILES}
    out["mesh_hash"] = rec.mesh.mesh_hash()
    return out, rec


def _golden() -> dict:
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if data["versions"] != versions():
        pytest.skip(f"digests recorded with {data['versions']}, "
                    f"installed {versions()}")
    return data


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_outputs_match_golden(name, tmp_path):
    entry = _golden()["presets"][name]
    got, _ = short_run(preset_config(name), entry["total_time"], tmp_path)
    assert got == entry["digests"]


@pytest.mark.parametrize("name,solver", IMPLICIT,
                         ids=[f"{n}/{s}" for n, s in IMPLICIT])
def test_implicit_outputs_match_golden(name, solver, tmp_path):
    entry = _golden()["implicit"][f"{name}/{solver}"]
    got, _ = short_run(preset_config(name, solver=solver),
                       entry["total_time"], tmp_path)
    assert got == entry["digests"]


def test_pore_collapse_outputs_match_golden(tmp_path):
    entry = _golden()["collapse"][COLLAPSE]
    got, rec = short_run(collapse_config(), entry["total_time"], tmp_path)
    assert np.any(rec.solver.states.e_n_res != 0.0)
    assert got == entry["digests"]


def _record_case(cfg) -> dict:
    import tempfile

    from ldpm.assembly import assemble_lumped_mass, \
        build_strain_operator, critical_timestep
    from ldpm.runner import resolve_constraints

    dt = cfg.dt
    if dt is None:
        mesh = cfg.build_mesh()
        dt = cfg.dt_crit_factor * critical_timestep(
            mesh, cfg.material_params(), assemble_lumped_mass(mesh),
            resolve_constraints(mesh, cfg.constraints).prescribed,
            build_strain_operator(mesh))
    total_time = STEPS * dt
    with tempfile.TemporaryDirectory() as tmp:
        return {"total_time": total_time,
                "digests": short_run(cfg, total_time, tmp)[0]}


def test_recorder_reproduces_a_stored_case():
    # `--record` derives the step from the critical time step on its own
    # path; it must land on a stored entry exactly
    entry = _golden()["presets"]["free-vibration"]
    assert _record_case(preset_config("free-vibration")) == entry


def per_value_text(rec) -> dict:
    """The four tabular files of `rec`, written one value at a time through
    `runner._r`."""
    from ldpm.runner import _r
    steps = ["time,iterations,converged,reaction_x,reaction_y,reaction_z,"
             "W_kin,W_int,W_ext,balance_err_pct\n"]
    for i in range(len(rec.times)):
        r = rec.reactions[i]
        steps.append(f"{_r(rec.times[i])},{rec.iterations[i]},"
                     f"{int(rec.converged[i])},{_r(r[0])},{_r(r[1])},"
                     f"{_r(r[2])},{_r(rec.w_kin[i])},{_r(rec.w_int[i])},"
                     f"{_r(rec.w_ext[i])},{_r(rec.balance_err[i])}\n")
    stress, strain = rec.nominal_stress, rec.nominal_strain
    monitor = ["time,displacement,nominal_strain,nominal_stress\n"] + [
        f"{_r(rec.times[i])},{_r(rec.monitor_disp[i])},{_r(strain[i])},"
        f"{_r(stress[i])}\n" for i in range(len(rec.times))]
    head = f"# mesh {rec.mesh.mesh_hash()}\n"
    cracks = [head, "# facet_id w_N w_M w_L w\n"] + [
        f"{k} {_r(w[0])} {_r(w[1])} {_r(w[2])} {_r(w[3])}\n"
        for k, w in enumerate(rec.crack_field)]
    volumetric = [head, "# tet_id e_V\n"] + [
        f"{t} {_r(e)}\n" for t, e in enumerate(rec.volumetric)]
    return {"steps.csv": steps, "monitor.csv": monitor,
            "crack_openings.txt": cracks,
            "volumetric_strain.txt": volumetric}


def test_writer_text_is_that_of_r(tmp_path):
    """The output writer forms its rows from whole columns; every value is
    still the text `_r` gives it, NaN, -0.0, 1e-300, subnormals and
    infinities included."""
    from ldpm.geometry import build_block_specimen
    from ldpm.runner import RunRecord, write_run_outputs
    cfg = preset_config("uniaxial-strain")
    cfg.directory = str(tmp_path)
    mesh = build_block_specimen((40.0, 40.0, 40.0), (1, 1, 1), seed=2)
    # more rows than one block of the writer
    odd = np.resize([np.nan, -0.0, 1e-300, 5e-324, np.inf, -np.inf, 0.1,
                     -2.5e17, 1.0, 1.0 / 3.0, 0.0], 2500)
    n = len(odd)
    rec = RunRecord(
        config=cfg, mesh=mesh, dt=1e-4, n_steps=n, times=odd,
        iterations=np.arange(n) * 7, converged=np.arange(n) % 3 == 0,
        reactions=np.column_stack([np.roll(odd, k) for k in (1, 2, 3)]),
        w_kin=np.roll(odd, 4), w_int=np.roll(odd, 5), w_ext=np.roll(odd, 6),
        balance_err=np.roll(odd, 7), monitor_disp=np.roll(odd, 8),
        crack_field=np.resize(odd, (mesh.n_facets, 4)),
        volumetric=np.resize(odd[::-1], len(mesh.tets)))
    write_run_outputs(rec)
    for name, lines in per_value_text(rec).items():
        assert (tmp_path / name).read_text(encoding="utf-8") \
            == "".join(lines), name
    assert "-0.0" in (tmp_path / "steps.csv").read_text(encoding="utf-8")


def test_deviation_report(tmp_path, capsys):
    # two dumps of one case, the second with W_int of its last row
    # scaled by 1 + 1e-9 and its mesh hash changed
    total_time = _golden()["presets"]["free-vibration"]["total_time"]
    for side in "ab":
        short_run(preset_config("free-vibration"), total_time,
                  tmp_path / side / "free-vibration")
    out = tmp_path / "b" / "free-vibration"
    lines = (out / "steps.csv").read_text(encoding="utf-8").splitlines()
    row = lines[-1].split(",")
    w_int = float(row[7])
    row[7] = repr(w_int * (1.0 + 1e-9))
    lines[-1] = ",".join(row)
    (out / "steps.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = (out / "summary.txt").read_text(encoding="utf-8")
    (out / "summary.txt").write_text(text.replace("mesh_hash: ",
                                                  "mesh_hash: x"),
                                     encoding="utf-8")
    deviation(tmp_path / "a", tmp_path / "b")
    report = dict((line.split()[1], line) for line in
                  capsys.readouterr().out.splitlines())
    assert sorted(report) == sorted(FILES)
    steps = _fields(tmp_path / "a" / "free-vibration" / "steps.csv")
    dev = float(report["steps.csv"].split()[2])
    assert dev == pytest.approx(1e-9 * w_int / steps["W_int"].max(),
                                rel=0.05)
    assert "(W_int," in report["steps.csv"]
    assert report["summary.txt"].endswith("text differs: mesh_hash")
    assert float(report["monitor.csv"].split()[2]) == 0.0


def _cases():
    """(group, name, config) of every golden case, in recording order."""
    for name in PRESET_NAMES:
        yield "presets", name, preset_config(name)
    for name, solver in IMPLICIT:
        yield "implicit", f"{name}/{solver}", \
            preset_config(name, solver=solver)
    yield "collapse", COLLAPSE, collapse_config()


def record() -> None:
    """Add the cases missing from golden_digests.json, computed by the code
    on the import path; recorded entries are kept as they are."""
    data = json.loads(GOLDEN.read_text(encoding="utf-8")) \
        if GOLDEN.exists() else {"versions": versions(), "steps": STEPS}
    if data["versions"] != versions() or data["steps"] != STEPS:
        sys.exit(f"{GOLDEN.name} holds {data['versions']} at {data['steps']} "
                 f"steps; delete it to record with {versions()}")
    for group, name, cfg in _cases():
        entries = data.setdefault(group, {})
        if name not in entries:
            entries[name] = _record_case(cfg)
    GOLDEN.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def dump(directory) -> None:
    """Run every stored case for its stored time and write its output
    files under directory/<case>/."""
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for group, name, cfg in _cases():
        short_run(cfg, data[group][name]["total_time"], Path(directory) / name)


def _fields(path: Path) -> dict:
    """The fields of an output file by name: a float array per numeric
    column (or summary key), a list of strings otherwise."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.suffix == ".csv":
        names, *rows = [line.split(",") for line in lines]
    elif path.name == "summary.txt":
        pairs = [line.split(": ", 1) for line in lines]
        names, rows = [k for k, _ in pairs], [[v for _, v in pairs]]
    else:   # a "# mesh <hash>" line, a "# <names>" line, then the rows
        names = ["mesh"] + lines[1].lstrip("# ").split()
        rows = [[lines[0].split()[-1]] + line.split() for line in lines[2:]]
    fields = {}
    for i, name in enumerate(names):
        column = [row[i] for row in rows]
        try:
            fields[name] = np.array(column, float)
        except ValueError:
            fields[name] = column
    return fields


def deviation(a, b) -> None:
    """Print, per case and output file, the largest deviation of a numeric
    field from dump a to dump b, relative to the field's largest magnitude
    in a, and the text fields that differ."""
    for case in sorted(p.parent.relative_to(a)
                       for p in Path(a).rglob(FILES[0])):
        for f in FILES:
            fa = _fields(Path(a) / case / f)
            fb = _fields(Path(b) / case / f)
            worst, where, text = 0.0, "-", []
            for key, x in fa.items():
                y = fb[key]
                if isinstance(x, list) or isinstance(y, list) \
                        or len(x) != len(y):
                    if list(x) != list(y):
                        text.append(key)
                    continue
                scale = np.abs(x).max(initial=0.0)
                dev = np.abs(x - y).max(initial=0.0) / scale if scale \
                    else float(np.any(x != y))
                if dev > worst:
                    worst, where = dev, f"{key}, largest |value| {scale:.3g}"
            print(f"{str(case):32s} {f:22s} {worst:9.2g} ({where})"
                  + (f"; text differs: {', '.join(text)}" if text else ""))


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--record"]:
        record()
    elif len(args) == 2 and args[0] == "--dump":
        dump(args[1])
    elif len(args) == 3 and args[0] == "--deviation":
        deviation(args[1], args[2])
    else:
        sys.exit(__doc__)
