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
to record it anew.
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

    from ldpm.assembly import critical_timestep
    from ldpm.runner import resolve_constraints

    dt = cfg.dt
    if dt is None:
        mesh = cfg.build_mesh()
        dt = cfg.dt_crit_factor * critical_timestep(
            mesh, cfg.material_params(),
            fixed=resolve_constraints(mesh, cfg.constraints).prescribed)
    total_time = STEPS * dt
    with tempfile.TemporaryDirectory() as tmp:
        return {"total_time": total_time,
                "digests": short_run(cfg, total_time, tmp)[0]}


def test_recorder_reproduces_a_stored_case():
    # `--record` derives the step from the critical time step on its own
    # path; it must land on a stored entry exactly
    entry = _golden()["presets"]["free-vibration"]
    assert _record_case(preset_config("free-vibration")) == entry


def record() -> None:
    """Add the cases missing from golden_digests.json, computed by the code
    on the import path; recorded entries are kept as they are."""
    data = json.loads(GOLDEN.read_text(encoding="utf-8")) \
        if GOLDEN.exists() else {"versions": versions(), "steps": STEPS}
    if data["versions"] != versions() or data["steps"] != STEPS:
        sys.exit(f"{GOLDEN.name} holds {data['versions']} at {data['steps']} "
                 f"steps; delete it to record with {versions()}")
    presets = data.setdefault("presets", {})
    for name in PRESET_NAMES:
        if name not in presets:
            presets[name] = _record_case(preset_config(name))
    implicit = data.setdefault("implicit", {})
    for name, solver in IMPLICIT:
        if f"{name}/{solver}" not in implicit:
            implicit[f"{name}/{solver}"] = _record_case(
                preset_config(name, solver=solver))
    collapse = data.setdefault("collapse", {})
    if COLLAPSE not in collapse:
        collapse[COLLAPSE] = _record_case(collapse_config())
    GOLDEN.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
