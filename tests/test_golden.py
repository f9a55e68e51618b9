"""Golden digests: every preset runs a few steps with its default solver, and
the SHA-256 of each output file, plus the specimen's mesh hash, must equal
the values stored in golden_digests.json.  The implicit cases run a preset
with another solver (static, Newmark, HHT, generalized-alpha) for the same
number of their own, larger steps.

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


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def short_run(name: str, total_time: float, directory,
              solver: str | None = None) -> dict:
    """Run preset `name` (with `solver`, if given) for `total_time`
    recording every step; return the digest of each output file and the
    mesh hash."""
    cfg = preset_config(name, solver=solver)
    cfg.total_time = total_time
    cfg.stride = 1
    cfg.directory = str(directory)
    rec = run(cfg)
    out = {f: hashlib.sha256((rec.output_dir / f).read_bytes()).hexdigest()
           for f in FILES}
    out["mesh_hash"] = rec.mesh.mesh_hash()
    return out


def _golden() -> dict:
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if data["versions"] != versions():
        pytest.skip(f"digests recorded with {data['versions']}, "
                    f"installed {versions()}")
    return data


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_outputs_match_golden(name, tmp_path):
    entry = _golden()["presets"][name]
    got = short_run(name, entry["total_time"], tmp_path)
    assert got == entry["digests"]


@pytest.mark.parametrize("name,solver", IMPLICIT,
                         ids=[f"{n}/{s}" for n, s in IMPLICIT])
def test_implicit_outputs_match_golden(name, solver, tmp_path):
    entry = _golden()["implicit"][f"{name}/{solver}"]
    got = short_run(name, entry["total_time"], tmp_path, solver)
    assert got == entry["digests"]


def _record_case(name: str, solver: str | None) -> dict:
    import tempfile

    from ldpm.assembly import critical_timestep
    from ldpm.runner import resolve_constraints

    cfg = preset_config(name, solver=solver)
    mesh = cfg.build_mesh()
    dt = cfg.dt_crit_factor * critical_timestep(
        mesh, cfg.material_params(),
        constraints=resolve_constraints(mesh, cfg.constraints))
    total_time = STEPS * dt
    with tempfile.TemporaryDirectory() as tmp:
        return {"total_time": total_time,
                "digests": short_run(name, total_time, tmp, solver)}


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
            presets[name] = _record_case(name, None)
    implicit = data.setdefault("implicit", {})
    for name, solver in IMPLICIT:
        if f"{name}/{solver}" not in implicit:
            implicit[f"{name}/{solver}"] = _record_case(name, solver)
    GOLDEN.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
