"""Golden digests: every preset runs a few steps with its default solver, and
the SHA-256 of each output file, plus the specimen's mesh hash, must equal
the values stored in golden_digests.json.

The digests pin the whole pipeline (mesh build, operators, critical time
step, solver, output formatting) byte for byte, so a refactor that is meant
to leave the arithmetic alone proves it here.  They depend on the numpy and
scipy builds, so the test skips when the installed versions differ from the
recorded ones.

A digest must never be re-recorded to make a failing run pass: a change of
output is justified first (CHANGES.md), and only then re-recorded with

    PYTHONPATH=src python tests/test_golden.py --record
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


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def short_run(name: str, total_time: float, directory) -> dict:
    """Run preset `name` for `total_time` recording every step; return the
    digest of each output file and the mesh hash."""
    cfg = preset_config(name)
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


def record() -> None:
    """Write golden_digests.json from the code on the import path."""
    import tempfile

    from ldpm.assembly import critical_timestep
    from ldpm.runner import resolve_constraints

    presets = {}
    for name in PRESET_NAMES:
        cfg = preset_config(name)
        mesh = cfg.build_mesh()
        dt = cfg.dt_crit_factor * critical_timestep(
            mesh, cfg.material_params(),
            constraints=resolve_constraints(mesh, cfg.constraints))
        total_time = STEPS * dt
        with tempfile.TemporaryDirectory() as tmp:
            presets[name] = {"total_time": total_time,
                             "digests": short_run(name, total_time, tmp)}
    GOLDEN.write_text(json.dumps({"versions": versions(), "steps": STEPS,
                                  "presets": presets}, indent=2) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
