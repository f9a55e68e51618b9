"""The benchmark's per-layer probe (perfbench/probe.py) patches program
names by string.  A rename in the program would silently drop a per-layer
metric, so these checks resolve every name the probe patches."""

import importlib.util
from pathlib import Path

import pytest

_PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


@pytest.fixture(scope="module")
def probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", _PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_as_patched(probe):
    patches = probe.Patches()
    try:
        missing = [f"{owner}.{attr}" for owner, attr, _ in probe.TARGETS
                   if not patches.replace(probe._resolve(owner), attr,
                                          lambda fn: fn)]
    finally:
        patches.restore()
    assert missing == []


def test_solver_classes_found(probe):
    assert probe.solver_classes()


def test_factorization_patch_point():
    import ldpm.integrators
    assert hasattr(ldpm.integrators.spla, "splu")
