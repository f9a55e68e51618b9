"""The benchmark's per-layer probe (perfbench/probe.py) patches program
names by string.  A rename in the program would silently drop a per-layer
metric, so these checks resolve every name the probe patches and check
that short runs call each one."""

import functools
import importlib.util
from pathlib import Path

import pytest

_PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"

# targets the runs below need not reach, with the reason
UNREACHED = {
    "ldpm.assembly.assemble_lumped_mass":
        "nothing calls it through ldpm.assembly: runner imports it by name",
}


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


# targets that every run below calls while it steps, whatever its solver
# and law mode
STEPPING = (
    "ldpm.integrators.internal_forces",
    "ldpm.integrators:LoadProgram.displacement",
    "ldpm.integrators:LoadProgram.external_force",
    "ldpm.integrators:_SolverBase.reaction_sum",
    "ldpm.diagnostics.accumulate_work",
    "ldpm.diagnostics.energy_balance_error",
)


def test_every_target_is_reached(probe, tmp_path):
    """A target that resolves but that the program never calls reads 0 in
    its per-layer metrics.  Three short runs that write their outputs, the
    explicit dog-bone, the elastic explicit free vibration and the static
    pore-collapse case, reach every target but the allow-listed ones, and
    each of them reaches the `STEPPING` targets itself."""
    from ldpm.presets import preset_config
    from ldpm.runner import run

    calls = {}
    current = []

    def counter(key):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[current[-1], key] = calls.get((current[-1], key), 0) + 1
                return fn(*args, **kwargs)
            return counted
        return make

    dogbone = preset_config("dog-bone")
    dogbone.total_time *= 0.02
    vibration = preset_config("free-vibration")
    vibration.total_time *= 1e-3
    collapse = preset_config("uniaxial-strain", solver="static")
    collapse.dt, collapse.dt_crit_factor = 3e-3, None
    collapse.total_time = 0.03
    runs = (("dog-bone", dogbone), ("free-vibration", vibration),
            ("collapse", collapse))
    patches = probe.Patches()
    try:
        for owner, attr, _ in probe.TARGETS:
            patches.replace(probe._resolve(owner), attr,
                            counter(f"{owner}.{attr}"))
        for name, cfg in runs:
            current.append(name)
            cfg.directory = str(tmp_path / name)
            run(cfg)
    finally:
        patches.restore()
    reached = {key for _, key in calls}
    assert sorted(f"{owner}.{attr}" for owner, attr, _ in probe.TARGETS
                  if f"{owner}.{attr}" not in reached) == sorted(UNREACHED)
    for name, _ in runs:
        assert [key for key in STEPPING if (name, key) not in calls] == [], \
            name
