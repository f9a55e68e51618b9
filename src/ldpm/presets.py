"""Benchmark presets: ready-made RunConfigs at desk scale.

Each preset is a miniature of a standard concrete test: free vibration of a
cantilevered prism (elastic), confined uniaxial compression, a waisted
tension specimen, a notched beam in three-point bending, and unconfined
compression with fixed or frictionless platens.  `scale` multiplies the
specimen dimensions; velocities and durations stay fixed, so the imposed
nominal strain changes with scale.
"""

from __future__ import annotations

from .config import ConfigError, RunConfig

PRESET_NAMES = ("free-vibration", "uniaxial-strain", "dog-bone",
                "notched-bend", "unconfined-fixed", "unconfined-free")


def _fmt(v: float) -> str:
    return repr(float(v))


def preset_config(name: str, scale: float = 1.0,
                  solver: str | None = None) -> RunConfig:
    """Build the RunConfig for a named benchmark.  `solver` overrides the
    preset default solver kind."""
    if scale <= 0:
        raise ConfigError("scale must be positive")
    builders = {
        "free-vibration": _free_vibration,
        "uniaxial-strain": _uniaxial_strain,
        "dog-bone": _dog_bone,
        "notched-bend": _notched_bend,
        "unconfined-fixed": _unconfined_fixed,
        "unconfined-free": _unconfined_free,
    }
    if name not in builders:
        raise ConfigError(f"unknown preset {name!r}; "
                          f"choose from {', '.join(PRESET_NAMES)}")
    cfg = builders[name](scale)
    cfg.directory = f"out-{name}"
    if solver is not None:
        cfg.solver = solver
        if solver != "explicit" and cfg.dt_crit_factor is not None:
            # implicit solvers take much larger steps than the explicit limit
            cfg.dt_crit_factor *= 50.0
    return cfg.validate()


def _free_vibration(scale: float) -> RunConfig:
    """Clamped-base prism, a short transverse force pulse at a top corner,
    then free elastic ringing; used for spectrum checks."""
    lx, ly, lz = 40.0 * scale, 40.0 * scale, 120.0 * scale
    cfg = RunConfig()
    # small particle diameter: the rotational modes then set the stability
    # limit far above the structural frequencies, giving implicit solvers
    # headroom for steps of hundreds of explicit limits
    cfg.specimen = f"prism {_fmt(lx)}x{_fmt(ly)}x{_fmt(lz)} div=2x2x4 " \
                   f"seed=11 jitter=0.1 dp={_fmt(0.25 * scale)}"
    cfg.elastic_only = True
    cfg.solver = "explicit"
    cfg.dt_crit_factor = 0.9
    cfg.total_time = 0.0044
    # triangular force pulse about half the fundamental period long, so the
    # ringing is dominated by the first mode
    cfg.constraints = (
        "fix zmin all",
        "force node:2 ux 0:0,0.00014:50,0.00028:0",
    )
    cfg.monitor = "node:2 ux"
    cfg.stride = 20
    return cfg


def _uniaxial_strain(scale: float) -> RunConfig:
    """Laterally confined compression: every lateral-surface node is held in
    x and y, the top face is driven downward."""
    lx = 40.0 * scale
    lz = 80.0 * scale
    cfg = RunConfig()
    cfg.specimen = f"prism {_fmt(lx)}x{_fmt(lx)}x{_fmt(lz)} div=2x2x4 seed=3"
    cfg.solver = "explicit"
    cfg.dt_crit_factor = 0.9
    cfg.total_time = 0.02
    cfg.constraints = (
        "fix lateral horizontal",
        "fix zmin uz,rx,ry",
        "fix zmax rx,ry",
        "velocity zmax uz -5 ramp=0.001",
    )
    cfg.monitor = "zmax uz"
    cfg.nominal_area = lx * lx
    cfg.gauge_length = lz
    cfg.nominal_sign = -1.0
    cfg.stride = 20
    return cfg


def _dog_bone(scale: float) -> RunConfig:
    """Waisted tension specimen pulled from the top face; fracture localizes
    in the reduced section."""
    b = 30.0 * scale
    lz = 90.0 * scale
    cfg = RunConfig()
    cfg.specimen = f"dogbone {_fmt(b)}x{_fmt(b)}x{_fmt(lz)} div=4x4x8 " \
                   f"seed=7 waist=0.72 dp={_fmt(6.0 * scale)}"
    cfg.solver = "explicit"
    cfg.dt_crit_factor = 0.9
    # terminal time reaches the peak load and the onset of softening; the
    # post-localization crack placement is genuinely sensitive to solver
    # dynamics, so cross-solver field comparisons target this state
    cfg.total_time = 0.011
    cfg.constraints = (
        "fix zmin all",
        "fix zmax ux,uy,rx,ry,rz",
        "velocity zmax uz 1 ramp=0.001",
    )
    cfg.monitor = "zmax uz"
    cfg.nominal_area = (0.72 * b) ** 2
    cfg.gauge_length = lz
    cfg.nominal_sign = 1.0
    cfg.stride = 20
    return cfg


def _notched_bend(scale: float) -> RunConfig:
    """Three-point bending of a beam with a bottom-center notch, fully
    discrete: span along x, depth along z, the notch rising from the bottom
    at midspan; simple supports at the bottom corners, midspan top node
    driven downward."""
    span = 120.0 * scale
    depth = 30.0 * scale
    width = 30.0 * scale
    cfg = RunConfig()
    cfg.specimen = f"notched {_fmt(span)}x{_fmt(width)}x{_fmt(depth)} " \
                   f"div=8x2x2 seed=5 notch_depth=0.45 " \
                   f"notch_width={_fmt(span / 16.0)}"
    cfg.solver = "explicit"
    cfg.dt_crit_factor = 0.9
    cfg.total_time = 0.01
    cfg.constraints = (
        "fix xmin&zmin uy,uz",
        "fix xmax&zmin uy,uz",
        "fix center-zmax ux,uy",
        "velocity center-zmax uz -15 ramp=0.002",
    )
    cfg.monitor = "center-zmax uz"
    cfg.stride = 20
    return cfg


def _unconfined_fixed(scale: float) -> RunConfig:
    """Unconfined compression with fully bonded platens: the end faces are
    held laterally, producing barrel-type confinement near the platens."""
    lx = 40.0 * scale
    lz = 80.0 * scale
    cfg = RunConfig()
    cfg.specimen = f"prism {_fmt(lx)}x{_fmt(lx)}x{_fmt(lz)} div=2x2x4 seed=9"
    cfg.solver = "explicit"
    cfg.dt_crit_factor = 0.9
    cfg.total_time = 0.02
    cfg.constraints = (
        "fix zmin all",
        "fix zmax ux,uy,rx,ry,rz",
        "velocity zmax uz -5 ramp=0.002",
    )
    cfg.monitor = "zmax uz"
    cfg.nominal_area = lx * lx
    cfg.gauge_length = lz
    cfg.nominal_sign = -1.0
    cfg.stride = 20
    return cfg


def _unconfined_free(scale: float) -> RunConfig:
    """Unconfined compression with frictionless platens: end faces slide
    laterally, only the axial motion is driven; rigid-body drift is removed
    by pinning the central node of each end face."""
    lx = 40.0 * scale
    lz = 80.0 * scale
    cfg = RunConfig()
    cfg.specimen = f"prism {_fmt(lx)}x{_fmt(lx)}x{_fmt(lz)} div=2x2x4 seed=9"
    cfg.solver = "explicit"
    cfg.dt_crit_factor = 0.9
    cfg.total_time = 0.02
    cfg.constraints = (
        "fix zmin uz,rx,ry",
        "fix zmax rx,ry",
        "fix center-zmin ux,uy,rz",
        "fix center-zmax ux,uy,rz",
        "velocity zmax uz -5 ramp=0.002",
    )
    cfg.monitor = "zmax uz"
    cfg.stride = 20
    cfg.nominal_area = lx * lx
    cfg.gauge_length = lz
    cfg.nominal_sign = -1.0
    return cfg
