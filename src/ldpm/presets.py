"""Benchmark presets: ready-made RunConfigs at desk scale.

Each preset is a miniature of a standard concrete test: free vibration of a
cantilevered prism (elastic), confined uniaxial compression, a waisted
tension specimen, a notched beam in three-point bending, and unconfined
compression with fixed or frictionless platens.  `PRESETS` holds each one
as plain `RunConfig` field values, the same values its `config.ini` echo
writes.
"""

from __future__ import annotations

from .config import ConfigError, RunConfig

# the fields every preset shares unless its row sets them
_DEFAULTS = dict(solver="explicit", dt_crit_factor=0.9, stride=20)

# 40 x 40 x 80 prisms driven downward at the top face, recorded as nominal
# compressive strain and stress
_COMPRESSION = dict(total_time=0.02, monitor="zmax uz", nominal_area=1600.0,
                    gauge_length=80.0, nominal_sign=-1.0)

PRESETS = {
    # clamped-base prism, a short transverse force pulse at a top corner,
    # then free elastic ringing; used for spectrum checks.  The small
    # particle diameter puts the rotational modes, which set the stability
    # limit, far above the structural frequencies, giving implicit solvers
    # headroom for steps of hundreds of explicit limits; the triangular
    # pulse is about half the fundamental period long, so the ringing is
    # dominated by the first mode
    "free-vibration": dict(
        specimen="prism 40.0x40.0x120.0 div=2x2x4 seed=11 jitter=0.1 dp=0.25",
        elastic_only=True,
        total_time=0.0044,
        constraints=("fix zmin all",
                     "force node:2 ux 0:0,0.00014:50,0.00028:0"),
        monitor="node:2 ux"),
    # laterally confined compression: every lateral-surface node is held in
    # x and y, the top face is driven downward
    "uniaxial-strain": dict(
        _COMPRESSION,
        specimen="prism 40.0x40.0x80.0 div=2x2x4 seed=3",
        constraints=("fix lateral horizontal", "fix zmin uz,rx,ry",
                     "fix zmax rx,ry", "velocity zmax uz -5 ramp=0.001")),
    # waisted tension specimen pulled from the top face; fracture localizes
    # in the reduced section.  The terminal time reaches the peak load and
    # the onset of softening; the post-localization crack placement is
    # genuinely sensitive to solver dynamics, so cross-solver field
    # comparisons target this state
    "dog-bone": dict(
        specimen="dogbone 30.0x30.0x90.0 div=4x4x8 seed=7 waist=0.72 dp=6.0",
        total_time=0.011,
        constraints=("fix zmin all", "fix zmax ux,uy,rx,ry,rz",
                     "velocity zmax uz 1 ramp=0.001"),
        monitor="zmax uz",
        nominal_area=(0.72 * 30.0) ** 2,
        gauge_length=90.0,
        nominal_sign=1.0),
    # three-point bending of a beam with a bottom-center notch, fully
    # discrete: span along x, depth along z, the notch rising from the
    # bottom at midspan; simple supports at the bottom corners, midspan top
    # node driven downward
    "notched-bend": dict(
        specimen="notched 120.0x30.0x30.0 div=8x2x2 seed=5 notch_depth=0.45 "
                 "notch_width=7.5",
        total_time=0.01,
        constraints=("fix xmin&zmin uy,uz", "fix xmax&zmin uy,uz",
                     "fix center-zmax ux,uy",
                     "velocity center-zmax uz -15 ramp=0.002"),
        monitor="center-zmax uz"),
    # unconfined compression with fully bonded platens: the end faces are
    # held laterally, producing barrel-type confinement near the platens
    "unconfined-fixed": dict(
        _COMPRESSION,
        specimen="prism 40.0x40.0x80.0 div=2x2x4 seed=9",
        constraints=("fix zmin all", "fix zmax ux,uy,rx,ry,rz",
                     "velocity zmax uz -5 ramp=0.002")),
    # unconfined compression with frictionless platens: end faces slide
    # laterally, only the axial motion is driven; rigid-body drift is
    # removed by pinning the central node of each end face
    "unconfined-free": dict(
        _COMPRESSION,
        specimen="prism 40.0x40.0x80.0 div=2x2x4 seed=9",
        constraints=("fix zmin uz,rx,ry", "fix zmax rx,ry",
                     "fix center-zmin ux,uy,rz", "fix center-zmax ux,uy,rz",
                     "velocity zmax uz -5 ramp=0.002")),
}

PRESET_NAMES = tuple(PRESETS)


def preset_config(name: str, solver: str | None = None) -> RunConfig:
    """A fresh, validated RunConfig of the named benchmark, writing to
    `out-<name>`.  `solver` overrides the preset's explicit solver."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; "
                          f"choose from {', '.join(PRESET_NAMES)}")
    cfg = RunConfig(**{**_DEFAULTS, **PRESETS[name]},
                    directory=f"out-{name}")
    if solver is not None:
        cfg.solver = solver
        if solver != "explicit":
            # implicit solvers take much larger steps than the explicit limit
            cfg.dt_crit_factor *= 50.0
    return cfg.validate()
