"""Workload definitions and the correctness gate.

Each workload is an ldpm preset with a fixed simulated duration; only the
specimen `seed=` comes from the benchmark's seed argument.  The gate checks a
finished `RunRecord` against physical invariants on every seed and against
stored reference values on the workload's default seed.
"""

from __future__ import annotations

import re

import numpy as np

from ldpm.presets import preset_config


def _dogbone_explicit(cfg):
    # a 10x faster pull with a 10x shorter ramp reaches the preset's
    # near-peak, partly softened state in a tenth of its simulated time
    cfg.constraints = tuple(
        "velocity zmax uz 10 ramp=0.0001" if d.startswith("velocity")
        else d for d in cfg.constraints)
    cfg.total_time = 0.0011
    return cfg


def _vibration_elastic(cfg):
    cfg.total_time = 0.0011
    return cfg


def _prism_large_static(cfg):
    cfg.specimen = re.sub(r"\bdiv=\S+", "div=8x8x16", cfg.specimen)
    cfg.total_time = 0.001
    return cfg


WORKLOADS = {
    "dogbone-explicit": ("dog-bone", None, _dogbone_explicit),
    "vibration-elastic": ("free-vibration", None, _vibration_elastic),
    "prism-large-static": ("unconfined-free", "static", _prism_large_static),
}


def make_config(name: str, seed: int, directory: str):
    """RunConfig of workload `name` with specimen seed `seed`."""
    preset, solver, adjust = WORKLOADS[name]
    cfg = adjust(preset_config(preset, solver=solver))
    cfg.specimen = re.sub(r"\bseed=\d+", f"seed={seed}", cfg.specimen)
    cfg.directory = directory
    return cfg.validate()


# inelastic strain below this is rounding noise of the elastic branch
# (elastic strains are ~1e-4, their rounding ~1e-20)
INELASTIC_STRAIN_TOL = 1e-12


def regime_shares(rec) -> dict:
    """Share of facets per regime at the end of the run, from the committed
    strains and tractions: inelastic normal opening marks a softened tension
    facet, inelastic shear a slipping compression facet, and inelastic
    normal closure a pore-collapsed one."""
    params = rec.config.material_params()
    e = np.asarray(rec.solver.strains, float)
    t = np.asarray(rec.solver.tractions, float)
    tension = e[:, 0] > 0.0
    d_n = e[:, 0] - t[:, 0] / params.E0
    d_s = np.hypot(e[:, 1] - t[:, 1] / (params.alpha * params.E0),
                   e[:, 2] - t[:, 2] / (params.alpha * params.E0))
    tol = INELASTIC_STRAIN_TOL
    return {
        "tension_share": float(np.mean(tension)),
        "softened_share": float(np.mean(tension & (d_n > tol))),
        "slip_share": float(np.mean(~tension & (d_s > tol))),
        "collapse_share": float(np.mean(~tension & (np.abs(d_n) > tol))),
    }


def observables(rec) -> dict:
    """The values compared with the stored reference."""
    return {
        "peak_reaction_z": float(np.max(np.abs(rec.reactions[:, 2]))),
        "final_W_int": float(rec.w_int[-1]),
        "max_crack_opening": float(np.max(rec.crack_field[:, 3])),
    }


def gate(rec, name: str, seed: int, spec: dict, reference: dict):
    """Check one finished run.  Returns (problems, deviations): a list of
    failure messages (empty when the run passes) and, on the default seed,
    the relative deviation of each observable from its reference."""
    wl = spec["workloads"][name]
    problems = []
    arrays = {
        "times": rec.times, "reactions": rec.reactions, "W_kin": rec.w_kin,
        "W_int": rec.w_int, "W_ext": rec.w_ext,
        "balance_err": rec.balance_err, "monitor": rec.monitor_disp,
        "crack_field": rec.crack_field, "volumetric": rec.volumetric,
    }
    for key, values in arrays.items():
        if not np.all(np.isfinite(values)):
            problems.append(f"non-finite values in {key}")
    balance = float(rec.balance_err[-1])
    ceiling = spec["energy_ceiling_pct"]
    if not balance <= ceiling:
        problems.append(f"final balance error {balance!r} % above "
                        f"ceiling {ceiling} %")
    softened = regime_shares(rec)["softened_share"]
    if softened < wl["min_softened_share"]:
        problems.append(f"softened share {softened:.4f} below "
                        f"{wl['min_softened_share']}")

    deviations = {}
    if seed == wl["default_seed"]:
        ref = reference["workloads"][name]["default_seed"]
        for key in ("nodes", "facets", "dofs"):
            got = getattr(rec.mesh, f"n_{key}")
            if got != ref["counters"][key]:
                problems.append(f"{key} {got} differs from reference "
                                f"{ref['counters'][key]}")
        got = observables(rec)
        for key, want in ref["observables"].items():
            floor = spec["deviation_floor"][key]
            deviations[key] = abs(got[key] - want) / max(abs(want), floor)
            if deviations[key] > spec["reference_rtol"]:
                problems.append(f"{key} {got[key]!r} deviates from "
                                f"reference {want!r} by "
                                f"{deviations[key]:.3g} (relative)")
    return problems, deviations
