"""Config-driven simulation execution.

Turns a RunConfig into a mesh + load program + solver, marches the solver to
the final time while accumulating the energy ledger, and writes the output
files:

    steps.csv              time,iterations,converged,reaction_x,reaction_y,
                           reaction_z,W_kin,W_int,W_ext,balance_err_pct
    monitor.csv            time,displacement[,nominal_strain,nominal_stress]
    crack_openings.txt     <facet_id> <w_N> <w_M> <w_L> <w>   (final state)
    volumetric_strain.txt  <tet_id> <e_V>                     (final state)
    summary.txt            key: value pairs
    config.ini             echo of the effective configuration

All floats in these files are written with repr, so two runs of the same
config produce byte-identical output.  Timing goes to the returned record
and stdout only, never into the files.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics
from .assembly import SystemOperators, assemble_lumped_mass, \
    crack_openings, critical_timestep, volumetric_strain
from .config import ConfigError, RunConfig, parse_directive, write_config
from .geometry import Constraint, ConstraintKind, ConstraintSet, Mesh, \
    select_nodes
from .integrators import ExplicitIntegrator, GeneralizedAlphaIntegrator, \
    LoadProgram, StaticSolver
from .material import SnapBackError


class RunError(Exception):
    pass


def resolve_constraints(mesh: Mesh, directives) -> ConstraintSet:
    """Expand directive strings into per-DoF constraints.  Identical
    duplicates (e.g. a shared edge of two fixed faces) merge silently;
    conflicting kinematic constraints on one DoF are an error."""
    kinematic: dict[tuple, Constraint] = {}
    forces = []
    for d in directives:
        if isinstance(d, str):
            d = parse_directive(d)
        nodes = select_nodes(mesh, d.selector)
        for node in nodes:
            for comp in d.dofs:
                if d.action == "force":
                    forces.append(Constraint(node, comp, ConstraintKind.FORCE,
                                             history=d.history))
                    continue
                kind = ConstraintKind.FIXED if d.action == "fix" \
                    else ConstraintKind.VELOCITY
                c = Constraint(node, comp, kind, velocity=d.velocity,
                               t_ramp=d.t_ramp)
                prev = kinematic.get((node, comp))
                if prev is None:
                    kinematic[(node, comp)] = c
                elif prev != c:
                    raise ConfigError(
                        f"conflicting constraints on node {node} dof {comp}")
    return ConstraintSet(list(kinematic.values()) + forces)


@dataclass
class RunRecord:
    config: RunConfig
    mesh: Mesh
    dt: float
    times: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    reactions: np.ndarray         # (n, 3)
    w_kin: np.ndarray
    w_int: np.ndarray
    w_ext: np.ndarray
    balance_err: np.ndarray
    monitor_disp: np.ndarray
    crack_field: np.ndarray       # (nf, 4) final (w_N, w_M, w_L, w)
    volumetric: np.ndarray        # (nt,) final e_V
    solver: object = None
    output_dir: Path | None = None
    n_not_converged: int = 0

    @property
    def nominal_stress(self) -> np.ndarray:
        cfg = self.config
        if cfg.nominal_area is None:
            raise RunError("config has no nominal_area")
        return cfg.nominal_sign * self.reactions[:, 2] / cfg.nominal_area

    @property
    def nominal_strain(self) -> np.ndarray:
        cfg = self.config
        if cfg.gauge_length is None:
            raise RunError("config has no gauge_length")
        return cfg.nominal_sign * self.monitor_disp / cfg.gauge_length


def build_solver(cfg: RunConfig, mesh: Mesh, ops: SystemOperators,
                 constraints: ConstraintSet):
    """Construct the configured solver plus the resolved time step."""
    program = LoadProgram(constraints, mesh.n_dofs)
    dt = cfg.dt
    if dt is None or cfg.solver == "explicit":
        dt_crit = critical_timestep(mesh, ops.params, constraints=constraints)
    if dt is None:
        dt = cfg.dt_crit_factor * dt_crit
    elif cfg.solver == "explicit":
        if dt > dt_crit:
            raise RunError(f"solver.dt={dt!r} s exceeds the critical explicit "
                           f"time step {dt_crit!r} s")
        if dt > cfg.safety * dt_crit:
            print(f"warning: solver.dt={dt!r} s is above safety "
                  f"{cfg.safety!r} x critical time step {dt_crit!r} s",
                  file=sys.stderr)
    if cfg.solver == "explicit":
        mass = assemble_lumped_mass(mesh)
        return ExplicitIntegrator(ops, program, mass, dt,
                                  elastic_only=cfg.elastic_only), dt
    conv, ga = cfg.solver_params()
    if ga is None:
        return StaticSolver(ops, program, dt, conv,
                            elastic_only=cfg.elastic_only), dt
    mass = assemble_lumped_mass(mesh)
    return GeneralizedAlphaIntegrator(ops, program, mass, ga, dt, conv,
                                      elastic_only=cfg.elastic_only), dt


def _monitor_dofs(cfg: RunConfig, mesh: Mesh):
    if not cfg.monitor:
        return None
    tok = cfg.monitor.split()
    if len(tok) != 2:
        raise ConfigError(f"monitor needs '<selector> <dof>', got {cfg.monitor!r}")
    from .geometry import DOF_NAMES
    if tok[1] not in DOF_NAMES:
        raise ConfigError(f"unknown monitor dof {tok[1]!r}")
    comp = DOF_NAMES.index(tok[1])
    nodes = select_nodes(mesh, tok[0])
    return np.array([6 * n + comp for n in nodes], dtype=int)


def check_output_directory(directory) -> None:
    """Raise RunError unless `directory` is a writable directory or can be
    created as one: its nearest existing ancestor must be a writable
    directory.  Creates nothing."""
    path = Path(directory).absolute()
    while not os.path.lexists(path):
        path = path.parent
    if not (path.is_dir() and os.access(path, os.W_OK | os.X_OK)):
        raise RunError(f"output.directory {str(directory)!r}: {str(path)!r} "
                       "is not a writable directory")


def run(cfg: RunConfig, mesh: Mesh | None = None,
        write_outputs: bool = True) -> RunRecord:
    """Execute one simulation end to end and return its record."""
    cfg.validate()
    if write_outputs:
        check_output_directory(cfg.directory)
    if mesh is None:
        mesh = cfg.build_mesh()
    params = cfg.material_params()
    if not cfg.elastic_only and np.any(mesh.facets.edge_length >= params.lt):
        raise SnapBackError(
            f"edge length {float(mesh.facets.edge_length.max())!r} mm >= "
            f"characteristic length lt={params.lt}: softening would snap back")
    ops = SystemOperators(mesh, params)
    constraints = resolve_constraints(mesh, cfg.constraints)
    solver, dt = build_solver(cfg, mesh, ops, constraints)
    n_steps = int(round(cfg.total_time / dt))
    if n_steps < 1:
        raise RunError("total_time shorter than one step")
    monitor = _monitor_dofs(cfg, mesh)

    ledger = diagnostics.EnergyLedger()
    rng = np.random.default_rng(cfg.seed)
    next_perturb = cfg.interval if cfg.eta > 0 else np.inf

    times, iters, conv_flags = [], [], []
    reactions, w_kin, w_int, w_ext, balance, mon = [], [], [], [], [], []

    def ext_vec():
        return solver.reaction_forces + solver.f_ext

    def record(report_iters, report_conv):
        times.append(solver.t)
        iters.append(report_iters)
        conv_flags.append(report_conv)
        reactions.append(solver.reaction_sum())
        k = 0.0 if solver.mass is None \
            else diagnostics.kinetic_energy(solver.v, solver.mass)
        ledger.w_kin = k
        w_kin.append(k)
        w_int.append(ledger.w_int)
        w_ext.append(ledger.w_ext)
        balance.append(diagnostics.energy_balance_error(ledger))
        if monitor is not None:
            mon.append(float(np.mean(solver.q[monitor])))
        else:
            mon.append(0.0)

    record(0, True)
    held = None
    n_not_converged = 0
    # external forces at solver.t, reactions included; a step's end value
    # starts the next step unless a perturbation commits new reactions.
    # The solver binds new q and f_int arrays, so the previous ones are
    # kept without copies.
    f_ext = ext_vec()
    for step in range(n_steps):
        q_prev, f_int_prev, f_ext_prev = solver.q, solver.f_int, f_ext
        report = solver.step()
        if not report.converged:
            n_not_converged += 1
        f_ext = ext_vec()
        diagnostics.accumulate_work(ledger, f_ext_prev, f_ext,
                                    f_int_prev, solver.f_int,
                                    solver.q - q_prev)
        if held is not None:
            diagnostics.book_release(ledger, held, solver.q - q_prev)
            held = None
        if solver.t >= next_perturb - 0.5 * dt:
            q_prev, f_int_prev = solver.q, solver.f_int
            solver.perturb(cfg.eta, rng)
            diagnostics.book_perturbation(ledger, f_int_prev, solver.f_int,
                                          solver.q - q_prev)
            # out-of-balance force at the perturbed state (zero on the
            # prescribed DoFs, whose reactions balance it)
            f_ext = ext_vec()
            held = solver.f_int - f_ext
            if solver.mass is not None:
                held += solver.mass.values * solver.a
            next_perturb += cfg.interval
        if hasattr(solver, "energy_ref"):
            solver.energy_ref = abs(ledger.w_ext) + ledger.w_kin
        if (step + 1) % cfg.stride == 0 or step == n_steps - 1:
            record(report.iterations, report.converged)

    cracks = crack_openings(mesh, solver.strains, solver.tractions, params)
    vol = volumetric_strain(solver.q, mesh) if len(mesh.tets) \
        else np.zeros(0)

    rec = RunRecord(
        config=cfg, mesh=mesh, dt=dt,
        times=np.array(times), iterations=np.array(iters, dtype=int),
        converged=np.array(conv_flags, dtype=bool),
        reactions=np.array(reactions), w_kin=np.array(w_kin),
        w_int=np.array(w_int), w_ext=np.array(w_ext),
        balance_err=np.array(balance), monitor_disp=np.array(mon),
        crack_field=cracks, volumetric=vol, solver=solver,
        n_not_converged=n_not_converged)
    if write_outputs:
        try:
            rec.output_dir = write_run_outputs(rec)
        except OSError as exc:
            raise RunError(f"output.directory {cfg.directory!r}: {exc}") \
                from None
    return rec


def _r(v) -> str:
    """repr of a value as a Python float: shortest round-trippable text,
    byte-stable across runs."""
    return repr(float(v))


def write_run_outputs(rec: RunRecord) -> Path:
    out = Path(rec.config.directory)
    out.mkdir(parents=True, exist_ok=True)
    mesh_hash = rec.mesh.mesh_hash()

    with open(out / "steps.csv", "w", encoding="utf-8") as fh:
        fh.write("time,iterations,converged,reaction_x,reaction_y,"
                 "reaction_z,W_kin,W_int,W_ext,balance_err_pct\n")
        for i in range(len(rec.times)):
            r = rec.reactions[i]
            fh.write(f"{_r(rec.times[i])},{rec.iterations[i]},"
                     f"{int(rec.converged[i])},{_r(r[0])},{_r(r[1])},"
                     f"{_r(r[2])},{_r(rec.w_kin[i])},{_r(rec.w_int[i])},"
                     f"{_r(rec.w_ext[i])},{_r(rec.balance_err[i])}\n")

    with open(out / "monitor.csv", "w", encoding="utf-8") as fh:
        has_nominal = rec.config.nominal_area is not None \
            and rec.config.gauge_length is not None
        fh.write("time,displacement")
        if has_nominal:
            fh.write(",nominal_strain,nominal_stress")
        fh.write("\n")
        stress = rec.nominal_stress if has_nominal else None
        strain = rec.nominal_strain if has_nominal else None
        for i in range(len(rec.times)):
            fh.write(f"{_r(rec.times[i])},{_r(rec.monitor_disp[i])}")
            if has_nominal:
                fh.write(f",{_r(strain[i])},{_r(stress[i])}")
            fh.write("\n")

    with open(out / "crack_openings.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# mesh {mesh_hash}\n")
        fh.write("# facet_id w_N w_M w_L w\n")
        for k in range(rec.crack_field.shape[0]):
            w = rec.crack_field[k]
            fh.write(f"{k} {_r(w[0])} {_r(w[1])} {_r(w[2])} {_r(w[3])}\n")

    with open(out / "volumetric_strain.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# mesh {mesh_hash}\n")
        fh.write("# tet_id e_V\n")
        for t in range(len(rec.volumetric)):
            fh.write(f"{t} {_r(rec.volumetric[t])}\n")

    w_max = rec.crack_field[:, 3].max() if len(rec.crack_field) else 0.0
    with open(out / "summary.txt", "w", encoding="utf-8") as fh:
        fh.write(f"solver: {rec.config.solver}\n")
        fh.write(f"mesh_hash: {mesh_hash}\n")
        fh.write(f"nodes: {rec.mesh.n_nodes}\n")
        fh.write(f"facets: {rec.mesh.n_facets}\n")
        fh.write(f"dofs: {rec.mesh.n_dofs}\n")
        fh.write(f"dt: {_r(rec.dt)}\n")
        fh.write(f"steps: {int(round(rec.config.total_time / rec.dt))}\n")
        fh.write(f"final_time: {_r(rec.times[-1])}\n")
        fh.write(f"steps_not_converged: {rec.n_not_converged}\n")
        fh.write(f"final_W_kin: {_r(rec.w_kin[-1])}\n")
        fh.write(f"final_W_int: {_r(rec.w_int[-1])}\n")
        fh.write(f"final_W_ext: {_r(rec.w_ext[-1])}\n")
        fh.write(f"final_balance_err_pct: {_r(rec.balance_err[-1])}\n")
        fh.write(f"max_crack_opening: {_r(w_max)}\n")

    write_config(rec.config, out / "config.ini")
    return out
