"""Config-driven simulation execution.

Turns a RunConfig into a mesh + load program + solver, marches the solver to
the final time under the perturbation schedule, records rows of its state and
energy ledger, and writes the output files:

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

import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics
from .assembly import SystemOperators, assemble_lumped_mass, \
    crack_openings, critical_timestep, facet_tractions, volumetric_strain
from .config import ConfigError, RunConfig, parse_directive, write_config
from .geometry import DOF_NAMES, Mesh, select_nodes, write_rows
from .integrators import ExplicitIntegrator, GeneralizedAlphaIntegrator, \
    LoadProgram, StaticSolver


class RunError(Exception):
    pass


def resolve_constraints(mesh: Mesh, directives) -> LoadProgram:
    """Compile directive strings into the mesh's load program.  Identical
    duplicates (e.g. a shared edge of two fixed faces) merge silently;
    conflicting kinematic constraints on one DoF are an error, `fix` and
    `velocity` even at v = 0.  Forces keep directive order."""
    kinematic: dict[int, tuple] = {}   # dof -> (action, velocity, t_ramp)
    forces = []
    for d in map(parse_directive, directives):
        for node in select_nodes(mesh, d.selector):
            for comp in d.dofs:
                dof = 6 * node + comp
                if d.action == "force":
                    forces.append((dof, d.history))
                    continue
                c = (d.action, d.velocity, d.t_ramp)
                if kinematic.setdefault(dof, c) != c:
                    raise ConfigError(
                        f"conflicting constraints on node {node} dof {comp}")
    return LoadProgram(mesh.n_dofs,
                       {dof: c[1:] for dof, c in kinematic.items()}, forces)


@dataclass
class RunRecord:
    config: RunConfig
    mesh: Mesh
    dt: float
    n_steps: int                  # round(total_time / dt)
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
                 program: LoadProgram):
    """Construct the configured solver plus the resolved time step."""
    mass = assemble_lumped_mass(mesh)
    dt = cfg.dt
    if not len(program.free):
        # with every DoF prescribed no step is unstable and none is estimated
        if dt is None:
            raise RunError("solver.dt_crit_factor needs a free DoF to "
                           "estimate the critical time step; every DoF is "
                           "prescribed, so set solver.dt")
        dt_crit = np.inf
    elif dt is None or cfg.solver == "explicit":
        dt_crit = critical_timestep(mesh, ops.params, mass,
                                    program.prescribed, ops.B)
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
        return ExplicitIntegrator(ops, program, mass, dt), dt
    conv, ga = cfg.solver_params()
    if ga is None:
        return StaticSolver(ops, program, dt, conv), dt
    return GeneralizedAlphaIntegrator(ops, program, mass, ga, dt, conv), dt


def _monitor_dofs(cfg: RunConfig, mesh: Mesh):
    """The DoFs of `[load] monitor`, whose form `validate` checked; a
    selector that matches no node is a ConfigError."""
    if not cfg.monitor:
        return None
    selector, dof = cfg.monitor.split()
    comp = DOF_NAMES.index(dof)
    nodes = select_nodes(mesh, selector)
    if not nodes:
        raise ConfigError(f"load.monitor {cfg.monitor!r}: the selector "
                          "matches no node")
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


def run(cfg: RunConfig, write_outputs: bool = True) -> RunRecord:
    """Execute one simulation on the mesh `cfg.build_mesh()` and return
    its record; write the output files when `write_outputs`."""
    cfg.validate()
    if write_outputs:
        check_output_directory(cfg.directory)
    mesh = cfg.build_mesh()
    params = cfg.material_params()
    ops = SystemOperators(mesh, params, cfg.elastic_only)
    program = resolve_constraints(mesh, cfg.constraints)
    monitor = _monitor_dofs(cfg, mesh)
    solver, dt = build_solver(cfg, mesh, ops, program)
    count = cfg.total_time / dt
    if not math.isfinite(count):
        raise RunError(f"solver: total_time / dt is not a finite step count "
                       f"({cfg.total_time!r} s / {dt!r} s)")
    n_steps = round(count)
    if n_steps < 1:
        raise RunError("total_time shorter than one step")

    # the solver books the work; the kinetic energy is set at recorded rows
    ledger = solver.ledger
    rng = np.random.default_rng(cfg.seed)
    next_perturb = cfg.interval if cfg.eta > 0 else np.inf

    times, iters, conv_flags = [], [], []
    reactions, w_kin, w_int, w_ext, balance, mon = [], [], [], [], [], []

    def record(report_iters, report_conv):
        times.append(solver.t)
        iters.append(report_iters)
        conv_flags.append(report_conv)
        reactions.append(solver.reaction_sum())
        ledger.w_kin = solver.kinetic_energy()
        w_kin.append(ledger.w_kin)
        w_int.append(ledger.w_int)
        w_ext.append(ledger.w_ext)
        balance.append(diagnostics.energy_balance_error(ledger))
        mon.append(0.0 if monitor is None
                   else float(np.mean(solver.q[monitor])))

    record(0, True)
    n_not_converged = 0
    solver_step, stride, last = solver.step, cfg.stride, n_steps - 1
    perturb_at = next_perturb - 0.5 * dt
    for step in range(n_steps):
        report = solver_step()
        if not report.converged:
            n_not_converged += 1
        if solver.t >= perturb_at:
            solver.perturb(cfg.eta, rng)
            next_perturb += cfg.interval
            perturb_at = next_perturb - 0.5 * dt
        if (step + 1) % stride == 0 or step == last:
            record(report.iterations, report.converged)

    strains = solver.strains
    cracks = crack_openings(mesh, strains, facet_tractions(
        strains, ops, solver.states), params)
    vol = volumetric_strain(solver.q, mesh)

    rec = RunRecord(
        config=cfg, mesh=mesh, dt=dt, n_steps=n_steps,
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
        write_rows(fh, "%r,%d,%d,%r,%r,%r,%r,%r,%r,%r\n",
                   rec.times, rec.iterations, rec.converged,
                   *rec.reactions.T, rec.w_kin, rec.w_int, rec.w_ext,
                   rec.balance_err)

    with open(out / "monitor.csv", "w", encoding="utf-8") as fh:
        if rec.config.nominal_area is not None \
                and rec.config.gauge_length is not None:
            fh.write("time,displacement,nominal_strain,nominal_stress\n")
            write_rows(fh, "%r,%r,%r,%r\n", rec.times,
                       rec.monitor_disp, rec.nominal_strain,
                       rec.nominal_stress)
        else:
            fh.write("time,displacement\n")
            write_rows(fh, "%r,%r\n", rec.times, rec.monitor_disp)

    with open(out / "crack_openings.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# mesh {mesh_hash}\n")
        fh.write("# facet_id w_N w_M w_L w\n")
        write_rows(fh, "%d %r %r %r %r\n",
                   np.arange(len(rec.crack_field)), *rec.crack_field.T)

    with open(out / "volumetric_strain.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# mesh {mesh_hash}\n")
        fh.write("# tet_id e_V\n")
        write_rows(fh, "%d %r\n", np.arange(len(rec.volumetric)),
                   rec.volumetric)

    w_max = rec.crack_field[:, 3].max() if len(rec.crack_field) else 0.0
    with open(out / "summary.txt", "w", encoding="utf-8") as fh:
        fh.write(f"solver: {rec.config.solver}\n")
        fh.write(f"mesh_hash: {mesh_hash}\n")
        fh.write(f"nodes: {rec.mesh.n_nodes}\n")
        fh.write(f"facets: {rec.mesh.n_facets}\n")
        fh.write(f"dofs: {rec.mesh.n_dofs}\n")
        fh.write(f"dt: {_r(rec.dt)}\n")
        fh.write(f"steps: {rec.n_steps}\n")
        fh.write(f"final_time: {_r(rec.times[-1])}\n")
        fh.write(f"steps_not_converged: {rec.n_not_converged}\n")
        fh.write(f"final_W_kin: {_r(rec.w_kin[-1])}\n")
        fh.write(f"final_W_int: {_r(rec.w_int[-1])}\n")
        fh.write(f"final_W_ext: {_r(rec.w_ext[-1])}\n")
        fh.write(f"final_balance_err_pct: {_r(rec.balance_err[-1])}\n")
        fh.write(f"max_crack_opening: {_r(w_max)}\n")

    write_config(rec.config, out / "config.ini")
    return out
