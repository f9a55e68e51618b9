"""Command-line interface.

Subcommands:
    run <config>                          execute a config file
    bench <preset> [--mesh FILE] [--solver KIND] [--out DIR]
    compare <dump>... --reference LABEL [--cap MM] [--csv FILE]
    validate <mesh>                       check mesh invariants
    fixture <kind> -o FILE                write a verification fixture mesh

Exit codes: 0 success, 2 validation/configuration failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .assembly import AssemblyError
from .compare import CompareError, compare_fields, load_field_dump
from .config import SOLVER_KINDS, ConfigError, parse_config
from .geometry import MeshError, build_fixture, load_mesh, write_mesh
from .integrators import DivergenceError, NonConvergenceError
from .material import SnapBackError
from .presets import PRESET_NAMES, preset_config
from .runner import RunError, run

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ldpm",
                                description="discrete particle solver kit")
    sub = p.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a simulation config")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="override the output directory")

    p_bench = sub.add_parser("bench", help="run a benchmark preset")
    p_bench.add_argument("preset", choices=PRESET_NAMES)
    p_bench.add_argument("--mesh", help="facet-data file replacing the "
                                        "built-in specimen")
    p_bench.add_argument("--solver", choices=SOLVER_KINDS)
    p_bench.add_argument("--out", help="override the output directory")

    p_cmp = sub.add_parser("compare", help="compare crack-field dumps")
    p_cmp.add_argument("dumps", nargs="+")
    p_cmp.add_argument("--reference", required=True,
                       help="label (file stem) used for NRMSE normalization")
    p_cmp.add_argument("--cap", type=float, default=4.0,
                       help="opening cap in mm applied before metrics "
                            "(default 4.0; <= 0 disables)")
    p_cmp.add_argument("--csv", help="also write the matrix as CSV")

    p_val = sub.add_parser("validate", help="check a mesh file")
    p_val.add_argument("mesh")

    p_fix = sub.add_parser("fixture", help="write a fixture mesh")
    p_fix.add_argument("kind")
    p_fix.add_argument("-o", "--output", required=True)
    p_fix.add_argument("--n", type=int, default=1)
    p_fix.add_argument("--length", type=float, default=100.0)
    p_fix.add_argument("--area", type=float, default=100.0)
    p_fix.add_argument("--dp", type=float, default=20.0)
    return p


def _execute(load, out) -> int:
    """Run the config that `load()` returns, in directory `out` when given,
    and turn every config, mesh or solver failure into its exit code."""
    try:
        cfg = load()
        if out:
            cfg.directory = out
        t0 = time.perf_counter()
        rec = run(cfg)
    except (ConfigError, MeshError, RunError, SnapBackError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DivergenceError, NonConvergenceError, AssemblyError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    elapsed = time.perf_counter() - t0
    print(f"wrote {rec.output_dir} "
          f"({len(rec.times)} records, dt={rec.dt:.6g} s, "
          f"{elapsed:.2f} s wall)")
    if rec.n_not_converged:
        print(f"warning: {rec.n_not_converged} steps accepted without "
              f"convergence", file=sys.stderr)
    return EXIT_OK


def cmd_run(args) -> int:
    return _execute(lambda: parse_config(args.config), args.out)


def cmd_bench(args) -> int:
    def load():
        cfg = preset_config(args.preset, solver=args.solver)
        if args.mesh:
            cfg.specimen = cfg.fixture = None
            cfg.mesh_path = args.mesh
        return cfg

    return _execute(load, args.out)


def cmd_compare(args) -> int:
    try:
        runs = [load_field_dump(p) for p in args.dumps]
        cap = args.cap if args.cap > 0 else None
        matrix = compare_fields(runs, args.reference, cap=cap)
    except (CompareError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(matrix.to_text())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(matrix.to_csv())
        print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_validate(args) -> int:
    """Load (and so validate) the mesh once; an invalid one prints every
    violation of that validation."""
    try:
        mesh = load_mesh(args.mesh)
    except (MeshError, OSError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        if getattr(exc, "report", None) is not None:
            print(exc.report, file=sys.stderr)
        return EXIT_VALIDATION
    print("mesh valid")
    print(f"{mesh.n_nodes} nodes, {len(mesh.tets)} tets, "
          f"{mesh.n_facets} facets, hash {mesh.mesh_hash()}")
    return EXIT_OK


def cmd_fixture(args) -> int:
    try:
        mesh = build_fixture(args.kind, n=args.n, length=args.length,
                             area=args.area, d_p=args.dp)
        write_mesh(mesh, args.output)
    except (MeshError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"wrote {args.output} ({mesh.n_nodes} nodes, "
          f"{mesh.n_facets} facets)")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "bench": cmd_bench, "compare": cmd_compare,
                "validate": cmd_validate, "fixture": cmd_fixture}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
