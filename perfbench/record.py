"""Regenerate perfbench/reference.json.

    python3 perfbench/record.py [--workload NAME ...]

For each workload, at its default seed and at the held-out seed shared by
all workloads (spec.json), makes one traced run and stores the exact-repeat
counters (sizes, steps, B.nnz, facet passes and Newton iterations per step,
end-of-run regime shares) and the observables the correctness gate
compares on the default seed.  Also stores the machine and software
provenance of the recording.  A change of the stored reference values must
be justified in CHANGES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import run as bench


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, asked from
    the library itself."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _git_revision() -> str:
    if not (bench.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance() -> dict:
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (loads scipy's own BLAS)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches_per_instance": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_note": "left at the library default, at most nproc",
        "git_revision": _git_revision(),
    }


def counters(m, metrics) -> dict:
    rec = m.rec
    B = rec.solver.ops.B
    out = {
        "nodes": rec.mesh.n_nodes,
        "facets": rec.mesh.n_facets,
        "dofs": rec.mesh.n_dofs,
        "dt": rec.dt,
        "steps": m.steps,
        "B_nnz": int(B.nnz),
        "B_shape": list(B.shape),
    }
    for key in ("assembly.passes_per_step", "integrators.newton_iters_per_step",
                "integrators.nonconverged_steps", "geometry.positions_per_step",
                "material.facet_update_calls", "material.tension_share",
                "material.softened_share", "material.slip_share",
                "material.collapse_share"):
        out[key] = metrics[key][0]
    return out


def main(argv=None) -> int:
    bench.load_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", action="append",
                        choices=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    spec = bench.read_json("spec.json")
    path = bench.HERE / "reference.json"
    try:
        reference = bench.read_json("reference.json")
    except FileNotFoundError:
        reference = {"workloads": {}}
    reference["provenance"] = provenance()
    for name in args.workload or workloads.WORKLOADS:
        wl = spec["workloads"][name]
        entry = {}
        for role, seed in (("default_seed", wl["default_seed"]),
                           ("held_out_seed", spec["held_out_seed"])):
            m = bench.measure(name, seed, traced=True)
            metrics = bench.layer_metrics(m)[0]
            entry[role] = {
                "seed": seed,
                "counters": counters(m, metrics),
                "observables": workloads.observables(m.rec),
                "final_balance_err_pct": float(m.rec.balance_err[-1]),
            }
            print(f"{name} seed {seed}: {json.dumps(entry[role])}",
                  flush=True)
        reference["workloads"][name] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
