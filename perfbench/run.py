"""End-to-end and per-layer benchmark of the ldpm solver kit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and spec.json): dogbone-explicit,
vibration-elastic, prism-large-static.  Each invocation runs one workload in
this process, loading ldpm from the checkout's `src/`.

--trace 0 times complete `ldpm.runner.run` calls (set-up, stepping, output
files) until S seconds have passed, at least one.  It then repeats the
set-up alone (run() up to its first solver step) as often as the workload's
`setups` count in spec.json says; with a count of 0 the set-ups of the full
runs are used instead.  It reports, as medians over the repetitions:

    wall_s       time of one run() call, output files included
    setup_s      from entering run() to the start of the first solver step
    steps_per_s  solver steps per second over the stepping phase
    peak_rss_mb  peak resident set size of the process after its first run

--trace 1 makes one traced run.  It records a span around every call into
the layer functions named in probe.TARGETS, writes the spans to
.perfbench_out/<workload>/spans.csv and reports the per-layer metrics listed
in spec.json.  Further traced and untraced runs, as many as fit in
TIME_LIMIT_S, give the tracing overhead (see trace_overhead).

Every run passes through the correctness gate of workloads.gate.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A metric that could not be measured is left
out of it, and correct is then false.  The program exits non-zero without that
line when it cannot find the ldpm sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# bytes per facet read or written by one facet_update call: the committed
# state (5 scalars + traction 3), strains 3, e_V 1 and length 1 in; the
# tractions 3 and the trial state 8 out; all float64
FACET_UPDATE_BYTES_PER_FACET = 8 * (5 + 3 + 3 + 1 + 1 + 3 + 8)
# a run must end well inside the 180 s a caller allows it
TIME_LIMIT_S = 150.0


def load_program():
    src = ROOT / "src"
    if not (src / "ldpm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ldpm package under {src}; run the "
                         "benchmark from a checkout of the repository")
    sys.path.insert(0, str(src))


def read_json(name: str) -> dict:
    with open(HERE / name, encoding="utf-8") as fh:
        return json.load(fh)


class Measured:
    """One run() call: its record (None for a set-up-only call) and the
    instants taken around and inside it, in perf_counter_ns."""

    def __init__(self, rec, t0, t1, marks, tracer):
        self.rec, self.t0, self.t1 = rec, t0, t1
        self.marks, self.tracer = marks, tracer

    @property
    def wall_s(self) -> float:
        return (self.t1 - self.t0) * 1e-9

    @property
    def setup_s(self) -> float:
        return (self.marks.first_step - self.t0) * 1e-9

    @property
    def loop_end(self) -> int:
        m = self.marks
        return m.loop_end or m.write_start or self.t1

    @property
    def steps(self) -> int:
        return int(round(self.rec.config.total_time / self.rec.dt))

    @property
    def steps_per_s(self) -> float:
        return self.steps / ((self.loop_end - self.marks.first_step) * 1e-9)


def measure(name: str, seed: int, traced=False, setup_only=False,
            run_id=0) -> Measured:
    import probe
    import workloads
    from ldpm import runner

    cfg = workloads.make_config(name, seed, str(OUT / name))
    patches = probe.Patches()
    tracer = None
    call = runner.run
    if traced:
        tracer = probe.Tracer(run_id)
        tracer.install(patches)
        call = tracer.span("runner.run", runner.run)
    marks = probe.Marks(setup_only)
    marks.install(patches)
    rec = None
    # every timed call starts from a collected heap, so the set-up's
    # allocations do not pay for the garbage of earlier calls
    gc.collect()
    t0 = perf_counter_ns()
    try:
        rec = call(cfg)
    except probe.SetupOnly:
        pass
    finally:
        t1 = perf_counter_ns()
        patches.restore()
    if marks.first_step is None:
        raise RuntimeError("no solver step was seen: probe.solver_classes "
                           "found no step method in ldpm.integrators")
    return Measured(rec, t0, t1, marks, tracer)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced run
# ---------------------------------------------------------------------------

def spmv_bytes(B) -> int:
    """Computed bytes of one CSR product B q, or of Bᵀ t read through the
    same arrays: values, column indices, row pointers, input and output."""
    rows, cols = B.shape
    isz = B.indices.dtype.itemsize
    return B.nnz * (8 + isz) + (rows + 1) * isz + 8 * (rows + cols)


# the spans each per-layer metric is computed from.  A metric with a span
# whose target is missing from the program would read as 0 or too low, so
# it is dropped instead.  The two remainder metrics take up the time of
# every call that is not traced, so they need all targets.
ALL_SPANS = "all"
SPANS_OF = {
    "geometry.build_s": ("geometry.build",),
    "geometry.positions_per_step": ("geometry.positions",),
    "assembly.strain_operator_s": ("assembly.strain_operator",),
    "assembly.stiffness_s": ("assembly.stiffness",),
    "assembly.dt_crit_s": ("assembly.dt_crit",),
    "assembly.strains_ms": ("assembly.strains",),
    "assembly.strains_calls": ("assembly.strains",),
    "assembly.gather_ms": ("assembly.gather",),
    "assembly.gather_calls": ("assembly.gather",),
    "assembly.volumetric_ms": ("assembly.volumetric",),
    "assembly.volumetric_calls": ("assembly.volumetric",),
    "assembly.passes_per_step": ("assembly.internal_forces",),
    "assembly.spmv_computed_MB": ("assembly.strains", "assembly.gather"),
    "material.law_ms": ("material.facet_update",
                        "material.elastic_tractions"),
    "material.facet_update_ms": ("material.facet_update",),
    "material.facet_update_calls": ("material.facet_update",),
    "material.facet_updates_per_s": ("material.facet_update",),
    "material.facet_update_computed_MB": ("material.facet_update",),
    "integrators.init_s": ("integrators.init",),
    "integrators.step_self_ms": ALL_SPANS,
    "integrators.load_program_ms": ("integrators.load_program",),
    "integrators.reaction_sum_ms": ("integrators.reaction_sum",),
    "integrators.step_ms_p50": ("integrators.step",),
    "integrators.step_ms_p99": ("integrators.step",),
    "integrators.newton_iters_per_step": ("integrators.lu_solve",),
    "integrators.factorize_s": ("integrators.factorize",),
    "integrators.lu_solve_ms": ("integrators.lu_solve",),
    "integrators.lu_solve_calls": ("integrators.lu_solve",),
    "diagnostics.work_ms": ("diagnostics.work",),
    "diagnostics.energy_ms": ("diagnostics.energy",),
    "runner.loop_self_ms": ALL_SPANS,
    "runner.constraints_s": ("runner.constraints",),
    "runner.write_s": ("runner.write",),
}


def layer_metrics(m: Measured):
    """(metrics, report-only metrics, layer self-time table, dropped) of a
    traced run.  Per-step values divide by the number of solver steps;
    per-call values by the calls made while stepping.  `dropped` maps each
    metric left out to the reason."""
    import workloads

    T = m.tracer.table()
    rec = m.rec
    steps = m.steps
    fs, le = m.marks.first_step, m.loop_end
    ms = 1e-6

    def mask(name, phase=None):
        return T.select(name, *(phase or (None, None)))

    def incl_s(name):
        return float(T.dur[mask(name)].sum()) * 1e-9

    def calls(name):
        return int(mask(name, (fs, le)).sum())

    def self_ns(name):
        return float(T.self_ns[mask(name, (fs, le))].sum())

    def per_call_ms(*names):
        n = sum(calls(x) for x in names)
        return sum(self_ns(x) for x in names) * ms / n if n else 0.0

    def per_step_ms(name):
        return self_ns(name) * ms / steps

    step_dur = T.dur[mask("integrators.step", (fs, le))] * ms
    layers = layer_self_times(T, fs, le)
    B = getattr(getattr(rec.solver, "ops", None), "B", None)
    nf = rec.mesh.n_facets
    fu_calls = calls("material.facet_update")
    lu_calls = calls("integrators.lu_solve")
    shares = workloads.regime_shares(rec)

    metrics = {
        "geometry.build_s": (incl_s("geometry.build"), "s"),
        "geometry.positions_per_step":
            (calls("geometry.positions") / steps, "count"),
        "assembly.strain_operator_s":
            (incl_s("assembly.strain_operator"), "s"),
        "assembly.stiffness_s": (incl_s("assembly.stiffness"), "s"),
        "assembly.dt_crit_s": (incl_s("assembly.dt_crit"), "s"),
        "assembly.strains_ms": (per_call_ms("assembly.strains"), "ms"),
        "assembly.strains_calls": (calls("assembly.strains"), "count"),
        "assembly.gather_ms": (per_call_ms("assembly.gather"), "ms"),
        "assembly.gather_calls": (calls("assembly.gather"), "count"),
        "assembly.volumetric_calls": (calls("assembly.volumetric"), "count"),
        "assembly.passes_per_step":
            (calls("assembly.internal_forces") / steps, "count"),
        "material.law_ms": (per_call_ms("material.facet_update",
                                        "material.elastic_tractions"), "ms"),
        "material.facet_update_calls": (fu_calls, "count"),
        "material.facet_update_computed_MB":
            (fu_calls * FACET_UPDATE_BYTES_PER_FACET * nf / steps / 1e6,
             "MB"),
        "material.tension_share": (shares["tension_share"], "frac"),
        "material.softened_share": (shares["softened_share"], "frac"),
        "material.slip_share": (shares["slip_share"], "frac"),
        "material.collapse_share": (shares["collapse_share"], "frac"),
        "integrators.init_s": (incl_s("integrators.init"), "s"),
        "integrators.step_self_ms": (per_step_ms("integrators.step"), "ms"),
        "integrators.load_program_ms":
            (per_step_ms("integrators.load_program"), "ms"),
        "integrators.reaction_sum_ms":
            (per_step_ms("integrators.reaction_sum"), "ms"),
        "integrators.step_ms_p50":
            (float(statistics.median(step_dur)), "ms"),
        "integrators.step_ms_p99":
            (float(statistics.quantiles(step_dur, n=100)[98])
             if len(step_dur) > 1 else float(step_dur[0]), "ms"),
        "integrators.newton_iters_per_step": (lu_calls / steps, "count"),
        "integrators.nonconverged_steps": (rec.n_not_converged, "count"),
        "integrators.lu_solve_calls": (lu_calls, "count"),
        "diagnostics.work_ms": (per_step_ms("diagnostics.work"), "ms"),
        "diagnostics.energy_ms": (per_step_ms("diagnostics.energy"), "ms"),
        "runner.loop_self_ms":
            (layers["runner"]["stepping"] * 1e3 / steps, "ms"),
        "runner.constraints_s": (incl_s("runner.constraints"), "s"),
        "runner.write_s": (incl_s("runner.write"), "s"),
    }
    fu_self_s = self_ns("material.facet_update") * 1e-9
    extra = {
        "material.facet_update_ms": (per_call_ms("material.facet_update"),
                                     "ms", fu_calls),
        "material.facet_updates_per_s":
            (fu_calls * nf / fu_self_s if fu_self_s else 0.0, "1/s",
             fu_calls),
        "assembly.volumetric_ms": (per_call_ms("assembly.volumetric"), "ms",
                                   calls("assembly.volumetric")),
        "integrators.factorize_s": (incl_s("integrators.factorize"), "s",
                                    int(mask("integrators.factorize").sum())),
        "integrators.lu_solve_ms": (per_call_ms("integrators.lu_solve"),
                                    "ms", lu_calls),
    }

    dropped = {}
    if B is None:
        dropped["assembly.spmv_computed_MB"] = \
            "the solver has no ops.B to size the products from"
    else:
        metrics["assembly.spmv_computed_MB"] = (
            (calls("assembly.strains") + calls("assembly.gather"))
            * spmv_bytes(B) / steps / 1e6, "MB")
    lost_spans = m.tracer.missing_spans
    for table in (metrics, extra):
        for key in list(table):
            spans = SPANS_OF.get(key, ())
            lost = lost_spans if spans == ALL_SPANS \
                else lost_spans.intersection(spans)
            if lost:
                dropped[key] = "not traced: " + ", ".join(sorted(lost))
                del table[key]
    return metrics, extra, layers, dropped


def layer_self_times(T, first_step, loop_end) -> dict:
    """Self seconds per layer and phase (setup, stepping, output).  The run
    span opens first; its own time, the part no traced call covers, is the
    runner layer's remainder, so the table sums to the traced wall time."""
    run_start, run_end = T.start[0], T.start[0] + int(T.dur[0]) + 1
    run_children = T.parent == 0
    phases = {"setup": (run_start, first_step),
              "stepping": (first_step, loop_end),
              "output": (loop_end, run_end)}
    layers = {}
    for phase, (a, b) in phases.items():
        inside = (T.start >= a) & (T.start < b)
        for code, name in enumerate(T.names):
            sel = inside & (T.code == code)
            if name != "runner.run" and sel.any():
                row = layers.setdefault(name.split(".")[0], {})
                row[phase] = row.get(phase, 0.0) + T.self_ns[sel].sum() * 1e-9
        own = (b - a) - T.dur[inside & run_children].sum()
        row = layers.setdefault("runner", {})
        row[phase] = row.get(phase, 0.0) + own * 1e-9
    return layers


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _median(values):
    return float(statistics.median(values))


class Attempts:
    """Gated full runs of one workload and their tally."""

    def __init__(self, name, seed, spec, reference):
        self.name, self.seed = name, seed
        self.spec, self.reference = spec, reference
        self.count = 0
        self.failed = 0
        self.deviation = {}

    def run(self, traced=False, label=""):
        """One full run; returns its Measured, or None when it raised."""
        import workloads
        self.count += 1
        try:
            m = measure(self.name, self.seed, traced=traced,
                        run_id=self.count)
        except Exception:   # a failed run is counted and reported, not fatal
            traceback.print_exc()
            m, problems, dev = None, ["run raised (traceback on stderr)"], {}
        else:
            problems, dev = workloads.gate(m.rec, self.name, self.seed,
                                           self.spec, self.reference)
        self.failed += bool(problems)
        for k, v in dev.items():
            self.deviation[k] = max(v, self.deviation.get(k, 0.0))
        text = f"run {self.count}{label}: "
        if m is not None:
            text += (f"wall {m.wall_s:.3f} s, set-up {m.setup_s:.3f} s, "
                     f"{m.steps} steps at {m.steps_per_s:.2f} steps/s; ")
        if dev:
            key = max(dev, key=dev.get)
            text += (f"largest relative deviation from reference "
                     f"{dev[key]:.3g} ({key}); ")
        print(text + ("gate ok" if not problems
                      else f"FAILED: {'; '.join(problems)}"))
        return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import workloads
    spec = read_json("spec.json")
    name = args.workload
    if name not in workloads.WORKLOADS:
        parser.error(f"unknown workload {name!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    seed = args.seed % 2 ** 63
    (OUT / name).mkdir(parents=True, exist_ok=True)
    role = "default seed, reference values checked" \
        if seed == spec["workloads"][name]["default_seed"] \
        else "invariants only"
    print(f"perfbench {name} seed={seed} ({role}) seconds={args.seconds:g} "
          f"trace={args.trace}")
    import numpy
    import scipy
    print(f"machine: nproc {os.cpu_count()}, python "
          f"{platform.python_version()}, numpy {numpy.__version__}, scipy "
          f"{scipy.__version__}")

    attempts = Attempts(name, seed, spec, read_json("reference.json"))
    metrics, dropped = {}, {}
    started = time.monotonic()
    if args.trace == 0:
        # (wall_s, setup_s, steps_per_s) of each full run; its record is
        # dropped once gated, so later runs start from the same heap
        runs, rss_kb = [], 0
        while not runs or time.monotonic() - started < args.seconds:
            m = attempts.run()
            if m is None:
                break
            runs.append((m.wall_s, m.setup_s, m.steps_per_s))
            del m
            if len(runs) == 1:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # set-up samples all come from one state: set-up-only repetitions
        # after the full runs, or, where the workload asks for none, the
        # set-ups of the full runs
        setups = []
        while runs and len(setups) < spec["workloads"][name]["setups"]:
            setups.append(measure(name, seed, setup_only=True).setup_s)
            print(f"set-up only: {setups[-1]:.3f} s")
        setups = setups or [r[1] for r in runs]
        print(f"{len(runs)} full run(s), {len(setups)} set-up sample(s)")
        if runs:
            metrics = {
                "wall_s": (_median([r[0] for r in runs]), "s"),
                "setup_s": (_median(setups), "s"),
                "steps_per_s": (_median([r[2] for r in runs]), "1/s"),
                "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            }
    else:
        m1 = attempts.run(traced=True, label=" (traced)")
        if m1 is not None:
            metrics, extra, layers, dropped = layer_metrics(m1)
            m1.tracer.write_csv(OUT / name / "spans.csv", m1.t0)
            _print_layers(name, m1, extra, layers, spec)
            overhead = trace_overhead(attempts, m1, started)
            if overhead is None:
                dropped["trace_overhead_pct"] = (
                    f"an untraced run would end past {TIME_LIMIT_S:g} s")
            else:
                metrics["trace_overhead_pct"] = (overhead, "%")
    for key, (value, unit) in metrics.items():
        print(f"{key:38s} {value:14.6g} {unit}")
    print(f"{'failed_frac':38s} {attempts.failed / attempts.count:14.6g} "
          f"({attempts.failed} of {attempts.count} runs)")
    if attempts.deviation:
        key = max(attempts.deviation, key=attempts.deviation.get)
        print(f"largest relative deviation from reference on {name}: "
              f"{attempts.deviation[key]:.6g} ({key})")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    # a metric that was not measured is left out of the JSON line, never
    # given as 0, and makes the result incorrect
    unmeasured = [x["name"] for x in wanted if x["name"] not in metrics]
    for key in unmeasured:
        print(f"not measured: {key} ("
              f"{dropped.get(key, 'no run of this workload completed')})")
    result = {
        "correct": attempts.failed == 0 and not unmeasured,
        "attempted": attempts.count,
        "failed": attempts.failed,
        "metrics": {x["name"]: {"value": float(metrics[x["name"]][0]),
                                "unit": x["unit"]}
                    for x in wanted if x["name"] in metrics},
    }
    print(json.dumps(result))
    return 0


def trace_overhead(attempts, traced, started):
    """Median over run pairs of the traced against the untraced wall time,
    in %.  The first pair is the traced run of the per-layer metrics and an
    untraced run after it; the second pair runs its untraced run first, so
    the cold start of the process does not always fall on the traced side.
    A pair is run only when its runs fit in TIME_LIMIT_S; None when not
    even the first untraced run fits."""
    walls = [(True, traced.wall_s)]
    for plan in ((False,), (False, True)):
        if time.monotonic() - started + 1.2 * len(plan) * traced.wall_s \
                > TIME_LIMIT_S:
            break
        for is_traced in plan:
            m = attempts.run(traced=is_traced, label=" (traced)" if is_traced
                             else " (untraced)")
            if m is None:
                break
            walls.append((is_traced, m.wall_s))
        if len(walls) % 2:      # a run of the pair raised
            break
    pairs = [dict(walls[i:i + 2]) for i in range(0, len(walls) - 1, 2)]
    shares = [100.0 * (p[True] - p[False]) / p[False] for p in pairs]
    print(f"trace overhead over {len(shares)} pair(s): "
          + ", ".join(f"{x:+.2f} %" for x in shares))
    return _median(shares) if shares else None


def _print_layers(name, m, extra, layers, spec):
    wall = m.wall_s
    print(f"traced wall {wall:.3f} s; layer self time (s) by phase:")
    print(f"  {'layer':12s} {'setup':>10s} {'stepping':>10s} "
          f"{'output':>10s} {'total':>10s}")
    total = 0.0
    for layer, row in sorted(layers.items()):
        s = sum(row.values())
        total += s
        print(f"  {layer:12s} " + " ".join(
            f"{row.get(p, 0.0):10.4f}" for p in ("setup", "stepping",
                                                 "output")) + f" {s:10.4f}")
    print(f"  layer self times sum to {total:.4f} s = "
          f"{100.0 * total / wall:.3f}% of the traced wall time")
    if m.tracer.missing:
        print("  not traced (attribute missing in the program): "
              + ", ".join(m.tracer.missing)
              + "; the result is marked incorrect")
    for key, (value, unit, n) in extra.items():
        if n:
            print(f"{key:38s} {value:14.6g} {unit} ({n} calls; reported "
                  f"here, not in the JSON line)")
        else:
            print(f"{key:38s} {'n/a':>14s} (no calls on {name}; "
                  f"{spec['per_layer_moves'][key]['report_only']})")


if __name__ == "__main__":
    sys.exit(main())
