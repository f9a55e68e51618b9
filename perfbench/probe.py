"""Wrappers installed on ldpm's public functions inside the benchmark process.

Two kinds of wrapper exist:

* `Marks` records three instants of one `ldpm.runner.run` call: the first
  solver step, the end of the stepping loop and the start of output writing.
  It costs one Python call per step and is installed on every run.
* `Tracer` records a span (name, start, end, parent, run id) around every
  call into the layer functions listed in TARGETS.  It is installed only for
  the traced run and removed afterwards.

Nothing in `src/ldpm` is edited: the wrappers replace module and class
attributes at run time and `Patches.restore` puts the originals back.  A
target that no longer exists in the program is skipped and reported, so a
refactor of the program degrades the per-layer report instead of breaking
the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

# (owner, attribute, span name).  The owner is "module" or "module:Class";
# module attributes are patched where the caller looks them up (for example
# `ldpm.runner.critical_timestep`, which runner imported by name).
TARGETS = (
    ("ldpm.config:RunConfig", "build_mesh", "geometry.build"),
    ("ldpm.geometry:Mesh", "positions", "geometry.positions"),
    ("ldpm.geometry:Mesh", "mesh_hash", "geometry.mesh_hash"),
    ("ldpm.runner", "select_nodes", "geometry.select_nodes"),
    ("ldpm.assembly:SystemOperators", "__init__", "assembly.operators"),
    ("ldpm.assembly", "build_strain_operator", "assembly.strain_operator"),
    ("ldpm.assembly", "assemble_stiffness", "assembly.stiffness"),
    ("ldpm.assembly", "facet_weights", "assembly.weights"),
    ("ldpm.runner", "critical_timestep", "assembly.dt_crit"),
    ("ldpm.runner", "assemble_lumped_mass", "assembly.mass"),
    ("ldpm.assembly", "assemble_lumped_mass", "assembly.mass"),
    ("ldpm.assembly:SystemOperators", "strains", "assembly.strains"),
    ("ldpm.assembly:SystemOperators", "facet_volumetric",
     "assembly.volumetric"),
    ("ldpm.assembly:SystemOperators", "gather_forces", "assembly.gather"),
    ("ldpm.integrators", "internal_forces", "assembly.internal_forces"),
    ("ldpm.runner", "crack_openings", "assembly.crack_openings"),
    ("ldpm.runner", "volumetric_strain", "assembly.volumetric_final"),
    ("ldpm.assembly", "facet_update", "material.facet_update"),
    ("ldpm.assembly", "elastic_tractions", "material.elastic_tractions"),
    ("ldpm.integrators:LoadProgram", "__init__", "integrators.load_program"),
    ("ldpm.integrators:LoadProgram", "displacement",
     "integrators.load_program"),
    ("ldpm.integrators:LoadProgram", "velocity", "integrators.load_program"),
    ("ldpm.integrators:LoadProgram", "acceleration",
     "integrators.load_program"),
    ("ldpm.integrators:LoadProgram", "external_force",
     "integrators.load_program"),
    ("ldpm.integrators:LoadProgram", "apply", "integrators.load_program"),
    ("ldpm.integrators:_SolverBase", "reaction_sum",
     "integrators.reaction_sum"),
    ("ldpm.integrators", "check_convergence", "integrators.convergence"),
    ("ldpm.diagnostics", "accumulate_work", "diagnostics.work"),
    ("ldpm.diagnostics", "kinetic_energy", "diagnostics.energy"),
    ("ldpm.diagnostics", "energy_balance_error", "diagnostics.energy"),
    ("ldpm.runner", "resolve_constraints", "runner.constraints"),
    ("ldpm.runner", "build_solver", "runner.build_solver"),
    ("ldpm.runner", "write_run_outputs", "runner.write"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def solver_classes():
    """Classes of ldpm.integrators that define their own `step`."""
    mod = importlib.import_module("ldpm.integrators")
    return [c for _, c in inspect.getmembers(mod, inspect.isclass)
            if c.__module__ == mod.__name__ and "step" in vars(c)]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, obj, attr, make) -> bool:
        """Replace obj.attr by make(original); False when it is missing."""
        raw = vars(obj).get(attr) if isinstance(obj, type) \
            else getattr(obj, attr, None)
        if raw is None:
            return False
        if isinstance(raw, property):
            new = property(make(raw.fget))
        else:
            new = make(raw)
        self._saved.append((obj, attr, raw))
        setattr(obj, attr, new)
        return True

    def restore(self) -> None:
        while self._saved:
            obj, attr, raw = self._saved.pop()
            setattr(obj, attr, raw)


class SetupOnly(Exception):
    """Raised at the first solver step of a set-up-only repetition."""


class Marks:
    """Instants of one run() call, in perf_counter_ns."""

    def __init__(self, setup_only: bool = False):
        self.setup_only = setup_only
        self.first_step = None
        self.loop_end = None
        self.write_start = None

    def install(self, patches: Patches) -> None:
        marks = self

        def on_step(fn):
            @functools.wraps(fn)
            def step(*args, **kwargs):
                if marks.first_step is None:
                    marks.first_step = perf_counter_ns()
                    if marks.setup_only:
                        raise SetupOnly
                return fn(*args, **kwargs)
            return step

        def at_first_call(field):
            def make(fn):
                @functools.wraps(fn)
                def call(*args, **kwargs):
                    if getattr(marks, field) is None:
                        setattr(marks, field, perf_counter_ns())
                    return fn(*args, **kwargs)
                return call
            return make

        for cls in solver_classes():
            patches.replace(cls, "step", on_step)
        runner = importlib.import_module("ldpm.runner")
        patches.replace(runner, "crack_openings", at_first_call("loop_end"))
        patches.replace(runner, "write_run_outputs",
                        at_first_call("write_start"))


class Tracer:
    """In-memory span store.  Columns are typed arrays so that a run of
    several hundred thousand spans stays small and cheap to append to."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        # targets not found in the program, and the span names they feed;
        # metrics computed from those spans are incomplete
        self.missing: list[str] = []
        self.missing_spans: set[str] = set()

    def _miss(self, target: str, *spans: str) -> None:
        self.missing.append(target)
        self.missing_spans.update(spans)

    def span(self, name: str, fn):
        code = self._code.setdefault(name, len(self._code))
        if code == len(self.names):
            self.names.append(name)
        name_id, start, end, parent = \
            self.name_id, self.start, self.end, self.parent
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(code)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
        return traced

    def install(self, patches: Patches) -> None:
        for owner, attr, name in TARGETS:
            try:
                obj = _resolve(owner)
            except (ImportError, AttributeError):
                obj = None
            if obj is None or not patches.replace(
                    obj, attr, lambda fn, n=name: self.span(n, fn)):
                self._miss(f"{owner}.{attr}", name)
        if not solver_classes():
            self._miss("ldpm.integrators:<solver>.step",
                       "integrators.init", "integrators.step")
        for cls in solver_classes():
            patches.replace(cls, "__init__",
                            lambda fn: self.span("integrators.init", fn))
            patches.replace(cls, "step",
                            lambda fn: self.span("integrators.step", fn))
        integrators = importlib.import_module("ldpm.integrators")
        linalg = getattr(integrators, "spla", None)
        if linalg is None or not hasattr(linalg, "splu"):
            self._miss("ldpm.integrators.spla.splu",
                       "integrators.factorize", "integrators.lu_solve")
        else:
            patches.replace(integrators, "spla",
                            lambda mod: _TracedLinalg(mod, self))

    def write_csv(self, path, t0_ns: int) -> None:
        """One line per span: id,parent,run_id,name,start_ns,end_ns with
        times relative to t0_ns."""
        names, rid = self.names, self.run_id
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,run_id,name,start_ns,end_ns\n")
            fh.writelines(
                f"{i},{p},{rid},{names[c]},{s - t0_ns},{e - t0_ns}\n"
                for i, (p, c, s, e) in enumerate(
                    zip(self.parent, self.name_id, self.start, self.end)))

    def table(self):
        """Spans as numpy columns plus inclusive and self durations."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        code = np.frombuffer(self.name_id, dtype=np.uint16, count=n)
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=n)
        return SpanTable(self.names, code, start, parent, dur, dur - children)


class _TracedLinalg:
    """Stands in for scipy.sparse.linalg inside ldpm.integrators: splu and
    the solve method of the factor it returns are traced."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self.splu = tracer.span(
            "integrators.factorize",
            lambda *a, **k: _TracedLU(module.splu(*a, **k), tracer))

    def __getattr__(self, name):
        return getattr(self._module, name)


class _TracedLU:
    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer.span("integrators.lu_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class SpanTable:
    """Columns of a finished trace.  `code` indexes `names`."""

    def __init__(self, names, code, start, parent, dur, self_ns):
        self.names = list(names)
        self.code = code
        self.start = start
        self.parent = parent
        self.dur = dur
        self.self_ns = self_ns

    def select(self, name: str, t_from=None, t_to=None) -> np.ndarray:
        """Boolean mask of the spans called `name` that start inside
        [t_from, t_to)."""
        mask = self.code == (self.names.index(name) if name in self.names
                             else -1)
        if t_from is not None:
            mask &= self.start >= t_from
        if t_to is not None:
            mask &= self.start < t_to
        return mask
