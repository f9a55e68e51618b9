"""Run configuration: a flat INI file with sections, parsed into a validated
RunConfig.  One table, `_KEYS`, drives parsing and `write_config`.  Unknown
sections or keys are rejected, and every mistake in a config file (key,
value, load directive, fixture/specimen option, mesh path) raises a one-line
ConfigError; every run is fully reproducible from its config file
(synthetic meshes carry their seed).

Sections and keys::

    [mesh]
    path = specimen.mesh            # or fixture = ... / specimen = ...
    fixture = single-facet | two-particle-chain n=<k> | single-tet
    specimen = prism|dogbone|notched <lx>x<ly>x<lz> div=<nx>x<ny>x<nz>
               [seed=<s>] [jitter=<j>] [dp=<mm>] [waist=<f>]
               [notch_depth=<f>] [notch_width=<mm>]   # div entries >= 1
    density = 2380                  # kg/m^3, the only density setting

    [material]
    E0 = 60273                      # any MaterialParams field name
    elastic_only = false

    [solver]
    kind = explicit | genalpha | hht | newmark | static
    rho_inf = 0.8                   # genalpha, in [0, 1]
    hht_alpha = -0.05               # hht, in [-1/3, 0]
    dt = 2e-5                       # or dt_crit_factor = 0.9
    total_time = 0.1                # dt, dt_crit_factor, total_time and
                                    # [mesh] density: finite, > 0
    safety = 0.9                    # explicit runs with a set dt: warn
                                    # above safety x dt_crit, exit 2 above
                                    # dt_crit; 0 < safety <= 1
    criteria = residual,increment,energy    # and/or wrms
    tolerance = 1e-4                # tolerance, rtol, atol > 0
    rtol = 1e-4
    atol = 1e-6
    max_iter = 100                  # >= 1
    on_fail = accept | abort

    [load]
    constraints =
        fix zmin all
        velocity zmax uz -5 ramp=0.001     # finite numbers, ramp >= 0
        force node:7 ux 0:0,0.01:50,0.01004:0   # times strictly increase
    monitor = zmax uz                # displacement record point
    nominal_area = 10000             # mm^2, optional; finite, > 0
    gauge_length = 200               # mm, optional; finite, > 0
    nominal_sign = -1                # 1 or -1

    [perturbation]
    eta = 0
    interval = 0.002                 # > 0 when eta > 0
    seed = 0

    [output]
    directory = out
    stride = 10
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial

from .geometry import DEFAULT_DENSITY, DOF_NAMES, Mesh, \
    build_block_specimen, build_fixture, load_mesh
from .integrators import ConvergenceSpec, GenAlphaParams, genalpha_from_rho, \
    hht_params, newmark_params
from .material import MaterialParams


class ConfigError(Exception):
    pass


SOLVER_KINDS = ("explicit", "genalpha", "hht", "newmark", "static")


@dataclass
class RunConfig:
    mesh_path: str | None = None
    fixture: str | None = None
    specimen: str | None = None
    density: float = DEFAULT_DENSITY

    material: dict = field(default_factory=dict)
    elastic_only: bool = False

    solver: str = "explicit"
    rho_inf: float = 0.8
    hht_alpha: float = -0.05
    dt: float | None = None
    dt_crit_factor: float | None = None
    total_time: float = 0.01
    safety: float = 0.9
    criteria: tuple = ConvergenceSpec.criteria
    tolerance: float = ConvergenceSpec.tolerance
    rtol: float = ConvergenceSpec.r_tol
    atol: float = ConvergenceSpec.a_tol
    max_iter: int = ConvergenceSpec.max_iter
    on_fail: str = ConvergenceSpec.on_fail

    constraints: tuple = ()       # directive strings
    monitor: str = ""
    nominal_area: float | None = None
    gauge_length: float | None = None
    nominal_sign: float = 1.0

    eta: float = 0.0
    interval: float = 0.002
    seed: int = 0

    directory: str = "out"
    stride: int = 1

    def validate(self) -> "RunConfig":
        if self.solver not in SOLVER_KINDS:
            raise ConfigError(f"solver.kind: unknown solver {self.solver!r}")
        for key, value in (("solver.total_time", self.total_time),
                           ("solver.dt", self.dt),
                           ("solver.dt_crit_factor", self.dt_crit_factor),
                           ("mesh.density", self.density),
                           ("load.nominal_area", self.nominal_area),
                           ("load.gauge_length", self.gauge_length)):
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigError(f"{key} must be positive and finite, "
                                  f"got {value!r}")
        if self.nominal_sign not in (1, -1):
            raise ConfigError(f"load.nominal_sign must be 1 or -1, got "
                              f"{self.nominal_sign!r}")
        if self.dt is None and self.dt_crit_factor is None:
            raise ConfigError("solver: set dt or dt_crit_factor")
        if not 0 < self.safety <= 1:
            raise ConfigError("solver.safety must be in (0, 1]")
        if self.stride < 1:
            raise ConfigError("output.stride must be >= 1")
        if self.eta < 0:
            raise ConfigError("perturbation.eta must be non-negative")
        if self.eta > 0 and self.interval <= 0:
            raise ConfigError("perturbation.interval must be positive "
                              "when eta > 0")
        if sum(x is not None for x in
               (self.mesh_path, self.fixture, self.specimen)) != 1:
            raise ConfigError("mesh: exactly one of path/fixture/specimen")
        for d in self.constraints:
            parse_directive(d)
        tok = self.monitor.split()
        if self.monitor and (len(tok) != 2 or tok[1] not in DOF_NAMES):
            raise ConfigError(f"load.monitor needs '<selector> <dof>' with "
                              f"one dof of {DOF_NAMES}, got {self.monitor!r}")
        self.solver_params()
        return self

    def solver_params(self) -> tuple[ConvergenceSpec, GenAlphaParams | None]:
        """The convergence settings and the generalized-alpha parameters of
        the configured kind (None for explicit and static); the constructors
        hold the rules of their values."""
        try:
            conv = ConvergenceSpec(self.criteria, self.tolerance, self.rtol,
                                   self.atol, self.max_iter, self.on_fail)
            ga = genalpha_from_rho(self.rho_inf) if self.solver == "genalpha" \
                else hht_params(self.hht_alpha) if self.solver == "hht" \
                else newmark_params() if self.solver == "newmark" else None
        except ValueError as exc:
            raise ConfigError(f"solver: {exc}") from None
        return conv, ga

    def material_params(self) -> MaterialParams:
        try:
            return MaterialParams(**self.material)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"material: {exc}")

    def build_mesh(self) -> Mesh:
        try:
            if self.mesh_path is not None:
                return load_mesh(self.mesh_path, density=self.density)
            if self.fixture is not None:
                kind, *options = self.fixture.split() or [""]
                num = partial(_number, line=self.fixture)
                kw = _kwargs(options, {"n": int, "length": num, "area": num,
                                       "d_p": num})
                return build_fixture(kind, density=self.density, **kw)
            return build_specimen_from_spec(self.specimen, self.density)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"mesh: {exc}") from None


def _kwargs(tokens, schema):
    kw = {}
    for t in tokens:
        k, eq, v = t.partition("=")
        if not eq:
            raise ConfigError(f"expected key=value, got {t!r}")
        if k not in schema:
            raise ConfigError(f"unknown option {k!r}")
        kw[k] = schema[k](v)
    return kw


def _triple(kind):
    """Parser of `<a>x<b>x<c>` into three values of type `kind`."""
    def parse(text):
        values = tuple(kind(v) for v in text.split("x"))
        if len(values) != 3:
            raise ValueError(f"expected <a>x<b>x<c>, got {text!r}")
        return values
    return parse


def build_specimen_from_spec(spec: str, density: float) -> Mesh:
    """`specimen` value grammar, e.g. `prism 100x100x200 div=2x2x4 seed=3`."""
    tok = spec.split()
    if len(tok) < 2:
        raise ConfigError(f"malformed specimen spec {spec!r}")
    num = partial(_number, line=spec)
    shape, size = tok[0], _triple(num)(tok[1])
    kw = _kwargs(tok[2:], {"div": _triple(int), "seed": int, "jitter": num,
                           "dp": num, "waist": num, "notch_depth": num,
                           "notch_width": num})
    div = kw.pop("div", (2, 2, 4))
    if min(div) < 1:
        raise ConfigError(f"specimen div entries must be at least 1, got "
                          f"{'x'.join(map(str, div))}")
    seed = kw.pop("seed", 0)
    jitter = kw.pop("jitter", 0.15)
    d_p = kw.pop("dp", None)

    import numpy as np
    if shape == "prism":
        if kw:
            raise ConfigError(f"prism takes no options {sorted(kw)}")
        return build_block_specimen(size, div, d_p=d_p, jitter=jitter,
                                    seed=seed, density=density)
    if shape == "dogbone":
        waist = kw.pop("waist", 0.7)
        if kw:
            raise ConfigError(f"dogbone takes no options {sorted(kw)}")
        lz = size[2]
        cx, cy = size[0] / 2.0, size[1] / 2.0

        def map_fn(x):
            s = 1.0 - (1.0 - waist) * np.sin(np.pi * x[2] / lz) ** 2
            return np.array([cx + (x[0] - cx) * s, cy + (x[1] - cy) * s, x[2]])

        return build_block_specimen(size, div, d_p=d_p, jitter=jitter,
                                    seed=seed, map_fn=map_fn, density=density)
    if shape == "notched":
        # the notch drops the cells whose x-extent overlaps the open band
        # x_mid +- width / 2 and whose centre lies below depth x the height
        depth = kw.pop("notch_depth", 0.5)    # fraction of height (z)
        width = kw.pop("notch_width", None)   # mm, along x
        if kw:
            raise ConfigError(f"notched takes no options {sorted(kw)}")
        cell = size[0] / div[0]
        if width is None:
            width = cell
        x_mid = size[0] / 2.0

        def keep(center):
            return not (abs(center[0] - x_mid) < (cell + width) / 2.0
                        and center[2] < depth * size[2])

        return build_block_specimen(size, div, d_p=d_p, jitter=jitter,
                                    seed=seed, keep=keep, density=density)
    raise ConfigError(f"unknown specimen shape {shape!r}")


# ---------------------------------------------------------------------------
# Load directives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Directive:
    action: str                   # fix | velocity | force
    selector: str
    dofs: tuple                   # component indices
    velocity: float = 0.0
    t_ramp: float = 0.0
    history: tuple = ()


def _parse_dofs(text: str):
    names = {name: i for i, name in enumerate(DOF_NAMES)}
    if text == "all":
        return tuple(range(6))
    if text == "horizontal":
        return (0, 1)
    out = []
    for t in text.split(","):
        if t not in names:
            raise ConfigError(f"unknown dof {t!r}")
        out.append(names[t])
    return tuple(out)


def _number(text: str, line: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r} in "
                          f"{line!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r} in "
                          f"{line!r}")
    return value


def parse_directive(line: str) -> Directive:
    tok = line.split()
    if not tok:
        raise ConfigError("empty load directive")
    action = tok[0]
    if action == "fix":
        if len(tok) != 3:
            raise ConfigError(f"fix needs: fix <selector> <dofs> ({line!r})")
        return Directive("fix", tok[1], _parse_dofs(tok[2]))
    if action == "velocity":
        if len(tok) not in (4, 5):
            raise ConfigError(
                f"velocity needs: velocity <selector> <dof> <v> [ramp=<t>]")
        ramp = 0.0
        if len(tok) == 5:
            if not tok[4].startswith("ramp="):
                raise ConfigError(f"expected ramp=<t>, got {tok[4]!r}")
            ramp = _number(tok[4][5:], line)
            if ramp < 0.0:
                raise ConfigError(f"ramp must be >= 0, got {ramp!r} in "
                                  f"{line!r}")
        dofs = _parse_dofs(tok[2])
        return Directive("velocity", tok[1], dofs,
                         velocity=_number(tok[3], line), t_ramp=ramp)
    if action == "force":
        if len(tok) != 4:
            raise ConfigError(
                f"force needs: force <selector> <dof> <t0>:<f0>,...")
        hist = []
        for pair in tok[3].split(","):
            t, _, f = pair.partition(":")
            hist.append((_number(t, line), _number(f, line)))
            if len(hist) > 1 and not hist[-2][0] < hist[-1][0]:
                raise ConfigError(f"force history times must strictly "
                                  f"increase, got {tok[3]!r} in {line!r}")
        return Directive("force", tok[1], _parse_dofs(tok[2]),
                         history=tuple(hist))
    raise ConfigError(f"unknown load directive {action!r}")


# ---------------------------------------------------------------------------
# File parse / write
# ---------------------------------------------------------------------------

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _bool(text: str) -> bool:
    if text.lower() not in _BOOL:
        raise ValueError(f"expected true or false, got {text!r}")
    return _BOOL[text.lower()]


# (parse, format) of a value
_TEXT, _FLOAT, _INT = (str, str), (float, repr), (int, str)
_BOOLEAN = (_bool, lambda v: "true" if v else "false")
_LIST = (lambda text: tuple(v.strip() for v in text.split(",")), ",".join)
_LINES = (lambda text: tuple(l.strip() for l in text.splitlines()
                             if l.strip()), lambda v: "\n" + "\n".join(v))

# section -> key -> (RunConfig attribute, (parse, format)), in the order
# write_config emits them; attribute None is an entry of RunConfig.material
_KEYS = {
    "mesh": {"path": ("mesh_path", _TEXT), "fixture": ("fixture", _TEXT),
             "specimen": ("specimen", _TEXT),
             "density": ("density", _FLOAT)},
    "material": {
        **{f.name: (None, _FLOAT) for f in dataclasses.fields(MaterialParams)},
        "elastic_only": ("elastic_only", _BOOLEAN)},
    "solver": {"kind": ("solver", _TEXT),
               "total_time": ("total_time", _FLOAT),
               "safety": ("safety", _FLOAT), "criteria": ("criteria", _LIST),
               "tolerance": ("tolerance", _FLOAT), "rtol": ("rtol", _FLOAT),
               "atol": ("atol", _FLOAT), "max_iter": ("max_iter", _INT),
               "on_fail": ("on_fail", _TEXT), "rho_inf": ("rho_inf", _FLOAT),
               "hht_alpha": ("hht_alpha", _FLOAT), "dt": ("dt", _FLOAT),
               "dt_crit_factor": ("dt_crit_factor", _FLOAT)},
    "load": {"constraints": ("constraints", _LINES),
             "monitor": ("monitor", _TEXT),
             "nominal_area": ("nominal_area", _FLOAT),
             "gauge_length": ("gauge_length", _FLOAT),
             "nominal_sign": ("nominal_sign", _FLOAT)},
    "perturbation": {"eta": ("eta", _FLOAT), "interval": ("interval", _FLOAT),
                     "seed": ("seed", _INT)},
    "output": {"directory": ("directory", _TEXT), "stride": ("stride", _INT)},
}
# keys written only for the solver kind that reads them
_KIND_KEYS = {"rho_inf": "genalpha", "hht_alpha": "hht"}


def parse_config(path) -> RunConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str          # material keys are case-sensitive (E0, ...)
    try:
        read = cp.read(path)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(" ".join(str(exc).split())) from None
    if not read:
        raise ConfigError(f"cannot read config {path}")
    cfg = RunConfig()
    for section in cp.sections():
        keys = _KEYS.get(section)
        if keys is None:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in keys:
                raise ConfigError(f"unknown key {section}.{key}")
            attr, (parse, _) = keys[key]
            try:
                value = parse(cp[section][key])
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from None
            if attr is None:
                cfg.material[key] = value
            else:
                setattr(cfg, attr, value)
    return cfg.validate()


def write_config(cfg: RunConfig, path) -> None:
    """Emit a config file that parses back to an equivalent RunConfig.  It
    holds every key of `_KEYS` in table order, except None or empty values
    and the parameters of other solver kinds."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    for section, keys in _KEYS.items():
        values = {}
        for key, (attr, (_, fmt)) in keys.items():
            value = cfg.material.get(key) if attr is None \
                else getattr(cfg, attr)
            if value is None or _KIND_KEYS.get(key, cfg.solver) != cfg.solver:
                continue
            text = fmt(value)
            if text:
                values[key] = text
        cp[section] = values
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
