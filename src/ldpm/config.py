"""Run configuration: a flat INI file with sections, parsed into a validated
RunConfig.  Unknown sections or keys are rejected; every run is fully
reproducible from its config file (synthetic meshes carry their seed).

Sections and keys::

    [mesh]
    path = specimen.mesh            # or fixture = ... / specimen = ...
    fixture = single-facet | two-particle-chain n=<k> | single-tet
    specimen = prism|dogbone|notched <lx>x<ly>x<lz> div=<nx>x<ny>x<nz>
               [seed=<s>] [jitter=<j>] [dp=<mm>] [waist=<f>]
               [notch_depth=<f>] [notch_width=<mm>]
    density = 2380

    [material]
    E0 = 60273                      # any MaterialParams field name
    elastic_only = false

    [solver]
    kind = explicit | genalpha | hht | newmark | static
    rho_inf = 0.8                   # genalpha
    hht_alpha = -0.05               # hht
    dt = 2e-5                       # or dt_crit_factor = 0.9
    total_time = 0.1
    safety = 0.9                    # explicit runs with a set dt: warn
                                    # above safety x dt_crit, exit 2 above
                                    # dt_crit; 0 < safety <= 1
    criteria = residual,increment,energy
    tolerance = 1e-4
    rtol = 1e-4
    atol = 1e-6
    max_iter = 100
    on_fail = accept | abort

    [load]
    constraints =
        fix zmin all
        velocity zmax uz -5 ramp=0.001
        force node:7 ux 0:0,0.01:50,0.01004:0
    monitor = zmax uz                # displacement record point
    nominal_area = 10000             # mm^2, optional
    gauge_length = 200               # mm, optional
    nominal_sign = -1

    [perturbation]
    eta = 0
    interval = 0.002
    seed = 0

    [output]
    directory = out
    stride = 10
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field

from .geometry import DOF_NAMES, MeshError, Mesh, build_block_specimen, \
    build_fixture, load_mesh
from .material import MaterialParams


class ConfigError(Exception):
    pass


_ALLOWED = {
    "mesh": {"path", "fixture", "specimen", "density"},
    "material": {f.name for f in dataclasses.fields(MaterialParams)}
    | {"elastic_only"},
    "solver": {"kind", "rho_inf", "hht_alpha", "dt", "dt_crit_factor",
               "total_time", "safety", "criteria", "tolerance", "rtol",
               "atol", "max_iter", "on_fail"},
    "load": {"constraints", "monitor", "nominal_area", "gauge_length",
             "nominal_sign"},
    "perturbation": {"eta", "interval", "seed"},
    "output": {"directory", "stride"},
}

SOLVER_KINDS = ("explicit", "genalpha", "hht", "newmark", "static")


@dataclass
class RunConfig:
    mesh_path: str | None = None
    fixture: str | None = None
    specimen: str | None = None
    density: float = 2380.0

    material: dict = field(default_factory=dict)
    elastic_only: bool = False

    solver: str = "explicit"
    rho_inf: float = 0.8
    hht_alpha: float = -0.05
    dt: float | None = None
    dt_crit_factor: float | None = None
    total_time: float = 0.01
    safety: float = 0.9
    criteria: tuple = ("residual", "increment", "energy")
    tolerance: float = 1e-4
    rtol: float = 1e-4
    atol: float = 1e-6
    max_iter: int = 100
    on_fail: str = "accept"

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
        if self.total_time <= 0:
            raise ConfigError("solver.total_time must be positive")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("solver.dt must be positive")
        if self.dt is None and self.dt_crit_factor is None:
            raise ConfigError("solver: set dt or dt_crit_factor")
        if self.dt_crit_factor is not None and self.dt_crit_factor <= 0:
            raise ConfigError("solver.dt_crit_factor must be positive")
        if not 0 < self.safety <= 1:
            raise ConfigError("solver.safety must be in (0, 1]")
        if self.stride < 1:
            raise ConfigError("output.stride must be >= 1")
        if self.eta < 0:
            raise ConfigError("perturbation.eta must be non-negative")
        if sum(x is not None for x in
               (self.mesh_path, self.fixture, self.specimen)) != 1:
            raise ConfigError("mesh: exactly one of path/fixture/specimen")
        for d in self.constraints:
            parse_directive(d)
        if self.on_fail not in ("accept", "abort"):
            raise ConfigError("solver.on_fail must be accept or abort")
        return self

    def material_params(self) -> MaterialParams:
        try:
            return MaterialParams(**self.material)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"material: {exc}")

    def build_mesh(self) -> Mesh:
        if self.mesh_path is not None:
            return load_mesh(self.mesh_path, density=self.density)
        if self.fixture is not None:
            tok = self.fixture.split()
            kw = _kwargs(tok[1:], {"n": int, "length": float, "area": float,
                                   "d_p": float})
            return build_fixture(tok[0], density=self.density, **kw)
        return build_specimen_from_spec(self.specimen, self.density)


def _kwargs(tokens, schema):
    kw = {}
    for t in tokens:
        if "=" not in t:
            raise ConfigError(f"expected key=value, got {t!r}")
        k, v = t.split("=", 1)
        if k not in schema:
            raise ConfigError(f"unknown option {k!r}")
        kw[k] = schema[k](v)
    return kw


def build_specimen_from_spec(spec: str, density: float) -> Mesh:
    """`specimen` value grammar, e.g. `prism 100x100x200 div=2x2x4 seed=3`."""
    tok = spec.split()
    if len(tok) < 2:
        raise ConfigError(f"malformed specimen spec {spec!r}")
    shape = tok[0]
    try:
        size = tuple(float(v) for v in tok[1].split("x"))
    except ValueError:
        raise ConfigError(f"malformed specimen size {tok[1]!r}")
    kw = _kwargs(tok[2:], {"div": str, "seed": int, "jitter": float,
                           "dp": float, "waist": float,
                           "notch_depth": float, "notch_width": float})
    div = tuple(int(v) for v in kw.pop("div", "2x2x4").split("x"))
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
        depth = kw.pop("notch_depth", 0.5)    # fraction of height (z)
        width = kw.pop("notch_width", None)   # mm, along x
        if kw:
            raise ConfigError(f"notched takes no options {sorted(kw)}")
        if width is None:
            width = size[0] / div[0]
        x_mid = size[0] / 2.0

        def keep(center):
            return not (abs(center[0] - x_mid) < width / 2.0
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
            ramp = float(tok[4][5:])
        dofs = _parse_dofs(tok[2])
        return Directive("velocity", tok[1], dofs, velocity=float(tok[3]),
                         t_ramp=ramp)
    if action == "force":
        if len(tok) != 4:
            raise ConfigError(
                f"force needs: force <selector> <dof> <t0>:<f0>,...")
        hist = []
        for pair in tok[3].split(","):
            t, f = pair.split(":")
            hist.append((float(t), float(f)))
        return Directive("force", tok[1], _parse_dofs(tok[2]),
                         history=tuple(hist))
    raise ConfigError(f"unknown load directive {action!r}")


# ---------------------------------------------------------------------------
# File parse / write
# ---------------------------------------------------------------------------

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def parse_config(path) -> RunConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str          # material keys are case-sensitive (E0, ...)
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config {path}")
    cfg = RunConfig()
    for section in cp.sections():
        if section not in _ALLOWED:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in cp.items(section):
            if key not in _ALLOWED[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            try:
                _assign(cfg, section, key, value)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}")
    return cfg.validate()


def _assign(cfg: RunConfig, section, key, value):
    if section == "mesh":
        if key == "path":
            cfg.mesh_path = value
        elif key == "fixture":
            cfg.fixture = value
        elif key == "specimen":
            cfg.specimen = value
        else:
            cfg.density = float(value)
    elif section == "material":
        if key == "elastic_only":
            cfg.elastic_only = _BOOL[value.lower()]
        elif key == "density":
            cfg.density = float(value)
        else:
            cfg.material[key] = float(value)
    elif section == "solver":
        if key == "kind":
            cfg.solver = value
        elif key == "criteria":
            cfg.criteria = tuple(v.strip() for v in value.split(","))
        elif key == "on_fail":
            cfg.on_fail = value
        elif key == "max_iter":
            cfg.max_iter = int(value)
        else:
            setattr(cfg, {"rho_inf": "rho_inf", "hht_alpha": "hht_alpha",
                          "dt": "dt", "dt_crit_factor": "dt_crit_factor",
                          "total_time": "total_time", "safety": "safety",
                          "tolerance": "tolerance", "rtol": "rtol",
                          "atol": "atol"}[key], float(value))
    elif section == "load":
        if key == "constraints":
            cfg.constraints = tuple(l.strip() for l in value.splitlines()
                                    if l.strip())
        elif key == "monitor":
            cfg.monitor = value
        elif key == "nominal_area":
            cfg.nominal_area = float(value)
        elif key == "gauge_length":
            cfg.gauge_length = float(value)
        else:
            cfg.nominal_sign = float(value)
    elif section == "perturbation":
        if key == "seed":
            cfg.seed = int(value)
        else:
            setattr(cfg, key, float(value))
    elif section == "output":
        if key == "directory":
            cfg.directory = value
        else:
            cfg.stride = int(value)


def write_config(cfg: RunConfig, path) -> None:
    """Emit a config file that parses back to an equivalent RunConfig."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    mesh = {}
    if cfg.mesh_path is not None:
        mesh["path"] = cfg.mesh_path
    if cfg.fixture is not None:
        mesh["fixture"] = cfg.fixture
    if cfg.specimen is not None:
        mesh["specimen"] = cfg.specimen
    mesh["density"] = repr(cfg.density)
    cp["mesh"] = mesh
    mat = {k: repr(v) for k, v in cfg.material.items()}
    mat["elastic_only"] = "true" if cfg.elastic_only else "false"
    cp["material"] = mat
    solver = {"kind": cfg.solver, "total_time": repr(cfg.total_time),
              "safety": repr(cfg.safety),
              "criteria": ",".join(cfg.criteria),
              "tolerance": repr(cfg.tolerance), "rtol": repr(cfg.rtol),
              "atol": repr(cfg.atol), "max_iter": str(cfg.max_iter),
              "on_fail": cfg.on_fail}
    if cfg.solver == "genalpha":
        solver["rho_inf"] = repr(cfg.rho_inf)
    if cfg.solver == "hht":
        solver["hht_alpha"] = repr(cfg.hht_alpha)
    if cfg.dt is not None:
        solver["dt"] = repr(cfg.dt)
    if cfg.dt_crit_factor is not None:
        solver["dt_crit_factor"] = repr(cfg.dt_crit_factor)
    cp["solver"] = solver
    load = {"constraints": "\n" + "\n".join(cfg.constraints)}
    if cfg.monitor:
        load["monitor"] = cfg.monitor
    if cfg.nominal_area is not None:
        load["nominal_area"] = repr(cfg.nominal_area)
    if cfg.gauge_length is not None:
        load["gauge_length"] = repr(cfg.gauge_length)
    load["nominal_sign"] = repr(cfg.nominal_sign)
    cp["load"] = load
    cp["perturbation"] = {"eta": repr(cfg.eta),
                          "interval": repr(cfg.interval),
                          "seed": str(cfg.seed)}
    cp["output"] = {"directory": cfg.directory, "stride": str(cfg.stride)}
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
