"""Discrete particle solver and verification kit for quasi-brittle
materials: facet-based mesomechanics, explicit and implicit transient
solvers, a quasi-static solver, energy diagnostics, and crack-field
comparison utilities."""

from .geometry import (
    FacetTable,
    Mesh,
    MeshError,
    build_block_specimen,
    build_fixture,
    load_mesh,
    select_nodes,
    validate_mesh,
    write_mesh,
)
from .material import FacetStateArray, MaterialParams, SnapBackError, \
    facet_update
from .assembly import (
    AssemblyError,
    SystemOperators,
    assemble_lumped_mass,
    assemble_stiffness,
    crack_openings,
    critical_timestep,
    internal_forces,
)
from .integrators import (
    ConvergenceSpec,
    DivergenceError,
    ExplicitIntegrator,
    GeneralizedAlphaIntegrator,
    GenAlphaParams,
    LoadProgram,
    NonConvergenceError,
    StaticSolver,
    genalpha_from_rho,
    hht_params,
    newmark_params,
)
from .diagnostics import EnergyLedger, Spectrum, energy_balance_error, \
    fft_peaks, kinetic_energy
from .compare import CompareError, FieldSample, compare_fields, \
    load_field_dump, nrmse, pearson
from .config import ConfigError, RunConfig, parse_config, write_config
from .presets import PRESET_NAMES, preset_config
from .runner import RunRecord, resolve_constraints, run

__version__ = "1.0.0"
