"""Discrete particle solver and verification kit for quasi-brittle
materials: facet-based mesomechanics, explicit and implicit transient
solvers, a quasi-static solver, energy diagnostics, and crack-field
comparison utilities."""

__version__ = "1.0.0"
