"""Pseudo-spectral toolkit for a dispersion-generalized two-dimensional
KdV-type equation on the bi-periodic torus, plus a lab of quantitative
checks for the linear group's decay machinery.

The state object is SpectralField: complex Fourier coefficients of a real
function on [0, 2pi)^2 under the normalization fhat = (2pi)^{-2} * integral
of f * e^{-i(mx+ny)} (a constant c has fhat(0,0) = c).
"""
from .errors import (
    BackwardHeatError,
    CertificateViolationError,
    ConfigError,
    DivergenceError,
    InsufficientDataError,
    InvalidInitialDataError,
    SymmetryViolationError,
)
from .grid import Grid
from .spectral import (
    SpectralField,
    bessel_potential,
    dealias,
    derivative,
    dyadic_project,
    embed_in_grid,
    field_from_modes,
    forward_transform,
    fractional_derivative,
    hermitian_defect,
    inverse_transform,
    l2_norm,
    mean_zero_x_defect,
    project_mean_zero_x,
    resample_values,
    shell_indices,
    sobolev_norm,
    truncate_to_grid,
    zero_field,
)
from .propagator import DispersionSymbol, damping_rate, dispersion_relation, propagate
from .solver import (
    SimulationConfig,
    Trajectory,
    nonlinear_term,
    simulate,
    solve_regularized_family,
    spatial_convergence_study,
    temporal_order_study,
)
from .diagnostics import (
    DiagnosticsRecord,
    commutator_check,
    commutator_scan,
    cubic_integral,
    diagnostics_csv,
    energy,
    l1t_linf_estimate_check,
    mass,
    sup_norm_diagnostics,
)
from . import estimates
from .fieldio import load_field, save_field
from .presets import initial_data, random_band_field

__all__ = [
    "BackwardHeatError",
    "CertificateViolationError",
    "ConfigError",
    "DivergenceError",
    "InsufficientDataError",
    "InvalidInitialDataError",
    "SymmetryViolationError",
    "Grid",
    "SpectralField",
    "DispersionSymbol",
    "SimulationConfig",
    "Trajectory",
    "DiagnosticsRecord",
    "bessel_potential",
    "commutator_check",
    "commutator_scan",
    "cubic_integral",
    "damping_rate",
    "dealias",
    "derivative",
    "diagnostics_csv",
    "dispersion_relation",
    "dyadic_project",
    "embed_in_grid",
    "energy",
    "estimates",
    "field_from_modes",
    "forward_transform",
    "fractional_derivative",
    "hermitian_defect",
    "initial_data",
    "inverse_transform",
    "l1t_linf_estimate_check",
    "l2_norm",
    "mean_zero_x_defect",
    "load_field",
    "mass",
    "nonlinear_term",
    "project_mean_zero_x",
    "propagate",
    "random_band_field",
    "resample_values",
    "save_field",
    "shell_indices",
    "simulate",
    "sobolev_norm",
    "solve_regularized_family",
    "spatial_convergence_study",
    "sup_norm_diagnostics",
    "temporal_order_study",
    "truncate_to_grid",
    "zero_field",
]

__version__ = "0.1.0"
