"""Numerical laboratory for the oscillatory-sum estimates behind the model."""
from .bump import psi1
from .expsums import (
    RationalApprox,
    WeylInstance,
    WeylScanReport,
    dirichlet_approx,
    weyl_bound,
    weyl_scan,
    weyl_sum,
)
from .oscillatory import (
    OscillatoryIntegralResult,
    VanDerCorputReport,
    complex_oscillatory_quad,
    oscillatory_integral,
    vandercorput_check,
)
from .kernels import KernelQuery, KernelScanReport, kernel_decay_scan, kernel_sum
from .strichartz import StrichartzScanReport, shell_field, strichartz_norm, strichartz_scan

__all__ = [
    "psi1",
    "WeylInstance",
    "RationalApprox",
    "WeylScanReport",
    "weyl_sum",
    "dirichlet_approx",
    "weyl_bound",
    "weyl_scan",
    "OscillatoryIntegralResult",
    "VanDerCorputReport",
    "complex_oscillatory_quad",
    "oscillatory_integral",
    "vandercorput_check",
    "KernelQuery",
    "KernelScanReport",
    "kernel_sum",
    "kernel_decay_scan",
    "StrichartzScanReport",
    "shell_field",
    "strichartz_norm",
    "strichartz_scan",
]
