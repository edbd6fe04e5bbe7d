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
    VdcScanReport,
    complex_oscillatory_quad,
    oscillatory_integral,
    vandercorput_check,
    vdc_scan,
)
from ._shellscan import ShellScanReport
from .kernels import KernelQuery, kernel_decay_scan, kernel_sum
from .strichartz import shell_field, strichartz_norm, strichartz_scan

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
    "VdcScanReport",
    "complex_oscillatory_quad",
    "oscillatory_integral",
    "vandercorput_check",
    "vdc_scan",
    "ShellScanReport",
    "KernelQuery",
    "kernel_sum",
    "kernel_decay_scan",
    "shell_field",
    "strichartz_norm",
    "strichartz_scan",
]
