"""Pseudo-spectral toolkit for a dispersion-generalized two-dimensional
KdV-type equation on the bi-periodic torus, plus a lab of quantitative
checks for the linear group's decay machinery.

The state object is SpectralField: complex Fourier coefficients of a real
function on [0, 2pi)^2 under the normalization fhat = (2pi)^{-2} * integral
of f * e^{-i(mx+ny)} (a constant c has fhat(0,0) = c).
"""
from .errors import *
from .grid import *
from .spectral import *
from .propagator import *
from .solver import *
from .diagnostics import *
from . import estimates
from .fieldio import *
from .presets import *
from . import diagnostics, errors, fieldio, grid, presets, propagator, solver, spectral

__all__ = ["estimates"] + [name for module in (errors, grid, spectral, propagator, solver,
                                               diagnostics, fieldio, presets)
                           for name in module.__all__]

__version__ = "0.1.0"
