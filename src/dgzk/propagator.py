"""Exact linear evolution for the dispersion-generalized model.

The linear part of the equation diagonalizes in Fourier space with phase
speed omega(m, n) = m * (|m|^{1+alpha} + sign * |n|^{1+beta}); the optional
fourth-order damping adds the decay rate gamma(m, n) = mu * (m^2 + n^2)^2.
One application multiplies each coefficient by exp((i*omega - gamma) * t),
with the phase omega * t passed to the complex exponential as it is: no
reduction mod 2*pi, which would add the rounding of the float 2*pi times
the number of turns.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BackwardHeatError
from .grid import Grid
from .spectral import SpectralField

__all__ = ["DispersionSymbol", "dispersion_relation", "damping_rate", "propagate"]


@dataclass(frozen=True)
class DispersionSymbol:
    """Parameters (alpha, beta, sign, mu) of the linear operator."""

    alpha: int
    beta: float
    sign: int = 1
    mu: float = 0.0

    def __post_init__(self):
        if self.alpha not in (1, 2, 3):
            raise ValueError(f"alpha must be one of {{1, 2, 3}}, got {self.alpha!r}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu!r}")


def dispersion_relation(m, n, symbol: DispersionSymbol):
    """omega(m, n) = m * (|m|^{1+alpha} + sign * |n|^{1+beta})."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    out = m * (np.abs(m) ** (1 + symbol.alpha) + symbol.sign * np.abs(n) ** (1.0 + symbol.beta))
    return out if out.ndim else float(out)


def damping_rate(m, n, symbol: DispersionSymbol):
    """gamma(m, n) = mu * (m^2 + n^2)^2."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    out = symbol.mu * (m**2 + n**2) ** 2
    return out if out.ndim else float(out)


def _phase_speeds(grid: Grid, symbol: DispersionSymbol, ky: np.ndarray) -> np.ndarray:
    """omega on the x wavenumbers of grid (rows) against the y wavenumbers
    ky, a row (1, k).  On the unpaired x-Nyquist row omega is even in n, so
    no phase there can map the conjugate pair (nx/2, n), (nx/2, -n)
    consistently; a zero phase keeps real fields real and the group
    unitary."""
    omega = dispersion_relation(grid.kx2d, ky, symbol)
    omega[grid.nx // 2, :] = 0.0
    return omega


def _symbol_tables(grid: Grid, symbol: DispersionSymbol):
    """omega and gamma (None when mu = 0) on grid."""
    gamma = damping_rate(grid.kx2d, grid.ky2d, symbol) if symbol.mu > 0 else None
    return _phase_speeds(grid, symbol, grid.ky2d), gamma


def propagate(field: SpectralField, t: float, symbol: DispersionSymbol) -> SpectralField:
    """Apply the linear group (mu = 0) or semigroup (mu > 0, t >= 0)."""
    if symbol.mu > 0 and t < 0:
        raise BackwardHeatError(
            f"damped evolution is a semigroup; t = {t} < 0 with mu = {symbol.mu}"
        )
    omega, gamma = _symbol_tables(field.grid, symbol)
    mult = np.exp(1j * (omega * t))
    if gamma is not None:
        mult = mult * np.exp(-gamma * t)
    return SpectralField(field.grid, field.coeffs * mult)
