"""Measured space-time decay of the free group on frequency shells.

For data supported on the dyadic shell pair (j, k) with unit L2 norm, the
scan computes the discrete L2-in-time, sup-in-space norm of the freely
propagated field over the short window [0, 2^{-(j+k)}], takes the worst
case over random trials, and fits the observed decay exponents in j and k.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import InsufficientDataError
from ..grid import Grid
from ..propagator import DispersionSymbol, _symbol_tables
from ..spectral import (HERMITIAN_TOL, SpectralField, _conj_reflect, hermitian_defect,
                        shell_indices)
from ._shellscan import shell_scan

__all__ = [
    "StrichartzScanReport",
    "shell_field",
    "strichartz_norm",
    "strichartz_scan",
]


def _shell_grid(j: int, k: int, refine: int) -> Grid:
    """Smallest grid holding shell (j, k), refined for sup evaluation."""
    nx = max(8, refine * 2 ** (j + 1))
    ny = max(8, refine * 2 ** (k + 1))
    return Grid(nx=nx, ny=ny)


def shell_field(grid: Grid, j: int, k: int, rng) -> SpectralField:
    """Random real-valued field supported on x-shell j and y-shell k, unit L2.

    The x-shell index must be >= 1: shell 0 is the m = 0 band, where the
    group acts trivially and the decay statement is empty.  k = 0 (the
    n = 0 band) is allowed.
    """
    if j < 1:
        raise ValueError(f"x-shell index must be >= 1, got {j}")
    if k < 0:
        raise ValueError(f"y-shell index must be >= 0, got {k}")
    sx = shell_indices(grid.kx)
    sy = shell_indices(grid.ky)
    mask = (sx[:, None] == j) & (sy[None, :] == k)
    if not mask.any():
        raise ValueError(f"grid {grid.nx}x{grid.ny} does not contain shell ({j}, {k})")

    z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    z = np.where(mask, z, 0.0)
    # Hermitian-symmetrize; the mask is invariant under index negation
    z = 0.5 * (z + _conj_reflect(z))
    norm = 2.0 * np.pi * np.sqrt(np.sum(np.abs(z) ** 2))
    if norm == 0.0:
        raise ValueError("degenerate draw: all shell coefficients vanished")
    return SpectralField(grid=grid, coeffs=z / norm)


def strichartz_norm(phi: SpectralField, symbol: DispersionSymbol, t_max: float,
                    n_times: int = 64) -> float:
    """Discrete L2-in-time of the spatial sup of the propagated field.

    Time samples are equispaced, so the group multiplier advances by a
    single per-step factor instead of a fresh exponential per sample; the
    accumulated phase roundoff over <= a few hundred steps is ~1e-14 and
    irrelevant next to the fitted slopes.  Real (Hermitian) fields go
    through the half-spectrum real transform, non-Hermitian fields through
    the full complex one.
    """
    if n_times < 64:
        raise ValueError(f"need at least 64 time samples, got {n_times}")
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    omega, gamma = _symbol_tables(phi.grid, symbol)
    if gamma is not None:
        raise ValueError("decay scan uses the undamped group (mu = 0)")
    times = np.linspace(0.0, t_max, n_times)
    dt = times[1] - times[0]
    nx, ny = phi.grid.shape
    scale = nx * ny
    sups = np.empty(n_times)
    if hermitian_defect(phi) <= HERMITIAN_TOL:
        half = ny // 2 + 1
        cur = phi.coeffs[:, :half].copy()
        step = np.exp(1j * omega[:, :half] * dt)
        for i in range(n_times):
            sups[i] = np.abs(np.fft.irfft2(cur, s=(nx, ny))).max() * scale
            cur = cur * step
    else:
        cur = phi.coeffs.copy()
        step = np.exp(1j * omega * dt)
        for i in range(n_times):
            sups[i] = np.abs(np.fft.ifft2(cur)).max() * scale
            cur = cur * step
    return float(np.sqrt(np.trapezoid(sups ** 2, times)))


@dataclass
class StrichartzScanReport:
    alpha: int
    beta: float
    sign: int
    eps: float
    seed: int
    trials: int
    n_times: int
    refine: int
    cells: list          # rows (j, k, measured, bound, ratio)
    slope_j: float
    slope_k: float
    intercept: float
    max_ratio: float


def _cell_measurement(symbol, j, k, trials, seed, n_times, refine):
    grid = _shell_grid(j, k, refine)
    t_max = 2.0 ** (-(j + k))
    best = 0.0
    for trial in range(trials):
        rng = np.random.default_rng([seed, j, k, trial])
        phi = shell_field(grid, j, k, rng)
        best = max(best, strichartz_norm(phi, symbol, t_max, n_times))
    return best


def strichartz_scan(symbol: DispersionSymbol, j_range: Sequence[int],
                    k_range: Sequence[int], trials: int = 20, seed: int = 0,
                    n_times: int = 64, refine: int = 4, eps: float = 0.05,
                    workers: int = 1) -> StrichartzScanReport:
    """Worst-case decay measurement across shell pairs with a slope fit.

    Reference per-cell value: 2^{(-1/2^{alpha+2} + eps) j + (-beta/4 + eps) k}.
    The fitted slopes are one-sided evidence: random data typically decays
    faster than the worst case, so slopes at or below the reference pass.
    """
    if symbol.mu != 0.0:
        raise ValueError("decay scan uses the undamped group (mu = 0)")
    if trials < 1:
        raise InsufficientDataError(f"trials must be >= 1, got {trials}")
    j_list = sorted(set(int(j) for j in j_range))
    k_list = sorted(set(int(k) for k in k_range))
    if min(j_list) < 1:
        raise ValueError("x-shell indices must be >= 1 (the m = 0 band is excluded)")
    if min(k_list) < 0:
        raise ValueError("y-shell indices must be >= 0")
    if len(j_list) < 2:
        raise InsufficientDataError("need at least two distinct j to fit a slope")
    if 2 ** (max(j_list) + max(k_list)) > 2 ** 20:
        raise ValueError("lattice cost exceeds the feasibility guard")

    s_j = -1.0 / 2.0 ** (symbol.alpha + 2) + eps
    s_k = -symbol.beta / 4.0 + eps
    measure = lambda j, k: _cell_measurement(symbol, j, k, trials, seed, n_times, refine)
    cells, max_ratio, slope_j, slope_k, intercept = shell_scan(
        measure, j_list, k_list, s_j, s_k, workers)
    return StrichartzScanReport(alpha=symbol.alpha, beta=symbol.beta, sign=symbol.sign,
                                eps=eps, seed=seed, trials=trials, n_times=n_times,
                                refine=refine, cells=cells, slope_j=slope_j,
                                slope_k=slope_k, intercept=intercept, max_ratio=max_ratio)
