"""Measured space-time decay of the free group on frequency shells.

For data supported on the dyadic shell pair (j, k) with unit L2 norm, the
scan computes the discrete L2-in-time, sup-in-space norm of the freely
propagated field over the short window [0, 2^{-(j+k)}], takes the worst
case over random trials, and fits the observed decay exponents in j and k.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .._work import check_work
from ..grid import Grid
from ..presets import _random_real
from ..propagator import DispersionSymbol, _phase_speeds
from ..spectral import (SpectralField, _ColumnValues, _half, _nonzero_columns, _require_real,
                        _sup, l2_norm, shell_indices)
from ._shellscan import ShellScanReport, shell_lists, shell_scan

__all__ = ["shell_field", "strichartz_norm", "strichartz_scan"]


def _shell_grid(j: int, k: int, refine: int) -> Grid:
    """Smallest grid holding shell (j, k), refined for sup evaluation."""
    return Grid(nx=max(8, refine * 2 ** (j + 1)), ny=max(8, refine * 2 ** (k + 1)))


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
    rows = np.flatnonzero(shell_indices(grid.kx) == j)
    cols = np.flatnonzero(shell_indices(grid.ky) == k)
    if not (rows.size and cols.size):
        raise ValueError(f"grid {grid.nx}x{grid.ny} does not contain shell ({j}, {k})")
    field = _random_real(grid, rows, cols, rng)
    norm = l2_norm(field)
    if norm == 0.0:
        raise ValueError("degenerate draw: all shell coefficients vanished")
    field.coeffs /= norm
    return field


def strichartz_norm(phi: SpectralField, symbol: DispersionSymbol, t_max: float,
                    n_times: int = 64) -> float:
    """Discrete L2-in-time of the spatial sup of the propagated field.

    Time samples are equispaced, so the group multiplier advances by a
    single per-step factor; the accumulated phase roundoff over <= a few
    hundred steps is ~1e-14, irrelevant next to the fitted slopes.  phi must
    be a real field (SymmetryViolationError otherwise).  The time loop runs
    on one column range of its half spectrum, from its first to its last
    nonzero column (a shell field fills all of them); the group keeps every
    column outside it zero.
    """
    if n_times < 64:
        raise ValueError(f"need at least 64 time samples, got {n_times}")
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    if symbol.mu > 0:
        raise ValueError("decay scan uses the undamped group (mu = 0)")
    _require_real(phi)
    times = np.linspace(0.0, t_max, n_times)
    half = _half(phi.coeffs)
    cols = _nonzero_columns(half)
    cur = half[:, cols]
    omega = _phase_speeds(phi.grid, symbol, phi.grid.ky2d[:, cols])
    step = np.exp(1j * omega * (times[1] - times[0]))
    values = _ColumnValues(*phi.grid.shape, cols)
    sups = np.empty(n_times)
    for i in range(n_times):
        sups[i] = _sup(values(cur))
        cur = cur * step
    return float(np.sqrt(np.trapezoid(sups ** 2, times)))


def _cell_measurement(symbol, j, k, trials, seed, n_times, refine):
    grid = _shell_grid(j, k, refine)
    t_max = 2.0 ** (-(j + k))
    # each trial's field is freed before the next one is drawn
    rngs = (np.random.default_rng([seed, j, k, trial]) for trial in range(trials))
    return max(strichartz_norm(shell_field(grid, j, k, rng), symbol, t_max, n_times)
               for rng in rngs)


def strichartz_scan(symbol: DispersionSymbol, j_range: Sequence[int],
                    k_range: Sequence[int], trials: int = 20, seed: int = 0,
                    n_times: int = 64, refine: int = 4, eps: float = 0.05,
                    workers: int = 1) -> ShellScanReport:
    """Worst-case decay measurement across shell pairs with a slope fit.

    Reference per-cell value: 2^{(-1/2^{alpha+2} + eps) j + (-beta/4 + eps) k}.
    The fitted slopes are one-sided evidence: random data typically decays
    faster than the worst case, so slopes at or below the reference pass.
    Above the work ceiling (see dgzk._work) it raises ValueError before it
    draws.
    """
    j_list, k_list = shell_lists(symbol, j_range, k_range, {"trials": trials},
                                 fewest_k=1, least_k=0, eps=eps)
    cost = lambda j, k: math.prod(_shell_grid(j, k, refine).shape) * n_times
    check_work("strichartz", trials * sum(cost(j, k) for j in j_list for k in k_list))

    s_j = -1.0 / 2.0 ** (symbol.alpha + 2) + eps
    s_k = -symbol.beta / 4.0 + eps
    measure = lambda j, k: _cell_measurement(symbol, j, k, trials, seed, n_times, refine)
    return shell_scan(measure, cost, symbol, j_list, k_list, s_j, s_k, eps, seed,
                      {"trials": trials, "n_times": n_times, "refine": refine}, workers)
