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
from ..spectral import (_STACK_BYTES, SpectralField, _ColumnValues, _half, _nonzero_columns,
                        _require_real, l2_norm, shell_indices)
from ._shellscan import ShellScanReport, shell_lists, shell_scan

__all__ = ["shell_field", "strichartz_norm", "strichartz_scan"]


def _shell_grid(j: int, k: int, refine: int) -> Grid:
    """Smallest grid holding shell (j, k), refined for sup evaluation."""
    return Grid(nx=max(8, refine * 2 ** (j + 1)), ny=max(8, refine * 2 ** (k + 1)))


def _shell_block(grid: Grid, j: int, k: int):
    """The rows and the columns of shell (j, k) on grid, both signs of each;
    ValueError unless j >= 1, k >= 0 and the grid holds the shell."""
    if j < 1:
        raise ValueError(f"x-shell index must be >= 1, got {j}")
    if k < 0:
        raise ValueError(f"y-shell index must be >= 0, got {k}")
    rows = np.flatnonzero(shell_indices(grid.kx) == j)
    cols = np.flatnonzero(shell_indices(grid.ky) == k)
    if not (rows.size and cols.size):
        raise ValueError(f"grid {grid.nx}x{grid.ny} does not contain shell ({j}, {k})")
    return rows, cols


def shell_field(grid: Grid, j: int, k: int, rng) -> SpectralField:
    """Random real-valued field supported on x-shell j and y-shell k, unit L2.

    The x-shell index must be >= 1: shell 0 is the m = 0 band, where the
    group acts trivially and the decay statement is empty.  k = 0 (the
    n = 0 band) is allowed.
    """
    rows, cols = _shell_block(grid, j, k)
    field = _random_real(grid, rows, cols, rng)
    norm = l2_norm(field)
    if norm == 0.0:
        raise ValueError("degenerate draw: all shell coefficients vanished")
    field.coeffs[np.ix_(rows, cols)] /= norm  # 0 / norm is +0.0: the rest keeps its bits
    return field


def _norm_evaluator(grid: Grid, symbol: DispersionSymbol, cols: slice, t_max: float,
                    n_times: int):
    """norm(half): the strichartz_norm of a real field on grid from its half
    spectrum, which must be zero off the column range cols, a slice, through
    one phase step and column evaluator, whose sup takes the time samples in
    stacks of B, the most (at least 1) whose y products fit _STACK_BYTES;
    ValueError for fewer than 64 samples, t_max <= 0 or a damped symbol."""
    if n_times < 64:
        raise ValueError(f"need at least 64 time samples, got {n_times}")
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    if symbol.mu > 0:
        raise ValueError("decay scan uses the undamped group (mu = 0)")
    times = np.linspace(0.0, t_max, n_times)
    omega = _phase_speeds(grid, symbol, grid.ky2d[:, cols])
    step = np.exp(1j * omega * (times[1] - times[0]))
    values = _ColumnValues(*grid.shape, cols)
    batch = max(1, _STACK_BYTES // (16 * grid.nx * (grid.ny // 2 + 1)))
    stack = np.empty((min(batch, n_times), *step.shape), dtype=np.complex128)
    sups = np.empty(n_times)

    def norm(half: np.ndarray) -> float:
        stack[0] = half[:, cols]
        for start in range(0, n_times, batch):
            samples = stack[:n_times - start]
            for i in range(1, len(samples)):  # the phase advance, one product per sample
                np.multiply(samples[i - 1], step, out=samples[i])
            sups[start:start + batch] = values.sup(samples)
            np.multiply(samples[-1], step, out=stack[0])
        return float(np.sqrt(np.trapezoid(sups ** 2, times)))
    return norm


def strichartz_norm(phi: SpectralField, symbol: DispersionSymbol, t_max: float,
                    n_times: int = 64) -> float:
    """Discrete L2-in-time of the spatial sup of the propagated field.

    Time samples are equispaced, so the group multiplier advances by a
    single per-step factor; the accumulated phase roundoff over <= a few
    hundred steps is ~1e-14, irrelevant next to the fitted slopes.  phi must
    be a real field (SymmetryViolationError otherwise)."""
    half = _half(phi.coeffs)
    norm = _norm_evaluator(phi.grid, symbol, _nonzero_columns(half), t_max, n_times)
    _require_real(phi)
    return norm(half)


def _cell_measurement(symbol, j, k, trials, seed, n_times, refine):
    """The largest strichartz_norm over the cell's trials, each through one
    evaluator on the shell's column range, which every draw fills."""
    grid = _shell_grid(j, k, refine)
    _, cols = _shell_block(grid, j, k)
    n = cols[cols <= grid.ny // 2]  # the half spectrum's columns |n| ~ 2^k, a range
    norm = _norm_evaluator(grid, symbol, slice(int(n[0]), int(n[-1]) + 1), 2.0 ** (-(j + k)),
                           n_times)
    # each trial's field is freed before the next one is drawn
    rngs = (np.random.default_rng([seed, j, k, trial]) for trial in range(trials))
    return max(norm(_half(shell_field(grid, j, k, rng).coeffs)) for rng in rngs)


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
