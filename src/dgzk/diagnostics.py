"""Conserved quantities, sup norms, and inequality checks along trajectories.

Integrals of powers of u are taken on the 2x zero-padded grid, exact for the
solver's band-limited states (u^3 of a field with |m| <= nx/3 has modes up
to nx), and sup norms are its grid maxima.  Fields are real (any other
raises SymmetryViolationError) and are evaluated there by
spectral._RefinedPlanes, to about 4e-16 relative of a complex evaluation.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from ._work import check_work
from .errors import InsufficientDataError
from .estimates._shellscan import parallel_map
from .grid import Grid
from .presets import random_band_field
from .propagator import DispersionSymbol
from .spectral import (
    FOUR_PI_SQ,
    RecordedStates,
    SpectralField,
    _RefinedPlanes,
    _block,
    _block_dims,
    _check_sobolev_index,
    _half,
    _half_sq,
    _real_coeffs,
    _sobolev_weight,
    _sup,
    _weighted_norm,
    bessel_potential,
    forward_transform,
    l2_norm,
)

__all__ = ["DiagnosticsRecord", "mass", "energy", "cubic_integral", "sup_norm_diagnostics",
           "build_records", "diagnostics_csv", "commutator_check", "commutator_scan",
           "CommutatorScanReport", "l1t_linf_estimate_check", "L1tLinfReport"]
_LAST_GRID = threading.local()  # per thread: the last commutator_check's grid, planes, 2x grid

@dataclass
class DiagnosticsRecord:
    t: float
    mass: float
    energy: float
    h_s_norms: Dict[float, float]
    sup_u: float
    sup_ux: float
    sup_uy: float
    g_accum: float


def _mass(sq: np.ndarray) -> float:
    return FOUR_PI_SQ * float(np.sum(sq))


def mass(field: SpectralField) -> float:
    """integral of u^2 over the square, computed coefficient-side."""
    return _mass(np.abs(field.coeffs) ** 2)


def _cubic(values: np.ndarray) -> float:
    """integral of u^3 from real point values on the 2x grid."""
    return FOUR_PI_SQ * float(np.mean(values * values * values))


def cubic_integral(field: SpectralField) -> float:
    """integral of u^3, via 2x zero-padded quadrature (exact when band-limited)."""
    return _cubic(next(_RefinedPlanes(field.grid)(field)))


def _energy_weight(grid: Grid, symbol: DispersionSymbol) -> np.ndarray:
    """|m|^{1+alpha} + sign * |n|^{1+beta}, the weight of |u_hat|^2 in the energy."""
    return (np.abs(grid.kx2d) ** (1 + symbol.alpha)
            + symbol.sign * np.abs(grid.ky2d) ** (1.0 + symbol.beta))


def _quadratic_energy(weight: np.ndarray, sq: np.ndarray) -> float:
    return 0.5 * FOUR_PI_SQ * float(np.sum(weight * sq))


def energy(field: SpectralField, symbol: DispersionSymbol) -> float:
    """Hamiltonian E = 0.5 * (2*pi)^2 * sum (|m|^{1+alpha} + sign * |n|^{1+beta})
    |u_hat|^2 - (1/6) * integral of u^3."""
    quad = _quadratic_energy(_energy_weight(field.grid, symbol), np.abs(field.coeffs) ** 2)
    return quad - cubic_integral(field) / 6.0


def sup_norm_diagnostics(field: SpectralField) -> Tuple[float, float, float]:
    """(max|u|, max|u_x|, max|u_y|) on the 2x interpolated grid, the
    refinement every diagnostics record uses."""
    return tuple(map(_sup, _RefinedPlanes(field.grid)(field)))


class _Records:
    """records(t, state): the record of a run's next state, a Galerkin block of
    grid (on_blocks) or a SpectralField, g_accum summed from the first one."""

    def __init__(self, grid: Grid, symbol: DispersionSymbol, h_s, on_blocks: bool = True):
        # the weights of |u_hat|^2 and |u_hat|^2 itself on a block (see _half_sq) or a field
        part = (lambda w: _block(w, *_block_dims(grid))) if on_blocks else (lambda w: w)
        self.square = ((lambda b: _half_sq(b, grid.ny)) if on_blocks
                       else (lambda f: np.abs(f.coeffs) ** 2))
        self.energy_w = part(_energy_weight(grid, symbol))
        self.sobolev_w = {s: part(_sobolev_weight(grid, s)) for s in h_s}
        self.planes = _RefinedPlanes(grid)
        self.last = None  # the last state's t, summed sups and g_accum

    def __call__(self, t, state) -> DiagnosticsRecord:
        state_planes = self.planes(state)
        u = next(state_planes)
        su, cubic = _sup(u), _cubic(u)
        sx, sy = map(_sup, state_planes)
        g = 0.0
        if self.last is not None:
            t0, sups0, g0 = self.last
            g = g0 + 0.5 * (t - t0) * ((su + sx + sy) + sups0)
        sq = self.square(state)
        record = DiagnosticsRecord(
            t=float(t), mass=_mass(sq), energy=_quadratic_energy(self.energy_w, sq) - cubic / 6.0,
            h_s_norms={s: _weighted_norm(w, sq) for s, w in self.sobolev_w.items()},
            sup_u=su, sup_ux=sx, sup_uy=sy, g_accum=g)
        self.last = t, su + sx + sy, g
        return record


def build_records(times, states, symbol: DispersionSymbol, h_s=(1.0,)) -> list:
    """One record per state of a run's RecordedStates, summed on its blocks,
    or of a sequence of SpectralFields; g_accum is the trapezoid integral of
    the summed sups."""
    if not states:
        return []
    on_blocks = isinstance(states, RecordedStates)
    records = _Records(states.grid if on_blocks else states[0].grid, symbol, h_s, on_blocks)
    return [records(t, state) for t, state in zip(times, states.blocks if on_blocks else states)]


def diagnostics_csv(records: list, h_s) -> Tuple[list, list]:
    """(header, rows) for the table of a run's records, with its h_s norms."""
    header = ["t", "mass", "energy", *(f"h{s:g}" for s in h_s),
              "sup_u", "sup_ux", "sup_uy", "g_accum"]
    return header, [[r.t, r.mass, r.energy, *(r.h_s_norms[s] for s in h_s),
                     r.sup_u, r.sup_ux, r.sup_uy, r.g_accum] for r in records]


@lru_cache(maxsize=8)
def _bessel_multipliers(grid: Grid, s: float) -> tuple:
    """Read-only J^s on grid and on the 2x grid's half spectrum, and J^{s-1} on grid."""
    base = 1.0 + grid.kx2d**2 + grid.ky2d**2  # 1 + |k|^2
    big = Grid(2 * grid.nx, 2 * grid.ny)
    tables = (base ** (s / 2.0), (1.0 + big.kx2d**2 + _half(big.ky2d)**2) ** (s / 2.0),
              base ** ((s - 1.0) / 2.0))
    for table in tables:
        table.setflags(write=False)
    return tables


def commutator_check(f: SpectralField, g: SpectralField, s: float) -> Tuple[float, float]:
    """Left and right side of the commutator estimate for J^s = (1 - lap)^{s/2}.

    lhs = ||J^s(fg) - f J^s g||_{L2}
    rhs = ||J^s f|| * ||g||_inf + (||f||_inf + ||grad f||_inf) * ||J^{s-1} g||

    Products are formed on a doubled grid, exact for band-limited inputs,
    and the difference on its half spectrum (see spectral._half_sq).  f and
    g must be real (SymmetryViolationError otherwise); J^s g, which is real
    with g, is not checked again and takes g's columns.  s must keep
    (1 + |k|^2)^s finite on the 2x grid (see spectral._check_sobolev_index)."""
    if not (math.isfinite(s) and s >= 1):
        raise ValueError(f"s must be finite and >= 1, got {s}")
    if f.grid != g.grid:
        raise ValueError("fields must share a grid")
    grid = f.grid
    last = _LAST_GRID.__dict__
    if last.get("grid") != grid:
        last.update(grid=grid, planes=_RefinedPlanes(grid), big=Grid(2 * grid.nx, 2 * grid.ny))
    planes = last["planes"]
    _check_sobolev_index(last["big"], s)  # J^s squared on the 2x grid

    constant_f = not np.any(f.coeffs.ravel()[1:])  # f_hat vanishes off (0, 0)

    # each plane overwrites the last, so f is copied for the products
    f_planes = planes(f)
    f_vals = next(f_planes).copy()
    grad_sq = np.square(next(f_planes))
    grad_sq += np.square(next(f_planes))
    grad_inf = math.sqrt(float(grad_sq.max()))  # max |grad f|, no hypot per point
    g_data = planes.data(g)
    g_vals = next(planes.of_data(g_data))
    sup_g = _sup(g_vals)
    js, js_big, js_less = _bessel_multipliers(grid, s)

    if constant_f:
        # multipliers commute with constants identically
        lhs = 0.0
    else:
        diff = _real_coeffs(f_vals * g_vals)
        diff *= js_big
        diff -= _real_coeffs(f_vals * next(planes.of_data(g_data * js[:, :g_data.shape[1]])))
        lhs = 2.0 * np.pi * math.sqrt(float(np.sum(_half_sq(diff, 2 * grid.ny))))

    rhs = (l2_norm(SpectralField(grid, f.coeffs * js)) * sup_g
           + (_sup(f_vals) + grad_inf)
           * l2_norm(SpectralField(grid, g.coeffs * js_less)))
    return lhs, rhs


@dataclass
class CommutatorScanReport:
    band: int
    rows: list           # (s, pair, lhs, rhs, ratio)
    max_ratio: float


def commutator_scan(grid: Grid, pairs: int, s_values: Sequence[float], seed: int,
                    band: int = None, workers: int = 1) -> CommutatorScanReport:
    """commutator_check on `pairs` random real pairs with |m|, |n| <= band
    (None: max(1, nx // 4)) per s.  Pair `trial` of s_values[si] draws from
    default_rng([seed, si, trial]), so the rows do not depend on workers.
    Work above the ceiling (see dgzk._work) raises ValueError before a draw."""
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    big = Grid(2 * grid.nx, 2 * grid.ny)  # commutator_check's grid: refused before a draw
    check_work("commutator", pairs * len(s_values) * big.nx * big.ny)
    if band is None:
        band = max(1, grid.nx // 4)

    def one(task):
        si, trial = task
        rng = np.random.default_rng([seed, si, trial])
        f = random_band_field(grid, band, rng, mean_zero_x=False)
        g = random_band_field(grid, band, rng, mean_zero_x=False)
        lhs, rhs = commutator_check(f, g, s_values[si])
        return (s_values[si], trial, lhs, rhs, lhs / rhs if rhs else 0.0)

    tasks = [(si, trial) for si in range(len(s_values)) for trial in range(pairs)]
    try:
        rows = parallel_map(one, tasks, workers)
    finally:
        _LAST_GRID.__dict__.clear()  # this thread's 2x buffers, 80 nx ny bytes
    return CommutatorScanReport(band=band, rows=rows, max_ratio=max(r[4] for r in rows))


@dataclass
class L1tLinfReport:
    lhs: float
    rhs: float
    ratio: float
    s1: float
    s2: float
    t_end: float


def l1t_linf_estimate_check(trajectory, s1: float, s2: float) -> L1tLinfReport:
    """Compare the time-integrated sup norm against its smoothing majorant.

    lhs = integral over [0, T] of ||u(t)||_inf
    rhs = T^{1/2} * ( max_t ||Jx^{s1} Jy^{s2} u||_{L2}
                      + integral of ||Jx^{s1} (u^2/2)||_{L2} )

    Requires an undamped trajectory with at least 4 records and exponents
    s1 > 1/2 - 1/2^{alpha+2}, s2 > 1/2 - beta/4.
    """
    if len(trajectory.times) < 4:
        raise InsufficientDataError(
            f"need at least 4 recorded times, got {len(trajectory.times)}"
        )
    symbol = trajectory.config.symbol
    if symbol.mu != 0:
        raise ValueError("estimate applies to the undamped flow; got mu > 0")
    s1_min = 0.5 - 0.5 ** (symbol.alpha + 2)
    s2_min = 0.5 - symbol.beta / 4.0
    if not (math.isfinite(s1) and s1 > s1_min):
        raise ValueError(f"s1 must be finite and exceed 1/2 - 1/2^(alpha+2) = {s1_min}, got {s1}")
    if not (math.isfinite(s2) and s2 > s2_min):
        raise ValueError(f"s2 must be finite and exceed 1/2 - beta/4 = {s2_min}, got {s2}")

    times = trajectory.times
    t_end = float(times[-1])
    sups = np.array([r.sup_u for r in trajectory.diagnostics])
    lhs = float(np.trapezoid(sups, times))

    grid = trajectory.config.grid
    big = Grid(2 * grid.nx, 2 * grid.ny)
    planes = _RefinedPlanes(grid)
    mixed_max = 0.0
    source_norms = []
    for state in trajectory.states:
        mixed = bessel_potential(bessel_potential(state, s1, mode="x"), s2, mode="y")
        mixed_max = max(mixed_max, l2_norm(mixed))
        vals = next(planes(state))
        f_field = forward_transform(big, 0.5 * vals * vals)
        source_norms.append(l2_norm(bessel_potential(f_field, s1, mode="x")))
    source_l1 = float(np.trapezoid(np.array(source_norms), times))

    rhs = np.sqrt(t_end) * (mixed_max + source_l1)
    ratio = lhs / rhs if rhs > 0 else 0.0
    return L1tLinfReport(lhs=lhs, rhs=rhs, ratio=ratio, s1=s1, s2=s2, t_end=t_end)
