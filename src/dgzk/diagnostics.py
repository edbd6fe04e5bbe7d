"""Conserved quantities, sup norms, and inequality checks along trajectories.

Quadrature conventions: integrals of powers of u are evaluated on a
2x zero-padded grid, which is exact for the band-limited states the solver
produces (u^3 of a field with |m| <= nx/3 has modes up to nx, resolvable on
the doubled grid).  Sup norms are grid maxima on a spectrally interpolated
refinement of the sample grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import InsufficientDataError
from .grid import Grid
from .propagator import DispersionSymbol
from .spectral import (
    SpectralField,
    bessel_potential,
    derivative,
    l2_norm,
    resample_values,
    sobolev_norm,
    transform_values,
)

__all__ = [
    "DiagnosticsRecord",
    "mass",
    "energy",
    "cubic_integral",
    "sup_norm_diagnostics",
    "build_records",
    "diagnostics_csv",
    "commutator_check",
    "l1t_linf_estimate_check",
    "L1tLinfReport",
]

FOUR_PI_SQ = (2.0 * np.pi) ** 2


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


def mass(field: SpectralField) -> float:
    """integral of u^2 over the square, computed coefficient-side."""
    return FOUR_PI_SQ * float(np.sum(np.abs(field.coeffs) ** 2))


def cubic_integral(field: SpectralField) -> float:
    """integral of u^3, via 2x zero-padded quadrature (exact when band-limited)."""
    vals = resample_values(field, 2).real
    return FOUR_PI_SQ * float(np.mean(vals**3))


def energy(field: SpectralField, symbol: DispersionSymbol, include_cubic: bool = True) -> float:
    """Hamiltonian: half the symbol-weighted quadratic form minus the cubic term.

    E = 0.5 * (2*pi)^2 * sum (|m|^{1+alpha} + sign * |n|^{1+beta}) |u_hat|^2
        - (1/6) * integral of u^3.
    """
    g = field.grid
    w = np.abs(g.kx2d) ** (1 + symbol.alpha) + symbol.sign * np.abs(g.ky2d) ** (1.0 + symbol.beta)
    quad = 0.5 * FOUR_PI_SQ * float(np.sum(w * np.abs(field.coeffs) ** 2))
    if not include_cubic:
        return quad
    return quad - cubic_integral(field) / 6.0


def sup_norm_diagnostics(field: SpectralField, refine: int = 2) -> Tuple[float, float, float]:
    """(max|u|, max|u_x|, max|u_y|) on a refine-x interpolated grid."""
    su = float(np.max(np.abs(resample_values(field, refine))))
    sx = float(np.max(np.abs(resample_values(derivative(field, "x"), refine))))
    sy = float(np.max(np.abs(resample_values(derivative(field, "y"), refine))))
    return su, sx, sy


def build_records(times, states, symbol: DispersionSymbol, h_s=(1.0,)) -> list:
    sups = [sup_norm_diagnostics(s) for s in states]
    records = []
    g = 0.0
    for i, (t, state) in enumerate(zip(times, states)):
        su, sx, sy = sups[i]
        if i > 0:
            p = sups[i - 1]
            g += 0.5 * (times[i] - times[i - 1]) * ((su + sx + sy) + (p[0] + p[1] + p[2]))
        records.append(DiagnosticsRecord(
            t=float(t),
            mass=mass(state),
            energy=energy(state, symbol),
            h_s_norms={s: sobolev_norm(state, s) for s in h_s},
            sup_u=su, sup_ux=sx, sup_uy=sy,
            g_accum=g,
        ))
    return records


def diagnostics_csv(trajectory) -> Tuple[list, list]:
    """(header, rows) for the per-record diagnostics table."""
    h_s = trajectory.config.h_s
    header = ["t", "mass", "energy"] + [f"h{s:g}" for s in h_s] + [
        "sup_u", "sup_ux", "sup_uy", "g_accum",
    ]
    rows = []
    for r in trajectory.diagnostics:
        rows.append([r.t, r.mass, r.energy] + [r.h_s_norms[s] for s in h_s]
                    + [r.sup_u, r.sup_ux, r.sup_uy, r.g_accum])
    return header, rows


def commutator_check(f: SpectralField, g: SpectralField, s: float) -> Tuple[float, float]:
    """Left and right side of the commutator estimate for J^s = (1 - lap)^{s/2}.

    lhs = ||J^s(fg) - f J^s g||_{L2}
    rhs = ||J^s f|| * ||g||_inf + (||f||_inf + ||grad f||_inf) * ||J^{s-1} g||

    Products are formed on a doubled grid, exact for band-limited inputs.
    Fields may be complex valued.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if f.grid != g.grid:
        raise ValueError("fields must share a grid")
    grid = f.grid

    nonzero = np.nonzero(f.coeffs)
    constant_f = len(nonzero[0]) == 0 or (
        len(nonzero[0]) == 1 and nonzero[0][0] == 0 and nonzero[1][0] == 0
    )

    big = Grid(2 * grid.nx, 2 * grid.ny)
    f_vals = resample_values(f, 2)
    g_vals = resample_values(g, 2)

    if constant_f:
        # multipliers commute with constants identically
        lhs = 0.0
    else:
        js_fg = bessel_potential(transform_values(big, f_vals * g_vals), s)
        jsg_vals = resample_values(bessel_potential(g, s), 2)
        f_jsg = transform_values(big, f_vals * jsg_vals)
        lhs = l2_norm(SpectralField(big, js_fg.coeffs - f_jsg.coeffs))

    fx_vals = resample_values(derivative(f, "x"), 2)
    fy_vals = resample_values(derivative(f, "y"), 2)
    grad_inf = float(np.max(np.sqrt(np.abs(fx_vals) ** 2 + np.abs(fy_vals) ** 2)))
    rhs = (
        l2_norm(bessel_potential(f, s)) * float(np.max(np.abs(g_vals)))
        + (float(np.max(np.abs(f_vals))) + grad_inf) * l2_norm(bessel_potential(g, s - 1.0))
    )
    return lhs, rhs


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
    if s1 <= s1_min:
        raise ValueError(f"s1 must exceed 1/2 - 1/2^(alpha+2) = {s1_min}, got {s1}")
    if s2 <= s2_min:
        raise ValueError(f"s2 must exceed 1/2 - beta/4 = {s2_min}, got {s2}")

    times = trajectory.times
    t_end = float(times[-1])
    sups = np.array([r.sup_u for r in trajectory.diagnostics])
    lhs = float(np.trapezoid(sups, times))

    grid = trajectory.config.grid
    big = Grid(2 * grid.nx, 2 * grid.ny)
    mixed_max = 0.0
    source_norms = []
    for state in trajectory.states:
        mixed = bessel_potential(bessel_potential(state, s1, mode="x"), s2, mode="y")
        mixed_max = max(mixed_max, l2_norm(mixed))
        vals = resample_values(state, 2)
        f_field = transform_values(big, 0.5 * vals * vals)
        source_norms.append(l2_norm(bessel_potential(f_field, s1, mode="x")))
    source_l1 = float(np.trapezoid(np.array(source_norms), times))

    rhs = np.sqrt(t_end) * (mixed_max + source_l1)
    ratio = lhs / rhs if rhs > 0 else 0.0
    return L1tLinfReport(lhs=lhs, rhs=rhs, ratio=ratio, s1=s1, s2=s2, t_end=t_end)
