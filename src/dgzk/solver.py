"""Time integration of u_t = L u - u u_x with exact linear factor.

L is diagonal in Fourier space with eigenvalues i*omega(m, n) - gamma(m, n)
(see propagator).  The quadratic term is evaluated pseudo-spectrally as
-0.5 * d/dx (u^2) with the two-thirds dealiasing rule, which makes the
spatial discretization a true Galerkin truncation: mass and energy are
conserved exactly by the semi-discrete flow, so observed drift measures the
time integrator alone.

Two steppers are provided: exponential time differencing (ETDRK4, the
default) and a classical Runge-Kutta scheme in integrating-factor variables
(IFRK4) used as an independent cross-check.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DivergenceError, InvalidInitialDataError
from .grid import Grid
from .propagator import DispersionSymbol, _symbol_tables
from .spectral import (
    SpectralField,
    dealias,
    l2_norm,
    mean_zero_x_defect,
    project_mean_zero_x,
)
from . import diagnostics as _diag

__all__ = [
    "SimulationConfig",
    "Trajectory",
    "RegularizedFamily",
    "nonlinear_term",
    "Etdrk4Stepper",
    "Ifrk4Stepper",
    "step_etdrk4",
    "step_ifrk4",
    "simulate",
    "solve_regularized_family",
    "temporal_order_study",
    "spatial_convergence_study",
    "TemporalOrderReport",
    "SpatialConvergenceReport",
]

MEAN_ZERO_TOL = 1e-12
CFL_LIMIT = 0.5
PHASE_PER_STEP_LIMIT = 1e6
CONTOUR_POINTS = 32
CONTOUR_SWITCH = 0.5


@dataclass(frozen=True)
class SimulationConfig:
    grid: Grid
    symbol: DispersionSymbol
    dt: float
    t_end: float
    integrator: str = "etdrk4"
    record_every: int = 1
    h_s: tuple = (1.0,)

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.record_every < 1 or int(self.record_every) != self.record_every:
            raise ValueError(f"record_every must be a positive integer, got {self.record_every}")
        if self.integrator not in ("etdrk4", "ifrk4"):
            raise ValueError(f"integrator must be 'etdrk4' or 'ifrk4', got {self.integrator!r}")


@dataclass
class Trajectory:
    """Strided snapshots with diagnostics at the same recorded times."""

    times: np.ndarray
    states: list
    diagnostics: list
    config: SimulationConfig
    # L2 deficit 2 * mu * integral of ||laplacian u||_{L2}^2, accumulated
    # every step by the trapezoid rule; None when mu = 0.  The coefficient 2
    # is forced: multiplying the equation by u gives
    # d/dt ||u||^2 = -2 mu ||laplacian u||^2.
    dissipation: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.diagnostics)):
            raise ValueError("times, states and diagnostics must have equal length")
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")

    @property
    def final_state(self) -> SpectralField:
        return self.states[-1]


def _build_nonlinear(grid: Grid):
    """Return a coefficient-array map c -> dealiased coefficients of -0.5 d/dx(u^2)."""
    n = grid.nx * grid.ny
    mask = (np.abs(grid.kx2d) <= grid.nx / 3.0) & (np.abs(grid.ky2d) <= grid.ny / 3.0)
    deriv_x = -0.5j * grid.kx2d

    def apply(c: np.ndarray) -> np.ndarray:
        u = np.fft.ifft2(c * n).real
        sq = np.fft.fft2(u * u) / n
        return deriv_x * sq * mask

    return apply


def nonlinear_term(field: SpectralField) -> SpectralField:
    """-0.5 * d/dx (u^2), evaluated pseudo-spectrally and dealiased."""
    apply = _build_nonlinear(field.grid)
    return SpectralField(field.grid, apply(field.coeffs))


def _etdrk4_phi(z: np.ndarray):
    """E, E2 and the four quadrature weights of the scheme, per eigenvalue.

    Direct formulas suffer cancellation near z = 0, so for 0 < |z| < 1/2
    each value is replaced by the average over a unit circle of 32 points
    centered at z (the integrand is analytic, so the contour mean equals
    the value at the center).  At z = 0 the weights take their exact
    limits q = 1/2, f1 = f2 = f3 = 1/6.
    """
    E = np.exp(z)
    E2 = np.exp(z / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        z2, z3 = z * z, z * z * z
        q = (E2 - 1.0) / z
        f1 = (-4.0 - z + E * (4.0 - 3.0 * z + z2)) / z3
        f2 = (2.0 + z + E * (z - 2.0)) / z3
        f3 = (-4.0 - 3.0 * z - z2 + E * (4.0 - z)) / z3
    zero = z == 0
    q[zero] = 0.5
    f1[zero] = f2[zero] = f3[zero] = 1.0 / 6.0
    small = (np.abs(z) < CONTOUR_SWITCH) & ~zero
    if np.any(small):
        pts = np.exp(2j * np.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS)
        zs = z[small][:, None] + pts[None, :]
        Es = np.exp(zs)
        zs2, zs3 = zs * zs, zs * zs * zs
        q[small] = ((np.exp(zs / 2.0) - 1.0) / zs).mean(axis=1)
        f1[small] = ((-4.0 - zs + Es * (4.0 - 3.0 * zs + zs2)) / zs3).mean(axis=1)
        f2[small] = ((2.0 + zs + Es * (zs - 2.0)) / zs3).mean(axis=1)
        f3[small] = ((-4.0 - 3.0 * zs - zs2 + Es * (4.0 - zs)) / zs3).mean(axis=1)
    return E, E2, q, f1, f2, f3


def _linear_eigenvalues(grid: Grid, symbol: DispersionSymbol) -> np.ndarray:
    omega, gamma = _symbol_tables(grid, symbol)
    lam = 1j * omega
    if gamma is not None:
        lam = lam - gamma
    return lam


class Etdrk4Stepper:
    """Fourth-order exponential time differencing with fixed step."""

    def __init__(self, grid: Grid, symbol: DispersionSymbol, dt: float,
                 nonlinear: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.grid = grid
        self.symbol = symbol
        self.dt = dt
        lam = _linear_eigenvalues(grid, symbol)
        E, E2, q, f1, f2, f3 = _etdrk4_phi(dt * lam)
        self.E, self.E2 = E, E2
        self.Q = dt * q
        self.F1, self.F2, self.F3 = dt * f1, dt * f2, dt * f3
        self.nonlinear = nonlinear if nonlinear is not None else _build_nonlinear(grid)

    def step(self, c: np.ndarray) -> np.ndarray:
        n1 = self.nonlinear(c)
        a = self.E2 * c + self.Q * n1
        n2 = self.nonlinear(a)
        b = self.E2 * c + self.Q * n2
        n3 = self.nonlinear(b)
        d = self.E2 * a + self.Q * (2.0 * n3 - n1)
        n4 = self.nonlinear(d)
        return self.E * c + self.F1 * n1 + 2.0 * self.F2 * (n2 + n3) + self.F3 * n4


class Ifrk4Stepper:
    """Classical RK4 in integrating-factor variables; cross-check scheme."""

    def __init__(self, grid: Grid, symbol: DispersionSymbol, dt: float,
                 nonlinear: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.grid = grid
        self.symbol = symbol
        self.dt = dt
        lam = _linear_eigenvalues(grid, symbol)
        self.E = np.exp(dt * lam)
        self.E2 = np.exp(0.5 * dt * lam)
        self.nonlinear = nonlinear if nonlinear is not None else _build_nonlinear(grid)

    def step(self, c: np.ndarray) -> np.ndarray:
        h = self.dt
        k1 = self.nonlinear(c)
        k2 = self.nonlinear(self.E2 * (c + 0.5 * h * k1))
        k3 = self.nonlinear(self.E2 * c + 0.5 * h * k2)
        k4 = self.nonlinear(self.E * c + h * self.E2 * k3)
        return self.E * c + (h / 6.0) * (self.E * k1 + 2.0 * self.E2 * (k2 + k3) + k4)


_STEPPERS = {"etdrk4": Etdrk4Stepper, "ifrk4": Ifrk4Stepper}


def step_etdrk4(field: SpectralField, dt: float, symbol: DispersionSymbol) -> SpectralField:
    stepper = Etdrk4Stepper(field.grid, symbol, dt)
    return SpectralField(field.grid, stepper.step(field.coeffs))


def step_ifrk4(field: SpectralField, dt: float, symbol: DispersionSymbol) -> SpectralField:
    stepper = Ifrk4Stepper(field.grid, symbol, dt)
    return SpectralField(field.grid, stepper.step(field.coeffs))


def _laplacian_sq_weight(grid: Grid) -> np.ndarray:
    return (grid.kx2d**2 + grid.ky2d**2) ** 2


def _check_guards(grid: Grid, dt: float, c: np.ndarray, warned: dict):
    if not warned.get("cfl"):
        n = grid.nx * grid.ny
        umax = float(np.max(np.abs(np.fft.ifft2(c * n).real)))
        if dt * umax * (grid.nx / 2.0) > CFL_LIMIT:
            warnings.warn(
                f"nonlinear CFL guard: dt * max|u| * max|m| = "
                f"{dt * umax * (grid.nx / 2.0):.3g} exceeds {CFL_LIMIT}",
                RuntimeWarning,
            )
            warned["cfl"] = True


def simulate(config: SimulationConfig, phi: SpectralField) -> Trajectory:
    """March the initial state to t_end, recording strided snapshots.

    The run takes n = max(1, round(t_end / dt)) steps of t_end / n, so it
    ends at t_end exactly.  Initial data must be mean-zero in x: a relative
    defect up to 1e-12 is projected away silently, anything larger is
    rejected.
    """
    grid = config.grid
    if phi.grid != grid:
        raise ValueError("initial data grid does not match configuration grid")
    defect = mean_zero_x_defect(phi)
    if defect > MEAN_ZERO_TOL:
        raise InvalidInitialDataError(
            f"initial data carries relative weight {defect:.3e} on the m = 0 modes; "
            f"the model requires zero mean in x (tolerance {MEAN_ZERO_TOL:.0e})"
        )
    phi = dealias(project_mean_zero_x(phi))
    n_steps = max(1, int(round(config.t_end / config.dt)))
    dt = config.t_end / n_steps

    lam = _linear_eigenvalues(grid, config.symbol)
    max_phase = float(np.max(np.abs(lam.imag))) * dt
    if max_phase > PHASE_PER_STEP_LIMIT:
        warnings.warn(
            f"linear phase per step is {max_phase:.3g} radians; "
            "accuracy of the exponential factor degrades at this magnitude",
            RuntimeWarning,
        )

    stepper = _STEPPERS[config.integrator](grid, config.symbol, dt)

    mu = config.symbol.mu
    lap_w = _laplacian_sq_weight(grid) if mu > 0 else None
    four_pi_sq = (2.0 * np.pi) ** 2

    def lap_sq_norm(cc):
        return four_pi_sq * float(np.sum(lap_w * np.abs(cc) ** 2))

    c = phi.coeffs.copy()
    warned: dict = {}
    _check_guards(grid, dt, c, warned)

    rec_times = [0.0]
    rec_states = [SpectralField(grid, c.copy())]
    rec_diss = [0.0]
    diss_accum = 0.0
    prev_lap = lap_sq_norm(c) if mu > 0 else 0.0

    for i in range(1, n_steps + 1):
        c = stepper.step(c)
        if not np.all(np.isfinite(c)):
            raise DivergenceError(step=i, t=i * dt)
        if mu > 0:
            cur = lap_sq_norm(c)
            diss_accum += 0.5 * dt * (prev_lap + cur)
            prev_lap = cur
        if i % config.record_every == 0 or i == n_steps:
            rec_times.append(config.t_end if i == n_steps else i * dt)
            rec_states.append(SpectralField(grid, c.copy()))
            rec_diss.append(diss_accum)
            _check_guards(grid, dt, c, warned)

    times = np.array(rec_times)
    records = _diag.build_records(times, rec_states, config.symbol, config.h_s)
    dissipation = 2.0 * mu * np.array(rec_diss) if mu > 0 else None
    return Trajectory(times=times, states=rec_states, diagnostics=records,
                      config=config, dissipation=dissipation)


@dataclass
class RegularizedFamily:
    """Runs of the damped equation for a decreasing list of mu values."""

    mus: list
    reference: Trajectory                  # mu = 0 run
    trajectories: list                     # aligned with mus
    l2_gaps: np.ndarray                    # ||u_mu(T) - u_0(T)||_{L2}
    identity_residuals: np.ndarray         # max_t relative defect of the L2 balance


def l2_identity_residual(traj: Trajectory) -> float:
    """Largest relative defect of ||phi||^2 = ||u(t)||^2 + D(t), where D is
    the accumulated dissipation 2 mu int ||laplacian u||^2."""
    if traj.dissipation is None:
        raise ValueError("trajectory was not produced by a damped (mu > 0) run")
    norms_sq = np.array([l2_norm(s) ** 2 for s in traj.states])
    phi_sq = norms_sq[0]
    residual = np.abs(phi_sq - norms_sq - traj.dissipation)
    return float(np.max(residual) / phi_sq)


def solve_regularized_family(config: SimulationConfig, phi: SpectralField,
                             mu_list: Sequence[float]) -> RegularizedFamily:
    mus = list(mu_list)
    if not mus or any(m <= 0 for m in mus):
        raise ValueError("mu_list must contain positive values")
    if any(b >= a for a, b in zip(mus, mus[1:])):
        raise ValueError("mu_list must be strictly decreasing")

    ref_config = replace(config, symbol=replace(config.symbol, mu=0.0))
    reference = simulate(ref_config, phi)
    ref_final = reference.final_state.coeffs

    trajectories = []
    gaps = []
    residuals = []
    for mu in mus:
        cfg = replace(config, symbol=replace(config.symbol, mu=mu))
        traj = simulate(cfg, phi)
        trajectories.append(traj)
        diff = SpectralField(config.grid, traj.final_state.coeffs - ref_final)
        gaps.append(l2_norm(diff))
        residuals.append(l2_identity_residual(traj))
    return RegularizedFamily(
        mus=mus,
        reference=reference,
        trajectories=trajectories,
        l2_gaps=np.array(gaps),
        identity_residuals=np.array(residuals),
    )


def _integrate_raw(stepper, c0: np.ndarray, n_steps: int) -> np.ndarray:
    c = c0.copy()
    for i in range(n_steps):
        c = stepper.step(c)
        if not np.all(np.isfinite(c)):
            raise DivergenceError(step=i + 1, t=(i + 1) * stepper.dt)
    return c


@dataclass
class TemporalOrderReport:
    dts: np.ndarray
    errors: np.ndarray
    pairwise_orders: np.ndarray
    fitted_order: float


def temporal_order_study(grid: Grid, symbol: DispersionSymbol, phi: SpectralField,
                         t_end: float, dts: Sequence[float], integrator: str = "etdrk4",
                         ref_refine: int = 8) -> TemporalOrderReport:
    """Error against a refined reference run for each dt; fitted slope."""
    dts = np.asarray(sorted(dts, reverse=True), dtype=float)
    phi = dealias(project_mean_zero_x(phi))
    cls = _STEPPERS[integrator]
    ref_dt = dts.min() / ref_refine
    n_ref = int(round(t_end / ref_dt))
    ref = _integrate_raw(cls(grid, symbol, t_end / n_ref), phi.coeffs, n_ref)
    errors = []
    for dt in dts:
        n = int(round(t_end / dt))
        final = _integrate_raw(cls(grid, symbol, t_end / n), phi.coeffs, n)
        errors.append(l2_norm(SpectralField(grid, final - ref)))
    errors = np.array(errors)
    with np.errstate(divide="ignore"):
        pairwise = np.log2(errors[:-1] / errors[1:]) / np.log2(dts[:-1] / dts[1:])
    A = np.vstack([np.ones_like(dts), np.log(dts)]).T
    slope = float(np.linalg.lstsq(A, np.log(errors), rcond=None)[0][1])
    return TemporalOrderReport(dts=dts, errors=errors, pairwise_orders=pairwise,
                               fitted_order=slope)


@dataclass
class SpatialConvergenceReport:
    n_values: np.ndarray
    errors: np.ndarray
    decades_per_doubling: np.ndarray
    floor: float


def spatial_convergence_study(symbol: DispersionSymbol, profile, n_values: Sequence[int],
                              t_end: float, dt: float,
                              floor: float = 1e-12) -> SpatialConvergenceReport:
    """Error of each resolution against a doubled reference resolution.

    profile(grid) must return the same analytic initial field sampled on the
    given grid.  All runs share dt so the comparison isolates the spatial
    truncation; errors are measured on the common coefficient band.
    """
    from .spectral import truncate_to_grid

    n_values = sorted(int(n) for n in n_values)
    ref_grid = Grid(2 * n_values[-1], 2 * n_values[-1])
    ref_cfg = SimulationConfig(grid=ref_grid, symbol=symbol, dt=dt, t_end=t_end,
                               record_every=10**9)
    ref = simulate(ref_cfg, profile(ref_grid)).final_state
    errors = []
    for n in n_values:
        grid = Grid(n, n)
        cfg = SimulationConfig(grid=grid, symbol=symbol, dt=dt, t_end=t_end,
                               record_every=10**9)
        final = simulate(cfg, profile(grid)).final_state
        diff = final.coeffs - truncate_to_grid(ref, grid).coeffs
        errors.append(l2_norm(SpectralField(grid, diff)))
    errors = np.array(errors, dtype=float)
    clipped = np.maximum(errors, floor)
    decades = np.log10(clipped[:-1] / clipped[1:])
    return SpatialConvergenceReport(
        n_values=np.array(n_values), errors=errors,
        decades_per_doubling=decades, floor=floor,
    )
