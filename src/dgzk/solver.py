"""Time integration of u_t = L u - u u_x with exact linear factor.

L is diagonal in Fourier space with eigenvalues i*omega(m, n) - gamma(m, n)
(see propagator).  The quadratic term is evaluated pseudo-spectrally as
-0.5 * d/dx (u^2) with the two-thirds dealiasing rule, which makes the
spatial discretization a true Galerkin truncation: mass and energy are
conserved exactly by the semi-discrete flow, so observed drift measures the
time integrator alone.

Two steppers are provided: exponential time differencing (ETDRK4, the
default) and a classical Runge-Kutta scheme in integrating-factor variables
(IFRK4) used as an independent cross-check.  Every mode outside the
Galerkin block (spectral._block) stays exactly zero, so both march, and
`simulate` records, the block.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._work import check_work
from .errors import DivergenceError, InsufficientDataError, InvalidInitialDataError
from .grid import Grid
from .propagator import DispersionSymbol, _symbol_tables
from .spectral import (
    RecordedStates,
    SpectralField,
    _BlockCoeffs,
    _BlockRows,
    _ColumnValues,
    _block,
    _block_dims,
    _block_sq,
    _full_from_block,
    _half,
    _real_values,
    _require_real,
    dealias,
    l2_norm,
    mean_zero_x_defect,
    project_mean_zero_x,
    truncate_to_grid,
)
from . import diagnostics as _diag

__all__ = ["SimulationConfig", "Trajectory", "RegularizedFamily", "nonlinear_term",
           "Etdrk4Stepper", "Ifrk4Stepper", "simulate", "solve_regularized_family",
           "temporal_order_study", "spatial_convergence_study", "TemporalOrderReport",
           "SpatialConvergenceReport"]

MEAN_ZERO_TOL = 1e-12
CFL_LIMIT = 0.5
PHASE_PER_STEP_LIMIT = 1e6
CONTOUR_POINTS = 32
CONTOUR_SWITCH = 0.5
# spatial_convergence_study clips its errors to this roundoff level before
# taking rates, so two errors at roundoff give 0 decades, not noise
SPATIAL_ERROR_FLOOR = 1e-12


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
        # the one check of t_end, dt and their ratio; _n_steps is the step count simulate takes
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        ratio = float(self.t_end) / float(self.dt)  # Python floats: inf without a numpy warning
        if not math.isfinite(ratio):
            raise ValueError(f"t_end / dt must be finite, got {self.t_end} / {self.dt}")
        object.__setattr__(self, "_n_steps", max(1, int(round(ratio))))
        if self.record_every < 1 or int(self.record_every) != self.record_every:
            raise ValueError(f"record_every must be a positive integer, got {self.record_every}")
        if self.integrator not in _STEPPERS:
            raise ValueError(f"integrator must be {' or '.join(map(repr, _STEPPERS))}, "
                             f"got {self.integrator!r}")


@dataclass
class Trajectory:
    """Strided snapshots with diagnostics at the same recorded times."""

    times: np.ndarray
    # a RecordedStates from simulate: Galerkin blocks read as full fields
    states: Sequence
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


class _QuadraticTerm:
    """N(c, out) writes the Galerkin block of -0.5 d/dx(u^2) into out, u the
    point values of the block c of a real field, through buffers made once.
    The block holds the modes the two-thirds rule keeps, so taking it is the
    dealiasing."""

    def __init__(self, grid: Grid):
        K, kc = _block_dims(grid)
        self.grid, self.column_values = grid, None
        self.rows = _BlockRows(grid.nx)
        self.deriv_x = -0.5j * _block(grid.kx2d, K, 1)
        self.block_coeffs = _BlockCoeffs(grid.nx, grid.ny, kc)

    def values(self, c: np.ndarray) -> np.ndarray:
        """Real point values of the block c, valid until the next call; the
        first call makes the evaluator, which nonlinear_term never needs."""
        if self.column_values is None:
            self.column_values = _ColumnValues(self.grid.nx, self.grid.ny, slice(0, c.shape[1]))
        return self.column_values(self.rows(c))

    def of_values(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(u, u, out=u)
        return self.block_coeffs(u, self.deriv_x, out)

    def __call__(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self.of_values(self.values(c), out)


def nonlinear_term(field: SpectralField) -> SpectralField:
    """-0.5 * d/dx (u^2) of a real field, evaluated pseudo-spectrally and
    dealiased; u is read from the whole half spectrum."""
    _require_real(field)
    g = field.grid
    K, kc = _block_dims(g)
    u = _real_values(_half(field.coeffs), g.ny)
    out = np.empty((2 * K + 1, kc), dtype=np.complex128)
    return SpectralField(g, _full_from_block(_QuadraticTerm(g).of_values(u, out), g))


def _etdrk4_phi(z: np.ndarray):
    """E, E2 and the four quadrature weights of the scheme, per eigenvalue.

    Direct formulas suffer cancellation near z = 0, so for 0 < |z| < 1/2
    each value is replaced by the average over a unit circle of 32 points
    centered at z (the integrand is analytic, so the contour mean equals
    the value at the center).  At z = 0 the weights take their exact
    limits q = 1/2, f1 = f2 = f3 = 1/6.
    """
    def direct(w):
        Ew, E2w = np.exp(w), np.exp(w / 2.0)
        w2, w3 = w * w, w * w * w
        return (Ew, E2w, (E2w - 1.0) / w,
                (-4.0 - w + Ew * (4.0 - 3.0 * w + w2)) / w3,
                (2.0 + w + Ew * (w - 2.0)) / w3,
                (-4.0 - 3.0 * w - w2 + Ew * (4.0 - w)) / w3)

    with np.errstate(divide="ignore", invalid="ignore"):
        E, E2, q, f1, f2, f3 = direct(z)
    zero = z == 0
    q[zero] = 0.5
    f1[zero] = f2[zero] = f3[zero] = 1.0 / 6.0
    small = (np.abs(z) < CONTOUR_SWITCH) & ~zero
    if np.any(small):
        pts = np.exp(2j * np.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS)
        on_contour = direct(z[small][:, None] + pts[None, :])[2:]
        for weight, contour_values in zip((q, f1, f2, f3), on_contour):
            weight[small] = contour_values.mean(axis=1)
    return E, E2, q, f1, f2, f3


class _BlockStepper:
    """Set-up both schemes share: the Galerkin block's eigenvalues
    lam = i omega - gamma of L, max|Im lam| * dt (the phase per step), the
    quadratic term and six workspace blocks that every step reuses.  Each
    scheme makes its tables from lam in _tables."""

    def __init__(self, grid: Grid, symbol: DispersionSymbol, dt: float):
        self.dims = _block_dims(grid)
        omega, gamma = (t if t is None else _block(t, *self.dims)
                        for t in _symbol_tables(grid, symbol))
        lam = 1j * omega if gamma is None else 1j * omega - gamma
        self.max_phase = float(np.max(np.abs(omega))) * dt
        self.nonlinear = _QuadraticTerm(grid)
        self.work = np.empty((6, *lam.shape), dtype=np.complex128)
        self._tables(lam, dt)

    def _block_of(self, c: np.ndarray) -> np.ndarray:
        """The Galerkin block (see spectral._block) of a full, half or block
        array in FFT layout."""
        return c if c.shape == self.work.shape[1:] else _block(c, *self.dims)


class Etdrk4Stepper(_BlockStepper):
    """Fourth-order exponential time differencing with fixed step."""

    def _tables(self, lam: np.ndarray, dt: float):
        self.E, self.E2, q, f1, f2, f3 = _etdrk4_phi(dt * lam)
        self.Q = dt * q
        self.F1, self.F2x2, self.F3 = dt * f1, 2.0 * (dt * f2), dt * f3

    def step(self, c: np.ndarray) -> np.ndarray:
        """Advance a real state, read from a full, half or block array; return
        a new block."""
        c = self._block_of(c)
        E2, Q, N = self.E2, self.Q, self.nonlinear
        n1, n2, n3, n4, s, t = self.work
        N(c, n1)
        e2c = np.multiply(E2, c, out=t)
        a = np.add(e2c, np.multiply(Q, n1, out=s), out=n4)     # n4 is free until the last stage
        N(a, n2)
        b = np.add(e2c, np.multiply(Q, n2, out=s), out=t)
        N(b, n3)
        np.subtract(np.multiply(2.0, n3, out=s), n1, out=s)
        d = np.add(np.multiply(E2, a, out=t), np.multiply(Q, s, out=s), out=t)
        N(d, n4)
        out = self.E * c
        out += np.multiply(self.F1, n1, out=s)
        out += np.multiply(self.F2x2, np.add(n2, n3, out=s), out=s)
        out += np.multiply(self.F3, n4, out=s)
        return out


class Ifrk4Stepper(_BlockStepper):
    """Classical RK4 in integrating-factor variables; cross-check scheme."""

    def _tables(self, lam: np.ndarray, dt: float):
        self.dt = dt
        self.E = np.exp(dt * lam)
        self.E2 = np.exp(0.5 * dt * lam)
        self.hE2, self.E2x2 = dt * self.E2, 2.0 * self.E2

    def step(self, c: np.ndarray) -> np.ndarray:
        """Advance a real state, as Etdrk4Stepper.step does."""
        h = self.dt
        c = self._block_of(c)
        E2, N = self.E2, self.nonlinear
        k1, k2, k3, k4, s, t = self.work
        N(c, k1)
        np.add(c, np.multiply(0.5 * h, k1, out=s), out=s)
        N(np.multiply(E2, s, out=s), k2)
        N(np.add(np.multiply(E2, c, out=t), np.multiply(0.5 * h, k2, out=s), out=t), k3)
        out = self.E * c
        N(np.add(out, np.multiply(self.hE2, k3, out=s), out=t), k4)
        np.add(np.multiply(self.E, k1, out=s),
               np.multiply(self.E2x2, np.add(k2, k3, out=t), out=t), out=s)
        out += np.multiply(h / 6.0, np.add(s, k4, out=s), out=s)
        return out


_STEPPERS = {"etdrk4": Etdrk4Stepper, "ifrk4": Ifrk4Stepper}


def _check_guards(grid: Grid, dt: float, c: np.ndarray, values, warned: dict):
    """Warn once when the CFL number of the Galerkin block c, whose point
    values `values` gives, passes CFL_LIMIT; return max|u|, or None if warned."""
    if warned.get("cfl"):
        return None
    umax = float(np.max(np.abs(values(c))))
    if dt * umax * (grid.nx / 2.0) > CFL_LIMIT:
        warnings.warn(
            f"nonlinear CFL guard: dt * max|u| * max|m| = "
            f"{dt * umax * (grid.nx / 2.0):.3g} exceeds {CFL_LIMIT}",
            RuntimeWarning,
        )
        warned["cfl"] = True
    return umax


def simulate(config: SimulationConfig, phi: SpectralField) -> Trajectory:
    """March the initial state to t_end, recording strided snapshots.

    The run takes n = max(1, round(t_end / dt)) steps of t_end / n, so it
    ends at t_end exactly.  Initial data must be real and mean-zero in x
    (InvalidInitialDataError otherwise); a relative mean defect up to 1e-12
    is projected away silently.  A run above the "simulate" (grid-point
    steps) or "records" (bytes of recorded blocks) ceiling of
    _work.MAX_WORK raises ValueError before its stepper is built.
    """
    grid = config.grid
    if phi.grid != grid:
        raise ValueError("initial data grid does not match configuration grid")
    _require_real(phi, InvalidInitialDataError)
    defect = mean_zero_x_defect(phi)
    if defect > MEAN_ZERO_TOL:
        raise InvalidInitialDataError(
            f"initial data carries relative weight {defect:.3e} on the m = 0 modes; "
            f"the model requires zero mean in x (tolerance {MEAN_ZERO_TOL:.0e})"
        )
    phi = dealias(project_mean_zero_x(phi))
    n_steps = config._n_steps
    dt = config.t_end / n_steps

    dims = _block_dims(grid)
    check_work("simulate", n_steps * grid.nx * grid.ny)
    n_blocks = -(-n_steps // config.record_every)
    check_work("records", n_blocks * (2 * dims[0] + 1) * dims[1] * 16)
    stepper = _STEPPERS[config.integrator](grid, config.symbol, dt)
    # the steppers turn the Galerkin block only, so its phases are the ones carried
    if stepper.max_phase > PHASE_PER_STEP_LIMIT:
        warnings.warn(
            f"linear phase per step is {stepper.max_phase:.3g} radians; "
            "accuracy of the exponential factor degrades at this magnitude",
            RuntimeWarning,
        )

    mu = config.symbol.mu
    if mu > 0:
        lap_w = _block((grid.kx2d**2 + grid.ky2d**2) ** 2, *dims)  # |k|^4 weighs ||laplacian u||^2
    four_pi_sq = (2.0 * np.pi) ** 2

    def lap_sq_norm(cc):
        return four_pi_sq * float(np.sum(lap_w * _block_sq(cc)))

    # the state is the Galerkin block: every other mode stays exactly zero
    c = _block(phi.coeffs, *dims)
    warned: dict = {}
    _check_guards(grid, dt, c, stepper.nonlinear.values, warned)

    rec_times = [0.0]
    rec_blocks = []
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
            rec_blocks.append(c)
            rec_diss.append(diss_accum)
            _check_guards(grid, dt, c, stepper.nonlinear.values, warned)
    # the records' 2x planes set the peak memory: free the workspaces first
    del stepper

    times = np.array(rec_times)
    states = RecordedStates(phi, rec_blocks)
    records = _diag.build_records(times, states, config.symbol, config.h_s)
    dissipation = 2.0 * mu * np.array(rec_diss) if mu > 0 else None
    return Trajectory(times=times, states=states, diagnostics=records,
                      config=config, dissipation=dissipation)


@dataclass
class RegularizedFamily:
    """Damped runs for a decreasing list of mu values, against the mu = 0 run."""

    mus: list
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
    ref_final = simulate(ref_config, phi).final_state.coeffs

    gaps = []
    residuals = []
    for mu in mus:
        cfg = replace(config, symbol=replace(config.symbol, mu=mu))
        traj = simulate(cfg, phi)
        diff = SpectralField(config.grid, traj.final_state.coeffs - ref_final)
        gaps.append(l2_norm(diff))
        residuals.append(l2_identity_residual(traj))
    return RegularizedFamily(
        mus=mus,
        l2_gaps=np.array(gaps),
        identity_residuals=np.array(residuals),
    )


@dataclass
class TemporalOrderReport:
    dts: np.ndarray
    errors: np.ndarray
    pairwise_orders: np.ndarray
    fitted_order: float


def temporal_order_study(grid: Grid, symbol: DispersionSymbol, phi: SpectralField,
                         t_end: float, dts: Sequence[float],
                         integrator: str = "etdrk4") -> TemporalOrderReport:
    """Error against a reference run at min(dts) / 8; pairwise and fitted orders.

    Every run, the reference included, is a `simulate` run of a
    SimulationConfig built, and so checked, before the first run starts.
    There must be at least two dts with distinct step counts: two dts with one step count
    would fit one run as two step sizes.  A study above the "study" ceiling
    of _work.MAX_WORK raises ValueError before any run starts.
    """
    dts = np.asarray(sorted(dts, reverse=True), dtype=float)
    # runs that record only their first and last step
    config = lambda dt: SimulationConfig(grid=grid, symbol=symbol, dt=dt, t_end=t_end,
                                         integrator=integrator, record_every=10**9)
    runs = [config(dt) for dt in dts]
    counts = [run._n_steps for run in runs]
    if len(counts) < 2 or len(set(counts)) < len(counts):
        raise InsufficientDataError(
            f"need at least two distinct dts, with distinct step counts over t_end = "
            f"{t_end}, to fit an order; got {dts.tolist()}, step counts {counts}")
    ref = config(dts.min() / 8)
    check_work("study", (sum(counts) + ref._n_steps) * grid.nx * grid.ny)
    final = lambda run: simulate(run, phi).final_state.coeffs
    ref_final = final(ref)
    errors = np.array([l2_norm(SpectralField(grid, final(run) - ref_final)) for run in runs])
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


def spatial_convergence_study(symbol: DispersionSymbol, profile, n_values: Sequence[int],
                              t_end: float, dt: float) -> SpatialConvergenceReport:
    """Error of each resolution against a doubled reference resolution.

    profile(grid) must return the same analytic initial field sampled on the
    given grid.  All runs share dt so the comparison isolates the spatial
    truncation; errors are measured on the common coefficient band, and
    rates are taken from errors clipped to SPATIAL_ERROR_FLOOR.  Every run
    is a `simulate` run of a SimulationConfig built before the first run
    starts.  At least two distinct resolutions are required.
    A study above the "study" ceiling of _work.MAX_WORK, or whose reference
    grid is above "grid_bytes", raises ValueError before any profile is built.
    """
    n_values = sorted(int(n) for n in n_values)
    if len(set(n_values)) < 2:
        raise InsufficientDataError(
            f"need at least two distinct n_values to fit a rate, got {n_values}")
    # runs that record only their first and last step, the reference first
    ref, *runs = (SimulationConfig(grid=Grid(n, n), symbol=symbol, dt=dt, t_end=t_end,
                                   record_every=10**9) for n in [2 * n_values[-1], *n_values])
    check_work("study", ref._n_steps * sum(run.grid.nx * run.grid.ny for run in [ref, *runs]))
    check_work("grid_bytes", 32 * ref.grid.nx * ref.grid.ny)
    final = lambda run: simulate(run, profile(run.grid)).final_state
    ref_final = final(ref)
    errors = []
    for run in runs:
        diff = final(run).coeffs - truncate_to_grid(ref_final, run.grid).coeffs
        errors.append(l2_norm(SpectralField(run.grid, diff)))
    errors = np.array(errors, dtype=float)
    clipped = np.maximum(errors, SPATIAL_ERROR_FLOOR)
    decades = np.log10(clipped[:-1] / clipped[1:])
    return SpatialConvergenceReport(n_values=np.array(n_values), errors=errors,
                                    decades_per_doubling=decades)
