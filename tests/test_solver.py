"""Stepper correctness, conservation, regularized family, convergence studies."""
import ast
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dgzk
from dgzk import _work, solver, spectral
from dgzk import (
    DispersionSymbol,
    Grid,
    SimulationConfig,
    SpectralField,
    Trajectory,
    dealias,
    field_from_modes,
    initial_data,
    l2_norm,
    nonlinear_term,
    project_mean_zero_x,
    propagate,
    simulate,
    solve_regularized_family,
    spatial_convergence_study,
    temporal_order_study,
    zero_field,
)
from dgzk.propagator import _symbol_tables
from dgzk.solver import (CFL_LIMIT, SPATIAL_ERROR_FLOOR, Etdrk4Stepper, Ifrk4Stepper,
                         _cfl_guard, _etdrk4_phi, l2_identity_residual)
from dgzk.errors import (DivergenceError, InsufficientDataError, InvalidInitialDataError,
                         SymmetryViolationError)
from dgzk.spectral import (_PRODUCT_COLUMNS, _ColumnValues, _block, _block_dims,
                           _dealias_mask, _full_from_block, _half, _pad_rows,
                           inverse_transform)

from fieldgen import _record_fft_calls, _record_products, band_field, real_field

SYM = DispersionSymbol(1, 1.0)


def test_nonlinear_term_closed_form():
    g = Grid(32, 32)
    u = field_from_modes(g, {(1, 0): 0.5, (-1, 0): 0.5})  # cos x
    out = nonlinear_term(u)
    # -0.5 d/dx(cos^2 x) = 0.5 sin 2x
    want = field_from_modes(g, {(2, 0): -0.25j, (-2, 0): 0.25j})
    assert np.max(np.abs(out.coeffs - want.coeffs)) <= 1e-14


def test_nonlinear_term_rejects_a_non_real_field():
    # the term reads only the half spectrum, so e^{i(x+y)} alone would be
    # taken for cos(x+y) without this check
    g = Grid(16, 16)
    with pytest.raises(SymmetryViolationError):
        nonlinear_term(field_from_modes(g, {(1, 1): 0.5}))


def test_nonlinear_term_keeps_its_contract_outside_the_block():
    """u comes from the whole half spectrum, the x-Nyquist row and the modes
    the two-thirds rule drops included, and only the result is dealiased:
    the bits of an irfft2/rfft2 evaluation."""
    g = Grid(16, 16)
    f = real_field(g, np.random.default_rng(11))
    K, kc = _block_dims(g)
    assert np.all(f.coeffs[g.nx // 2] != 0) and np.all(f.coeffs[K + 1:-K] != 0)
    assert np.all(f.coeffs[:, kc:] != 0)
    u = np.fft.irfft2(_half(f.coeffs), s=g.shape, norm="forward")
    want = (-0.5j * g.kx2d * np.fft.rfft2(u * u, norm="forward")) * _half(_dealias_mask(g))
    got = nonlinear_term(f).coeffs
    assert np.array_equal(_half(got), want)
    m, n = -np.arange(g.nx) % g.nx, np.arange(g.ny // 2 + 1, g.ny)
    assert np.array_equal(got[:, n], np.conj(want[m][:, g.ny - n]))


def test_nonlinear_term_zero():
    g = Grid(16, 16)
    out = nonlinear_term(zero_field(g))
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_nonlinear_term_fine_grid_oracle(rng):
    """Dealiased pseudo-spectral quadratic term vs exact doubled-grid product."""
    from dgzk import dealias, derivative, embed_in_grid, forward_transform, inverse_transform, truncate_to_grid

    g = Grid(32, 32)
    u = band_field(g, 10, rng)
    got = nonlinear_term(u)

    big = Grid(64, 64)
    vals = inverse_transform(embed_in_grid(u, big))
    sq = forward_transform(big, vals * vals)
    exact = dealias(truncate_to_grid(
        type(sq)(big, -0.5j * big.kx2d * sq.coeffs), g))
    assert np.max(np.abs(got.coeffs - exact.coeffs)) <= 1e-10


@pytest.mark.parametrize("cls,tol", [(Etdrk4Stepper, 1e-13), (Ifrk4Stepper, 1e-12)])
def test_linear_limit_matches_propagator(rng, cls, tol):
    """With the quadratic term switched off a step is exactly E * c, and E
    is the group."""
    g = Grid(32, 32)
    f = project_mean_zero_x(real_field(g, rng))
    dt = 0.05
    stepper = cls(g, SYM, dt)
    got = stepper.E * _block(f.coeffs, *stepper.dims)
    want = _block(propagate(f, dt, SYM).coeffs, *stepper.dims)
    assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


def test_step_functions_on_zero_field():
    g = Grid(16, 16)
    z = zero_field(g)
    K, kc = _block_dims(g)
    for cls in (Etdrk4Stepper, Ifrk4Stepper):
        assert np.array_equal(cls(g, SYM, 0.01).step(z.coeffs),
                              np.zeros((2 * K + 1, kc), dtype=complex))


@pytest.mark.parametrize("cls", [Etdrk4Stepper, Ifrk4Stepper])
def test_step_reads_the_same_block_from_full_half_and_block_arrays(cls):
    # the bench probe steps a full FFT-layout array; simulate steps blocks
    g = Grid(32, 24)
    c = dealias(project_mean_zero_x(band_field(g, 8, np.random.default_rng(5)))).coeffs
    stepper = cls(g, SYM, 1e-3)
    block = _block(c, *stepper.dims)
    got = stepper.step(block)
    assert got.shape == block.shape
    assert np.array_equal(stepper.step(c), got)
    assert np.array_equal(stepper.step(_half(c)), got)


def _eigenvalues(grid, symbol):
    """i omega - gamma of L on the whole grid."""
    omega, gamma = _symbol_tables(grid, symbol)
    return 1j * omega if gamma is None else 1j * omega - gamma


def _unpruned_reference(grid, symbol, dt, c, steps, integrator):
    """steps of ETDRK4 or IFRK4 on the whole half spectrum, the quadratic
    term through irfft2/rfft2 and masked by the two-thirds rule."""
    lam = _half(_eigenvalues(grid, symbol))
    mask = _half(_dealias_mask(grid))

    def nonlinear(h):
        u = np.fft.irfft2(h, s=grid.shape, norm="forward")
        return -0.5j * grid.kx2d * np.fft.rfft2(u * u, norm="forward") * mask

    c = _half(c)
    if integrator == "etdrk4":
        E, E2, q, f1, f2, f3 = _etdrk4_phi(dt * lam)
        for _ in range(steps):
            n1 = nonlinear(c)
            a = E2 * c + dt * q * n1
            n2 = nonlinear(a)
            b = E2 * c + dt * q * n2
            n3 = nonlinear(b)
            n4 = nonlinear(E2 * a + dt * q * (2.0 * n3 - n1))
            c = E * c + dt * (f1 * n1 + 2.0 * f2 * (n2 + n3) + f3 * n4)
    else:
        E, E2 = np.exp(dt * lam), np.exp(0.5 * dt * lam)
        for _ in range(steps):
            k1 = nonlinear(c)
            k2 = nonlinear(E2 * (c + 0.5 * dt * k1))
            k3 = nonlinear(E2 * c + 0.5 * dt * k2)
            k4 = nonlinear(E * c + dt * E2 * k3)
            c = E * c + (dt / 6.0) * (E * k1 + 2.0 * E2 * (k2 + k3) + k4)
    return c


even_sizes = st.integers(4, 32).map(lambda k: 2 * k)


@settings(max_examples=25, deadline=None)
@given(nx=even_sizes, ny=even_sizes, seed=st.integers(0, 2**32 - 1),
       integrator=st.sampled_from(["etdrk4", "ifrk4"]))
@example(nx=12, ny=18, seed=0, integrator="etdrk4").via("|m| = nx/3 is a kept row")
@example(nx=48, ny=30, seed=1, integrator="ifrk4").via("|m| = nx/3 is a kept row")
def test_block_steppers_match_the_unpruned_half_spectrum_schemes(nx, ny, seed, integrator):
    g = Grid(nx, ny)
    sym = DispersionSymbol(1, 1.0, mu=1e-3)
    phi = dealias(project_mean_zero_x(real_field(g, np.random.default_rng(seed), 0.3)))
    dt = 1e-3
    stepper = {"etdrk4": Etdrk4Stepper, "ifrk4": Ifrk4Stepper}[integrator](g, sym, dt)
    c = phi.coeffs
    for _ in range(5):
        c = stepper.step(c)
    want = _block(_unpruned_reference(g, sym, dt, phi.coeffs, 5, integrator), *stepper.dims)
    assert np.max(np.abs(c - want)) <= 1e-13 * np.max(np.abs(want))


def test_a_step_transforms_only_the_block_columns(monkeypatch):
    """Both x passes of every quadratic term cover the kc block columns
    alone, the y passes run along the whole grid (a cos/sin product on the
    way in, since kc <= _PRODUCT_COLUMNS here, and rfft on the way out), and
    no array leaving the step is wider than the block, also when it is
    given a full array."""
    g = Grid(64, 64)
    K, kc = _block_dims(g)
    assert kc <= _PRODUCT_COLUMNS
    stepper = Etdrk4Stepper(g, SYM, 1e-3)
    c = dealias(initial_data(g, "random-band", seed=2)).coeffs
    calls = _record_fft_calls(monkeypatch)
    products = _record_products(monkeypatch)
    out = stepper.step(c)
    x_passes = [shape for name, shape in calls if name != "rfft"]
    assert x_passes and all(np.prod(shape) <= kc * g.nx for shape in x_passes)
    assert sorted(calls) == sorted([("ifft", (64, kc)), ("rfft", (64, 33)),
                                    ("fft", (64, kc))] * 4)
    assert products == [(kc, 64)] * 4
    assert out.shape == (2 * K + 1, kc)


def _fresh_array_stepper(grid, symbol, dt, integrator):
    """The step as written before the steppers kept workspaces: every stage a
    fresh array, the quadratic term deriv_x * the block of fft_x(rfft_y(u *
    u)), u from one _ColumnValues on the block columns.  The operand order of
    every product is the one the steppers keep."""
    K, kc = _block_dims(grid)
    values = _ColumnValues(grid.nx, grid.ny, slice(0, kc))
    deriv_x = -0.5j * _block(grid.kx2d, K, 1)

    def N(c):
        rows = np.zeros((grid.nx, kc), dtype=np.complex128)
        _pad_rows(rows, c)
        u = values(rows)
        cols = np.fft.rfft(u * u, axis=1, norm="forward")[:, :kc]
        return deriv_x * _block(np.fft.fft(cols, axis=0, norm="forward"), K, kc)

    lam = _block(_eigenvalues(grid, symbol), K, kc)
    if integrator == "etdrk4":
        E, E2, q, f1, f2, f3 = _etdrk4_phi(dt * lam)
        Q, F1, F2, F3 = dt * q, dt * f1, dt * f2, dt * f3

        def step(c):
            n1 = N(c)
            e2c = E2 * c
            a = e2c + Q * n1
            n2 = N(a)
            b = e2c + Q * n2
            n3 = N(b)
            d = E2 * a + Q * (2.0 * n3 - n1)
            n4 = N(d)
            return E * c + F1 * n1 + 2.0 * F2 * (n2 + n3) + F3 * n4
    else:
        E, E2, h = np.exp(dt * lam), np.exp(0.5 * dt * lam), dt

        def step(c):
            k1 = N(c)
            k2 = N(E2 * (c + 0.5 * h * k1))
            k3 = N(E2 * c + 0.5 * h * k2)
            k4 = N(E * c + h * E2 * k3)
            return E * c + (h / 6.0) * (E * k1 + 2.0 * E2 * (k2 + k3) + k4)
    return step


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("integrator", ["etdrk4", "ifrk4"])
def test_workspace_steppers_keep_the_bits_of_the_fresh_array_steps(n, integrator):
    """20 steps through the steppers' workspaces equal the fresh-array
    formulas bit for bit (64^2 takes the cos/sin product, 128^2 the irfft),
    and a run recording every step keeps 20 distinct blocks that no later
    step overwrites."""
    g = Grid(n, n)
    sym = DispersionSymbol(1, 1.0, mu=1e-3)
    phi = dealias(project_mean_zero_x(initial_data(g, "random-band", amplitude=1.0, seed=4)))
    reference = _fresh_array_stepper(g, sym, 1e-3, integrator)
    stepper = {"etdrk4": Etdrk4Stepper, "ifrk4": Ifrk4Stepper}[integrator](g, sym, 1e-3)
    c = want = _block(phi.coeffs, *_block_dims(g))
    wants = []
    for _ in range(20):
        c, want = stepper.step(c), reference(want)
        assert np.array_equal(c, want)
        wants.append(want)
    cfg = SimulationConfig(grid=g, symbol=sym, dt=1e-3, t_end=0.02, integrator=integrator)
    blocks = simulate(cfg, phi).states.blocks[1:]
    assert len(blocks) == 20
    assert not any(np.shares_memory(a, b) for i, a in enumerate(blocks) for b in blocks[:i])
    assert all(np.array_equal(got, w) for got, w in zip(blocks, wants))


def test_a_steady_state_step_allocates_less_than_three_blocks():
    """A step writes its stages into the stepper's workspaces: past the
    first steps, its peak allocation at 128^2 stays under three blocks (the
    new block it returns is one)."""
    g = Grid(128, 128)
    stepper = Etdrk4Stepper(g, SYM, 1e-3)
    c = stepper.step(dealias(initial_data(g, "random-band", amplitude=1.0, seed=2)).coeffs)
    c = stepper.step(c)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        c = stepper.step(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 3 * c.nbytes


def test_a_run_keeps_its_blocks_and_no_full_grid_array():
    """Every state of a run is its Galerkin block from t = 0 on: a 256^2 run
    keeps its blocks and at most 0.1 MB more once it returns, and its peak
    stays 9.5 MB above the base, where a full coefficient array is 1 MB
    (tracemalloc)."""
    g = Grid(256, 256)
    phi = initial_data(g, "random-band", seed=0)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=1e-3, t_end=0.03, record_every=10)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = simulate(cfg, phi)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = traj.states.blocks
    assert len(blocks) == 4
    assert kept - base <= sum(b.nbytes for b in blocks) + 0.1e6
    assert peak - base <= 9.5e6


def test_every_row_padding_of_a_run_takes_the_block_rows(monkeypatch):
    """A 48 x 40 run pads the Galerkin block's own 2K + 1 = 33 rows, never
    an nx-row copy of it: in its 10 steps (4 quadratic terms each), the CFL
    guard of its 5 entries, their records (3 planes each) and the rebuild
    of entry 0 as a field.  The first quadratic term of the step after each
    of the 4 entries before the last takes the guard's values, unpadded."""
    seen = []

    def spy(out, c):
        seen.append(len(c))
        _pad_rows(out, c)

    monkeypatch.setattr(spectral, "_pad_rows", spy)
    monkeypatch.setattr(solver, "_pad_rows", spy)
    g = Grid(48, 40)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=2e-3, t_end=0.02, record_every=3)
    traj = simulate(cfg, initial_data(g, "random-band", amplitude=0.5, seed=4))
    assert len(traj.states[0].coeffs) == 48
    assert seen == [33] * (10 * 4 - 4 + 5 + 5 * 3 + 1)


def test_cfl_guard_reads_the_sup_of_the_recorded_state():
    """The guard reads max|u| of the state's irfft2 values (kc = 9 columns
    take the cos/sin product): with dt set so that the CFL number of either
    irfft2 max|u| is the limit, it stays silent at dt * (1 - 1e-13) and
    warns at dt * (1 + 1e-13)."""
    g = Grid(32, 24)
    state = dealias(project_mean_zero_x(band_field(g, 8, np.random.default_rng(3))))
    c = _block(state.coeffs, *_block_dims(g))
    values = Etdrk4Stepper(g, SYM, 1e-9).nonlinear.values(c)
    for full in (state, SpectralField(g, _full_from_block(c, g))):
        want = np.max(np.abs(inverse_transform(full)))
        dt = CFL_LIMIT / (want * g.nx / 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _cfl_guard(g, dt * (1 - 1e-13), values)
        with pytest.warns(RuntimeWarning, match="nonlinear CFL guard"):
            assert _cfl_guard(g, dt * (1 + 1e-13), values)


def test_simulate_zero_data_stays_zero():
    g = Grid(16, 16)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=0.01, t_end=0.05)
    traj = simulate(cfg, zero_field(g))
    assert all(np.max(np.abs(s.coeffs)) == 0.0 for s in traj.states)
    assert all(r.mass == 0.0 for r in traj.diagnostics)


def test_simulate_records_and_final_time():
    g = Grid(16, 16)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=0.01, t_end=0.1, record_every=4)
    traj = simulate(cfg, initial_data(g, "cos-x", amplitude=0.1))
    assert traj.times[0] == 0.0
    assert np.isclose(traj.times[-1], 0.1)
    assert len(traj.times) == len(traj.states) == len(traj.diagnostics)


def test_simulate_single_step_when_dt_exceeds_t_end():
    g = Grid(16, 16)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=0.5, t_end=0.2)
    traj = simulate(cfg, initial_data(g, "cos-x", amplitude=0.1))
    assert list(traj.times) == [0.0, 0.2]


@pytest.mark.parametrize("dt,t_end,steps", [(0.03, 0.1, 3), (0.001, 0.35, 350)])
def test_simulate_ends_at_requested_t_end(dt, t_end, steps):
    # dt does not divide t_end: the run takes round(t_end/dt) equal steps of
    # t_end/n; for (0.001, 0.35) n * (t_end/n) rounds away from t_end
    g = Grid(16, 16)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=dt, t_end=t_end, record_every=10**9)
    traj = simulate(cfg, initial_data(g, "cos-x", amplitude=0.1))
    assert list(traj.times) == [0.0, t_end]
    ref = SimulationConfig(grid=g, symbol=SYM, dt=t_end / steps, t_end=t_end,
                           record_every=10**9)
    same = simulate(ref, initial_data(g, "cos-x", amplitude=0.1))
    assert np.array_equal(traj.final_state.coeffs, same.final_state.coeffs)


def test_mean_zero_gate():
    g = Grid(16, 16)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=0.01, t_end=0.05)
    bad = field_from_modes(g, {(0, 1): 0.5, (0, -1): 0.5})  # cos y
    with pytest.raises(InvalidInitialDataError):
        simulate(cfg, bad)

    almost = field_from_modes(g, {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 1e-14, (0, -1): 1e-14})
    traj = simulate(cfg, almost)  # below tolerance: projected silently
    assert np.max(np.abs(traj.final_state.coeffs[0, :])) == 0.0


def test_simulate_rejects_non_real_initial_data():
    g = Grid(16, 16)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=0.01, t_end=0.05)
    with pytest.raises(InvalidInitialDataError, match="conjugate-symmetry"):
        simulate(cfg, field_from_modes(g, {(1, 1): 0.5}))


def test_simulate_grid_mismatch():
    cfg = SimulationConfig(grid=Grid(16, 16), symbol=SYM, dt=0.01, t_end=0.05)
    with pytest.raises(ValueError):
        simulate(cfg, zero_field(Grid(32, 32)))


def test_linearization_limit():
    """Tiny data evolves like the linear group."""
    g = Grid(32, 32)
    amp = 1e-10
    phi = initial_data(g, "single-mode", amplitude=amp, m=1, n=1)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=1e-3, t_end=0.5, record_every=10**9)
    traj = simulate(cfg, phi)
    lin = propagate(phi, 0.5, SYM)
    gap = 2 * np.pi * np.sqrt(np.sum(np.abs(traj.final_state.coeffs - lin.coeffs) ** 2))
    assert gap <= 1e-9 * l2_norm(phi)


def test_divergence_error_carries_location():
    g = Grid(32, 32)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=0.1, t_end=1.0)
    phi = initial_data(g, "single-mode", amplitude=1e6, m=1, n=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DivergenceError) as info:
            simulate(cfg, phi)
    assert info.value.step >= 1
    assert info.value.t > 0.0


def test_an_overflowing_norm_is_divergence():
    """Every entry of the state after step 7 is finite (max|c| about 2e178),
    but its squared norm overflows: the run diverged there."""
    g = Grid(16, 16)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=5e-3, t_end=0.033203125)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DivergenceError) as info:
            simulate(cfg, initial_data(g, "cos-x", amplitude=266.0))
    assert info.value.step == 7


@pytest.mark.parametrize("record_every", [1, 10])
@pytest.mark.parametrize("amplitude, t_end, steps", [(333.839, 0.02, 4), (414.024, 0.015, 3)])
def test_a_record_that_overflows_is_divergence(amplitude, t_end, steps, record_every):
    """The last state and its squared norm are finite (max|c| about 9e141
    and vdot 4.4e284 at amplitude 333.839), but its record's energy is
    inf - inf: the run diverged at that record's step."""
    g = Grid(16, 16)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=5e-3, t_end=t_end, record_every=record_every)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DivergenceError) as info:
            simulate(cfg, initial_data(g, "cos-x", amplitude=amplitude))
    assert (info.value.step, info.value.t) == (steps, t_end)


def test_cfl_warning():
    g = Grid(32, 32)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=1e-2, t_end=0.02)
    phi = initial_data(g, "cos-x", amplitude=50.0)
    with pytest.warns(RuntimeWarning, match="CFL"):
        try:
            simulate(cfg, phi)
        except DivergenceError:
            pass


def test_phase_magnitude_warning():
    # the largest phase in the Galerkin block is 1.23e6 rad per step
    g = Grid(64, 64)
    sym = DispersionSymbol(3, 1.0)
    cfg = SimulationConfig(grid=g, symbol=sym, dt=0.3, t_end=0.3)
    with pytest.warns(RuntimeWarning, match="phase per step"):
        simulate(cfg, zero_field(g))


@pytest.mark.parametrize("stepper", [Etdrk4Stepper, Ifrk4Stepper])
def test_building_a_stepper_warns_above_the_phase_limit(stepper):
    # the largest phase in the Galerkin block is 1.23e6 rad per step
    with pytest.warns(RuntimeWarning, match="phase per step is 1.23e"):
        stepper(Grid(64, 64), DispersionSymbol(3, 1.0), 0.3)


def test_phase_guard_reads_the_galerkin_block_only():
    """The grid's largest phase is 2.87e6 rad per step, but no carried mode
    turns more than 4.09e5, below PHASE_PER_STEP_LIMIT."""
    g = Grid(64, 64)
    cfg = SimulationConfig(grid=g, symbol=DispersionSymbol(3, 1.0), dt=0.1, t_end=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate(cfg, zero_field(g))


def test_recorded_states_read_as_full_fields():
    g = Grid(32, 24)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=5e-3, t_end=0.05, record_every=2)
    phi = initial_data(g, "random-band", seed=5)
    traj = simulate(cfg, phi)
    states = traj.states
    n = len(traj.times)
    assert len(states) == n == 6
    # every entry is a Galerkin block, the first that of the dealiased input
    assert np.array_equal(states[0].coeffs, dealias(project_mean_zero_x(phi)).coeffs)
    blocks = states.blocks
    assert all(b.shape == (2 * (g.nx // 3) + 1, g.ny // 3 + 1) for b in blocks)
    fulls = [_full_from_block(b, g) for b in blocks]
    listed = list(states)
    assert len(listed) == n and all(s.grid == g for s in listed)
    assert all(np.array_equal(s.coeffs, f) for s, f in zip(listed, fulls))
    for i in (-1, n - 1):
        assert np.array_equal(states[i].coeffs, fulls[-1])
    assert np.array_equal(traj.final_state.coeffs, fulls[-1])
    assert np.array_equal(states[-n].coeffs, states[0].coeffs)
    picked = states[1:5:2]
    assert len(picked) == 2
    assert all(np.array_equal(s.coeffs, f) for s, f in zip(picked, fulls[1:5:2]))
    assert len(states[::-1]) == n
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            states[bad]


def test_simulate_builds_records_once_with_every_state(monkeypatch):
    """The bench tracer times records by wrapping diagnostics.build_records,
    which simulate must call, through the module attribute, once per run."""
    calls = []
    original = dgzk.diagnostics.build_records

    def counting(times, states, *args, **kwargs):
        calls.append((len(times), len(states)))
        return original(times, states, *args, **kwargs)

    monkeypatch.setattr(dgzk.diagnostics, "build_records", counting)
    g = Grid(16, 16)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=0.01, t_end=0.1, record_every=3)
    traj = simulate(cfg, initial_data(g, "cos-x", amplitude=0.1))
    assert calls == [(len(traj.times), len(traj.times))]


def test_recorded_states_stay_block_sized():
    """A 64^2 run of 200 records peaks below half of the 201 full states
    it would take to keep them as SpectralFields."""
    g = Grid(64, 64)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=1e-4, t_end=0.02, record_every=1)
    phi = initial_data(g, "random-band", amplitude=0.5, seed=1)
    full_states = 201 * g.nx * g.ny * 16
    tracemalloc.start()
    try:
        traj = simulate(cfg, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 201
    assert peak < full_states / 2


def test_quick_conservation():
    g = Grid(32, 32)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=2e-3, t_end=0.2, record_every=20)
    traj = simulate(cfg, initial_data(g, "cos-x"))
    m = [r.mass for r in traj.diagnostics]
    e = [r.energy for r in traj.diagnostics]
    assert abs(m[-1] - m[0]) <= 1e-10 * abs(m[0])
    assert abs(e[-1] - e[0]) <= 1e-8 * abs(e[0])


def test_temporal_order():
    g = Grid(32, 32)
    phi = initial_data(g, "gaussian-bell")
    rep = temporal_order_study(g, SYM, phi, t_end=0.1,
                               dts=[4e-3, 2e-3, 1e-3])
    assert rep.fitted_order >= 3.5
    assert rep.errors[0] > rep.errors[-1]
    # 4e-3 and 3.99e-3 both take 25 steps over t_end = 0.1
    for dts in ([4e-3], [4e-3, 4e-3], [], [4e-3, 3.99e-3, 2e-3]):
        with pytest.raises(InsufficientDataError, match="two distinct dts"):
            temporal_order_study(g, SYM, phi, t_end=0.1, dts=dts)


def _study_work(n, t_end, dts):
    steps = lambda dt: SimulationConfig(Grid(n, n), SYM, dt, t_end)._n_steps
    counts = [steps(dt) for dt in dts] + [steps(min(dts) / 8)]
    return sum(counts) * n * n


def test_temporal_study_work_ceiling():
    # the default `convergence` study (1975 steps at 64^2) and acceptance
    # criterion 05's (975 steps at 32^2) stay 100x below the ceiling
    assert _study_work(64, 0.1, [4e-3 / 2**i for i in range(4)]) == 1975 * 64 * 64
    assert _study_work(32, 0.1, [4e-3, 2e-3, 1e-3]) == 975 * 32 * 32
    assert 100 * 1975 * 64 * 64 <= _work.MAX_WORK["study"]
    g = Grid(16, 16)
    dts = [4e-3 / 2**i for i in range(40)]
    with pytest.raises(ValueError, match=r"grid-point steps .* exceeds the ceiling "
                                         r"MAX_WORK\['study'\]"):
        temporal_order_study(g, SYM, initial_data(g, "cos-x"), t_end=0.1, dts=dts)


def test_trajectory_validation():
    g = Grid(16, 16)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=0.01, t_end=0.05)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.1, 0.2]), states=[zero_field(g)] * 2,
                   diagnostics=[None, None], config=cfg)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0]), states=[], diagnostics=[], config=cfg)


def test_config_validation():
    g = Grid(16, 16)
    with pytest.raises(ValueError):
        SimulationConfig(grid=g, symbol=SYM, dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        SimulationConfig(grid=g, symbol=SYM, dt=0.1, t_end=0.0)
    with pytest.raises(ValueError):
        SimulationConfig(grid=g, symbol=SYM, dt=0.1, t_end=1.0, record_every=0)
    with pytest.raises(ValueError):
        SimulationConfig(grid=g, symbol=SYM, dt=0.1, t_end=1.0, integrator="euler")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            SimulationConfig(grid=g, symbol=SYM, dt=bad, t_end=1.0)
        with pytest.raises(ValueError, match="finite"):
            SimulationConfig(grid=g, symbol=SYM, dt=0.1, t_end=bad)


def test_regularized_family_monotone():
    g = Grid(32, 32)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=2e-3, t_end=0.25, record_every=5)
    phi = initial_data(g, "gaussian-bell", amplitude=0.5)
    fam = solve_regularized_family(cfg, phi, [1e-2, 1e-3, 1e-4])
    assert fam.mus == [1e-2, 1e-3, 1e-4]
    assert all(a >= b for a, b in zip(fam.l2_gaps, fam.l2_gaps[1:]))
    assert np.all(fam.identity_residuals <= 1e-6)


def test_regularized_family_validation():
    g = Grid(16, 16)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=0.01, t_end=0.05)
    phi = initial_data(g, "cos-x", amplitude=0.1)
    with pytest.raises(ValueError):
        solve_regularized_family(cfg, phi, [1e-3, 1e-2])
    with pytest.raises(ValueError):
        solve_regularized_family(cfg, phi, [1e-2, -1e-3])
    with pytest.raises(ValueError):
        solve_regularized_family(cfg, phi, [])


def test_strong_damping_is_monotone_decay():
    g = Grid(32, 32)
    sym = DispersionSymbol(1, 1.0, mu=10.0)
    cfg = SimulationConfig(grid=g, symbol=sym, dt=1e-3, t_end=0.1, record_every=10)
    traj = simulate(cfg, initial_data(g, "gaussian-bell", amplitude=0.5))
    norms = [l2_norm(s) for s in traj.states]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    # note: the balance identity is only checkable at moderate mu; here the
    # dissipation integrand collapses inside a single step and trapezoid
    # accumulation cannot see it, so we assert the monotone decay alone


def test_identity_residual_requires_damping():
    g = Grid(16, 16)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=0.01, t_end=0.05)
    traj = simulate(cfg, initial_data(g, "cos-x", amplitude=0.1))
    assert traj.dissipation is None
    with pytest.raises(ValueError):
        l2_identity_residual(traj)


def test_spatial_spectral_convergence():
    def profile(grid):
        return initial_data(grid, "gaussian-bell")

    rep = spatial_convergence_study(SYM, profile, [16, 32, 64], t_end=0.05, dt=5e-3)
    e16, e32, e64 = rep.errors
    # analytic data: each doubling gains orders of magnitude until roundoff
    assert e32 <= max(1e-3 * e16, 10 * SPATIAL_ERROR_FLOOR)
    assert e64 <= max(1e-3 * e32, 10 * SPATIAL_ERROR_FLOOR)
    with pytest.raises(InsufficientDataError, match="two distinct n_values"):
        spatial_convergence_study(SYM, profile, [16], t_end=0.05, dt=5e-3)


def test_simulate_is_the_only_caller_of_a_stepper_step():
    """simulate's marching loop, the generator _march that the CLI's run
    consumes too, owns the step rule, divergence check and guards; a second
    loop over .step( would have to repeat them."""
    package = Path(dgzk.__file__).parent
    callers = []
    for path in sorted(package.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            callers += [(str(path.relative_to(package)), getattr(top, "name", None))
                        for node in ast.walk(top)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "step"]
    assert callers == [("solver.py", "_march")]
