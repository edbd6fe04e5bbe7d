"""Conserved functionals, sup norms, commutator and smoothing-estimate checks."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgzk import (
    DispersionSymbol,
    Grid,
    SpectralField,
    SymmetryViolationError,
    SimulationConfig,
    Trajectory,
    commutator_check,
    commutator_scan,
    cubic_integral,
    diagnostics_csv,
    energy,
    field_from_modes,
    forward_transform,
    hermitian_defect,
    initial_data,
    inverse_transform,
    l1t_linf_estimate_check,
    mass,
    propagate,
    simulate,
    sup_norm_diagnostics,
    zero_field,
)
from dgzk import spectral
from dgzk.diagnostics import (FOUR_PI_SQ, _LAST_GRID, _Records, _bessel_multipliers,
                              build_records, L1tLinfReport)
from dgzk.errors import InsufficientDataError
from dgzk.spectral import (_PRODUCT_COLUMNS, RecordedStates, _RefinedPlanes, _block,
                           _block_dims, _half, _half_sq, _real_values, dealias, derivative,
                           embed_in_grid, project_mean_zero_x)

from fieldgen import (_record_fft_calls, _record_products, assert_irfft2_values, band_field,
                      cos_x, real_field)

SYM = DispersionSymbol(1, 1.0)


def test_mass_closed_forms():
    g = Grid(16, 16)
    assert mass(zero_field(g)) == 0.0
    c = field_from_modes(g, {(1, 0): 0.5, (-1, 0): 0.5})
    assert np.isclose(mass(c), 2 * np.pi**2, rtol=1e-13)


def test_mass_matches_grid_quadrature(rng):
    g = Grid(32, 32)
    samples = rng.standard_normal(g.shape)
    from dgzk import forward_transform

    f = forward_transform(g, samples)
    quad = g.cell_area * np.sum(samples**2)
    assert abs(mass(f) - quad) <= 1e-10 * quad


def test_energy_closed_form():
    g = Grid(16, 16)
    assert energy(zero_field(g), SYM) == 0.0
    c = field_from_modes(g, {(1, 0): 0.5, (-1, 0): 0.5})
    assert abs(energy(c, SYM) - np.pi**2) <= 1e-10
    # opposite sign symbol cancels the quadratic weight on the diagonal mode
    diag = field_from_modes(g, {(1, 1): 0.5, (-1, -1): 0.5})
    assert energy(diag, DispersionSymbol(1, 1.0, sign=-1)) + cubic_integral(diag) / 6.0 == 0.0


def test_cubic_integral_closed_form():
    g = Grid(32, 32)
    u = field_from_modes(g, {(1, 0): 0.5, (-1, 0): 0.5, (2, 0): 0.5, (-2, 0): 0.5})
    assert abs(cubic_integral(u) - 3 * np.pi**2) <= 1e-9


def test_cubic_integral_refinement_oracle(rng):
    from dgzk import resample_values

    g = Grid(32, 32)
    u = band_field(g, 10, rng, mean_zero_x=False)
    got = cubic_integral(u)
    vals4 = resample_values(u, 4).real
    finer = (2 * np.pi) ** 2 * float(np.mean(vals4**3))
    assert abs(got - finer) <= 1e-9 * max(1.0, abs(finer))


def test_sup_norm_closed_forms():
    g = Grid(32, 32)
    c = field_from_modes(g, {(1, 0): 0.5, (-1, 0): 0.5})
    su, sx, sy = sup_norm_diagnostics(c)
    assert np.isclose(su, 1.0, atol=1e-12)
    assert np.isclose(sx, 1.0, atol=1e-12)
    assert sy <= 1e-12
    assert sup_norm_diagnostics(zero_field(g)) == (0.0, 0.0, 0.0)
    # cos x has u_y = 0 exactly: its sup is +0.0, not -0.0
    assert math.copysign(1.0, sy) == 1.0
    assert all(math.copysign(1.0, v) == 1.0 for v in sup_norm_diagnostics(zero_field(g)))


def test_sup_norm_refinement_stability():
    g = Grid(32, 32)
    # cos x + cos y
    f = field_from_modes(g, {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5})
    base = sup_norm_diagnostics(f)
    fine = _oracle_sups(f, 4)
    assert all(abs(a - b) <= 1e-6 for a, b in zip(base, fine))
    assert np.isclose(base[0], 2.0, atol=1e-12)


def _oracle_sups(f, refine):
    """Sups through the full complex padding and the complex inverse transform."""
    big = Grid(refine * f.grid.nx, refine * f.grid.ny)
    return [float(np.max(np.abs(np.fft.ifft2(embed_in_grid(h, big).coeffs, norm="forward"))))
            for h in (f, derivative(f, "x"), derivative(f, "y"))]


def _oracle_values(f):
    """Values on the 2x grid through the complex inverse transform."""
    big = Grid(2 * f.grid.nx, 2 * f.grid.ny)
    return np.fft.ifft2(embed_in_grid(f, big).coeffs, norm="forward").real


def _oracle_energy(f, symbol):
    vals = _oracle_values(f)
    w = (np.abs(f.grid.kx2d) ** (1 + symbol.alpha)
         + symbol.sign * np.abs(f.grid.ky2d) ** (1.0 + symbol.beta))
    quad = 0.5 * FOUR_PI_SQ * float(np.sum(w * np.abs(f.coeffs) ** 2))
    return quad - FOUR_PI_SQ * float(np.mean(vals**3)) / 6.0


_EVEN = st.integers(4, 32).map(lambda k: 2 * k)


@settings(max_examples=30, deadline=None)
@given(nx=_EVEN, ny=_EVEN, seed=st.integers(0, 2**32 - 1),
       strip_bytes=st.sampled_from([None, 2**9, 3 * 2**9]))
def test_records_of_real_fields_match_the_complex_padded_oracle(nx, ny, seed, strip_bytes):
    """Records against a complex evaluation of the padded fields.  With
    strip_bytes, the 2x planes (one strip at these grids) are reduced in
    strips of 2 to 12 rows: the sups keep their bits, and the cubic
    integral moves within 1e-15 of the integral of |u|^3."""
    # real_field fills the Nyquist row and column, so the even split of
    # those modes over the padded half spectrum is exercised too
    rng = np.random.default_rng(seed)
    g = Grid(nx, ny)
    times = np.array([0.0, 0.1, 0.25])
    states = [real_field(g, rng) for _ in times]
    records = build_records(times, states, SYM)
    if strip_bytes is not None:
        whole = [(r.sup_u, r.sup_ux, r.sup_uy) for r in records]
        cubic = [cubic_integral(f) for f in states]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "_STRIP_BYTES", strip_bytes)
            records = build_records(times, states, SYM)
            striped = [cubic_integral(f) for f in states]
        assert [(r.sup_u, r.sup_ux, r.sup_uy) for r in records] == whole
        for f, got, want in zip(states, striped, cubic):
            scale = FOUR_PI_SQ * np.mean(np.abs(_oracle_values(f)) ** 3)
            assert abs(got - want) <= 1e-15 * scale
    close = lambda got, want: abs(got - want) <= 1e-13 * abs(want)
    g_accum, prev = 0.0, None
    for i, (f, r) in enumerate(zip(states, records)):
        sups = _oracle_sups(f, 2)
        assert close(r.sup_u, sups[0]) and close(r.sup_ux, sups[1]) and close(r.sup_uy, sups[2])
        assert close(r.energy, _oracle_energy(f, SYM))
        if i > 0:
            g_accum += 0.5 * (times[i] - times[i - 1]) * (sum(sups) + sum(prev))
        prev = sups
        assert abs(r.g_accum - g_accum) <= 1e-13 * max(g_accum, 1e-300)


def test_non_real_fields_raise_symmetry_violation():
    g = Grid(16, 16)
    f = field_from_modes(g, {(1, 1): 1.0})  # e^{i(x+y)}, not a real function
    with pytest.raises(SymmetryViolationError):
        sup_norm_diagnostics(f)
    with pytest.raises(SymmetryViolationError):
        cubic_integral(f)
    with pytest.raises(SymmetryViolationError):
        build_records(np.array([0.0]), [f], SYM)
    with pytest.raises(SymmetryViolationError):
        commutator_check(f, f, 2.0)


def test_a_record_runs_its_x_passes_on_the_data_columns_only(monkeypatch):
    """Each plane of a record is one x pass (ifft) along the 2nx rows of the
    2x grid on the state's data columns, at most ny/2 + 1 for the initial
    field and kc for a recorded Galerkin block, then one y pass over the
    same columns: a cos/sin product, since no state here has more than
    _PRODUCT_COLUMNS of them, and no irfft."""
    g = Grid(32, 32)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=5e-3, t_end=0.01, record_every=1)
    traj = simulate(cfg, initial_data(g, "random-band", seed=3))
    assert len(traj.states) == 3
    _, kc = _block_dims(g)
    widths = [g.ny // 2 + 1] + [kc] * (len(traj.states) - 1)
    assert max(widths) <= _PRODUCT_COLUMNS
    calls = _record_fft_calls(monkeypatch)
    products = _record_products(monkeypatch)
    build_records(traj.times, traj.states, SYM)
    assert len(calls) == 3 * len(widths)
    for (name, shape), width in zip(calls, np.repeat(widths, 3)):
        assert name == "ifft" and np.prod(shape) <= width * 2 * g.nx
    assert products == [(shape[1], 64) for _, shape in calls]


def test_real_fields_take_only_real_transforms(monkeypatch, rng):
    g = Grid(32, 32)
    f = band_field(g, 8, rng, mean_zero_x=False)
    h = band_field(g, 8, rng, mean_zero_x=False)
    calls = _record_fft_calls(monkeypatch)
    products = _record_products(monkeypatch)
    commutator_check(f, h, 1.5)
    # u, u_x, u_y of f, then g and J^s g, each an x pass on the 9 columns
    # band 8 fills (n = 0 .. 8) of the 17 of the half spectrum, then a y
    # pass that is a cos/sin product (9 <= _PRODUCT_COLUMNS); the products
    # fg and f J^s g, each an rfft along y and an x pass on the 9 + 9 - 1
    # columns their spectra fill
    assert sorted(calls) == sorted([("ifft", (64, 9))] * 5
                                   + [("rfft", (64, 33)), ("fft", (64, 17))] * 2)
    assert products == [(9, 64)] * 5
    calls.clear()
    forward_transform(g, inverse_transform(f))
    assert calls == [("irfft2", (32, 32)), ("rfft2", (32, 17))]


def _data_width(state, grid):
    """The data columns _RefinedPlanes reads: the half-spectrum columns of a
    field or a Galerkin block up to its last nonzero one."""
    half = state.coeffs[:, : grid.ny // 2 + 1] if hasattr(state, "coeffs") else state
    return int(np.flatnonzero(np.any(half != 0, axis=0))[-1]) + 1


@settings(max_examples=25, deadline=None)
@given(nx=_EVEN, ny=_EVEN, seed=st.integers(0, 2**32 - 1))
@example(nx=16, ny=64, seed=0)  # a full field past _PRODUCT_COLUMNS, blocks under it
@example(nx=16, ny=96, seed=0)  # every state past it
def test_refined_planes_have_the_values_of_irfft2_in_either_layout(nx, ny, seed):
    """One evaluator, fed blocks and fields of several widths in turn (each
    switch leaves stale data in its buffers), gives every plane with the
    values of irfft2 of the padded half spectrum (see assert_irfft2_values).
    Fields and blocks are read on their columns up to the last nonzero one:
    `narrow` fills the block's kc columns, and rows the block does not hold."""
    rng = np.random.default_rng(seed)
    g = Grid(nx, ny)
    big = Grid(2 * nx, 2 * ny)
    dims = _block_dims(g)
    block_field = dealias(project_mean_zero_x(band_field(g, min(nx, ny) // 3, rng)))
    block = _block(block_field.coeffs, *dims)
    field = real_field(g, rng)
    narrow = real_field(g, rng)
    narrow.coeffs[:, dims[1]:ny - dims[1] + 1] = 0.0  # |n| < kc, every m
    planes = _RefinedPlanes(g)
    for state, f in ((block, block_field), (field, field), (block, block_field),
                     (narrow, narrow), (block, block_field), (narrow, narrow)):
        want = [_real_values(_half(embed_in_grid(h, big).coeffs), big.ny)
                for h in (f, derivative(f, "x"), derivative(f, "y"))]
        got = [p.copy() for p in planes(state)]
        for a, b in zip(got, want):
            assert_irfft2_values(a, b, _data_width(state, g))


def test_a_512_record_reduces_its_2x_planes_in_strips():
    """A record takes its sups and cubic integral over strips of rows, so
    at 512^2, where one 2x plane of values is 8.4 MB, a record builder
    made and called once on a run's block peaks under 8 MB and keeps
    under 4 MB of buffers and weights (tracemalloc)."""
    g = Grid(512, 512)
    block = _block(initial_data(g, "random-band", seed=0).coeffs, *_block_dims(g))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        records = _Records(g, SYM, (1.0,))
        records(0.0, block)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 8e6
    assert kept - base < 4e6


@pytest.mark.parametrize("strip_bytes", [2**9, 2**13, 2**15])
def test_reductions_over_strips_keep_the_bits_of_whole_planes_on_power_of_two_grids(
        monkeypatch, strip_bytes):
    """On a 64^2 grid (2x planes of 128 x 128) strips of 2, 8 and 32 rows give
    the sups of _sup over each whole plane and the cubic integral of the mean
    of u^3 over the whole u plane, bit for bit."""
    g = Grid(64, 64)
    f = initial_data(g, "random-band", seed=1)
    planes = [p.copy() for p in _RefinedPlanes(g)(f)]
    u = planes[0]
    monkeypatch.setattr(spectral, "_STRIP_BYTES", strip_bytes)
    got = list(_RefinedPlanes(g).reduced(f))
    assert [sup for sup, _ in got] == [spectral._sup(p) for p in planes]
    assert got[0][1] == FOUR_PI_SQ * float(np.mean(u * u * u))
    assert got[1][1] is None and got[2][1] is None


def test_reductions_of_a_zero_field_are_positive_zero(monkeypatch):
    """Over several strips the sups of a zero field are +0.0, as _sup gives
    for a zero plane, and its cubic integral is 0."""
    monkeypatch.setattr(spectral, "_STRIP_BYTES", 2**9)
    f = zero_field(Grid(16, 24))
    for sup in sup_norm_diagnostics(f):
        assert sup == 0.0 and math.copysign(1.0, sup) == 1.0
    assert cubic_integral(f) == 0.0


def test_full_plane_checks_do_not_depend_on_the_strip_size(monkeypatch):
    """commutator_check and l1t_linf_estimate_check take whole 2x planes, as
    one strip of every row: their results keep their bits when records
    are reduced in strips of 2 rows."""
    g = Grid(32, 32)
    rng = np.random.default_rng(2)
    f, h = real_field(g, rng), real_field(g, rng)
    traj = _manual_trajectory(g, SYM, 0.5, 5)

    def results():
        _LAST_GRID.__dict__.clear()  # build the 2x buffers afresh
        rep = l1t_linf_estimate_check(traj, 1.0, 1.0)
        return commutator_check(f, h, 1.5), (rep.lhs, rep.rhs, rep.ratio)

    want = results()
    monkeypatch.setattr(spectral, "_STRIP_BYTES", 2**9)
    assert results() == want


def test_block_records_match_records_of_their_full_fields():
    """simulate records its states as Galerkin blocks; the records of the
    same states read as plain SpectralFields agree: sups and g_accum
    exactly, mass, energy and the H^s norms to 1e-15 relative."""
    g = Grid(48, 40)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=2e-3, t_end=0.02, record_every=3,
                           h_s=(1.0, 2.5))
    traj = simulate(cfg, initial_data(g, "random-band", amplitude=0.5, seed=4))
    plain = build_records(traj.times, list(traj.states), SYM, cfg.h_s)
    close = lambda got, want: abs(got - want) <= 1e-15 * abs(want)
    for got, want in zip(traj.diagnostics, plain):
        assert (got.sup_u, got.sup_ux, got.sup_uy, got.g_accum) == (
            want.sup_u, want.sup_ux, want.sup_uy, want.g_accum)
        assert close(got.mass, want.mass) and close(got.energy, want.energy)
        assert all(close(got.h_s_norms[s], want.h_s_norms[s]) for s in cfg.h_s)


def test_a_block_record_keeps_the_realness_check():
    g = Grid(16, 16)
    block = _block(dealias(cos_x(g)).coeffs, *_block_dims(g))
    block[1, 0] += 1e-6  # m = 1 no longer conjugate to m = -1 in column 0
    states = RecordedStates(g, [block])
    with pytest.raises(SymmetryViolationError):
        build_records(np.array([0.0]), states, SYM)


def test_recorded_states_build_the_first_state_on_every_read():
    g = Grid(16, 16)
    phi = dealias(cos_x(g))
    states = RecordedStates(g, [_block(phi.coeffs, *_block_dims(g))])
    first = states[0]
    first.coeffs[1, 0] = 99.0
    assert states[0] is not first
    assert np.array_equal(states[0].coeffs, phi.coeffs)


def test_commutator_two_mode_closed_form():
    g = Grid(16, 16)
    f = field_from_modes(g, {(1, 0): 0.5, (-1, 0): 0.5})  # cos x
    lhs, rhs = commutator_check(f, f, 2.0)
    # J^2(cos^2 x) - cos x J^2 cos x = -1/2 + (3/2) cos 2x
    assert abs(lhs - np.pi * np.sqrt(11 / 2)) <= 1e-10
    assert rhs > 0


def _full_transform_commutator_lhs(f, h, s):
    """The lhs of commutator_check(f, h, s) from the full rfft2 of both 2x
    products, every column of their half spectra."""
    grid = f.grid
    planes = _RefinedPlanes(grid)
    f_vals = next(planes(f)).copy()
    h_data = planes.data(h)
    h_vals = next(planes.of_data(h_data)).copy()
    js, js_big, _ = _bessel_multipliers(grid, s)
    js_h = next(planes.of_data(h_data * js[:, :h_data.shape[1]]))
    diff = np.fft.rfft2(f_vals * h_vals, norm="forward") * js_big
    diff -= np.fft.rfft2(f_vals * js_h, norm="forward")
    return 2.0 * np.pi * math.sqrt(float(np.sum(_half_sq(diff, 2 * grid.ny))))


@pytest.mark.parametrize("nx, ny, band", [
    (64, 64, 8), (32, 32, 3),    # narrow bands: a few of the 33 and 17 columns
    (64, 64, 32), (16, 16, 8),   # full bands, which fill the Nyquist row and column
    (32, 48, 5), (48, 32, 24),   # rectangular, narrow and full
])
def test_commutator_lhs_from_the_product_band_matches_the_full_transforms(nx, ny, band):
    """commutator_check transforms its two 2x products along x on the first
    wf + wg - 1 columns only, wf and wg the data widths of f and g, where
    their spectra live: its lhs stays within 1e-15 relative of the lhs
    from the full rfft2 of both products (the dropped columns hold
    roundoff), and a full band takes every column."""
    grid = Grid(nx, ny)
    for trial in range(12):
        rng = np.random.default_rng([nx, ny, band, trial])
        f, h = (band_field(grid, band, rng, mean_zero_x=False) for _ in range(2))
        s = (1.0, 1.5, 2.0)[trial % 3]
        lhs, _ = commutator_check(f, h, s)
        want = _full_transform_commutator_lhs(f, h, s)
        assert abs(lhs - want) <= 1e-15 * want


def test_commutator_constant_f_is_exactly_zero(rng):
    g = Grid(16, 16)
    const = field_from_modes(g, {(0, 0): 3.0})
    h = band_field(g, 4, rng, mean_zero_x=False)
    lhs, _ = commutator_check(const, h, 1.5)
    assert lhs == 0.0


def test_commutator_multipliers_are_shared_read_only_and_keep_the_outputs(rng):
    g = Grid(16, 24)
    f = band_field(g, 4, rng, mean_zero_x=False)
    h = band_field(g, 4, rng, mean_zero_x=False)
    first = commutator_check(f, h, 1.5)
    tables = _bessel_multipliers(g, 1.5)
    assert all(not t.flags.writeable for t in tables)
    with pytest.raises(ValueError):
        tables[1][0, 0] = 0.0
    assert _bessel_multipliers(Grid(16, 24), 1.5) is tables
    assert commutator_check(f, h, 1.5) == first


def test_commutator_checks_f_and_g_only_for_realness():
    """A g whose hermitian_defect is 9e-13, at most HERMITIAN_TOL, passes
    although J^2 g, which is not checked, reads 6.1e-12 (a bump at mode
    (20, 20) without its conjugate); 1.1e-12 in g or in f is refused.  The
    outputs on one grid do not depend on checks made on another first."""
    grid = Grid(64, 64)
    rng = np.random.default_rng(0)
    f = band_field(grid, 8, rng, mean_zero_x=False)
    g = band_field(grid, 8, rng, mean_zero_x=False)
    scale = np.max(np.abs(g.coeffs))
    bumped = g.copy()
    bumped.coeffs[20, 20] += 9e-13 * scale
    j2 = SpectralField(grid, bumped.coeffs * (1.0 + grid.kx2d**2 + grid.ky2d**2))
    assert hermitian_defect(bumped) <= 1e-12 < 6e-12 < hermitian_defect(j2)
    first = commutator_check(f, bumped, 2.0)
    assert all(map(math.isfinite, first))
    commutator_check(band_field(Grid(16, 24), 4, rng), band_field(Grid(16, 24), 4, rng), 2.0)
    assert commutator_check(f, bumped, 2.0) == first
    def refused(field):
        field = field.copy()
        field.coeffs[20, 20] += 1.1e-12 * np.max(np.abs(field.coeffs))
        return field

    for pair in ((refused(f), g), (f, refused(g))):
        with pytest.raises(SymmetryViolationError, match="real function"):
            commutator_check(*pair, 2.0)


def test_commutator_validation(rng):
    g = Grid(16, 16)
    f = real_field(g, rng)
    with pytest.raises(ValueError):
        commutator_check(f, f, 0.5)
    with pytest.raises(ValueError):
        commutator_check(f, real_field(Grid(32, 32), rng), 1.0)
    for s in (np.nan, np.inf):
        with pytest.raises(ValueError):
            commutator_check(f, f, s)
    with pytest.raises(ValueError, match="pairs must be >= 1"):
        commutator_scan(g, 0, (1.0,), seed=0)


def test_commutator_envelope_quick(rng):
    g = Grid(32, 32)
    for s in (1.0, 1.5, 2.0):
        for _ in range(7):
            f = band_field(g, 8, rng, mean_zero_x=False)
            h = band_field(g, 8, rng, mean_zero_x=False)
            lhs, rhs = commutator_check(f, h, s)
            assert lhs <= 100.0 * rhs


def test_commutator_scan_rows_do_not_depend_on_the_worker_count():
    # each pair draws from its own (seed, s index, pair) stream
    serial = commutator_scan(Grid(16, 16), 3, (1.0, 2.0), seed=5)
    assert serial.band == 4 and len(serial.rows) == 6
    assert commutator_scan(Grid(16, 16), 3, (1.0, 2.0), seed=5, workers=2).rows == serial.rows


def test_a_commutator_scan_leaves_no_2x_buffers_behind():
    """commutator_check keeps its thread's last grid with the 2x buffers
    (80 nx ny bytes, 5.2 MB at 256^2); a scan drops that entry when it
    returns, so it keeps less than 0.5 MB once the J^s tables are cached
    and the lazy imports are done."""
    g = Grid(256, 256)
    commutator_scan(Grid(16, 16), 1, (1.5,), seed=0)
    _bessel_multipliers(g, 1.5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        commutator_scan(g, 1, (1.5,), seed=0, workers=1)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept < 0.5e6
    f = real_field(Grid(16, 16), np.random.default_rng(0))
    commutator_check(f, f, 1.5)
    assert _LAST_GRID.grid == Grid(16, 16)  # a direct check keeps its entry


def test_g_accum_is_trapezoid_of_sups():
    g = Grid(32, 32)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=5e-3, t_end=0.1, record_every=4)
    traj = simulate(cfg, initial_data(g, "cos-x", amplitude=0.5))
    sums = np.array([r.sup_u + r.sup_ux + r.sup_uy for r in traj.diagnostics])
    want = np.trapezoid(sums, traj.times)
    assert abs(traj.diagnostics[-1].g_accum - want) <= 1e-12 * max(1.0, want)
    accs = [r.g_accum for r in traj.diagnostics]
    assert all(a <= b + 1e-15 for a, b in zip(accs, accs[1:]))


def test_diagnostics_csv_shape():
    g = Grid(16, 16)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=0.01, t_end=0.03, h_s=(1.0, 2.0))
    traj = simulate(cfg, initial_data(g, "cos-x", amplitude=0.1))
    header, rows = diagnostics_csv(traj.diagnostics, cfg.h_s)
    assert header == ["t", "mass", "energy", "h1", "h2",
                      "sup_u", "sup_ux", "sup_uy", "g_accum"]
    assert len(rows) == len(traj.times)
    assert all(len(r) == len(header) for r in rows)


def _manual_trajectory(g, symbol, t_end, n_records):
    phi = field_from_modes(g, {(1, 1): 0.5, (-1, -1): 0.5})  # cos(x + y)
    times = np.linspace(0.0, t_end, n_records)
    states = [propagate(phi, float(t), symbol) for t in times]
    cfg = SimulationConfig(grid=g, symbol=symbol, dt=times[1], t_end=t_end)
    records = build_records(times, states, symbol)
    return Trajectory(times=times, states=states, diagnostics=records, config=cfg)


def test_l1t_linf_linear_single_mode_closed_form():
    """omega(1, 1) = 0 under sign -1, so cos(x + y) stays put, its sup is 1
    and the left side is exactly T."""
    g = Grid(16, 16)
    T = 0.75
    traj = _manual_trajectory(g, DispersionSymbol(1, 1.0, sign=-1), T, 6)
    rep = l1t_linf_estimate_check(traj, 1.0, 1.0)
    assert abs(rep.lhs - T) <= 1e-10

    # right side in closed form: the source u^2/2 = 1/4 + cos(2x + 2y)/4
    mixed = 2.0 * np.sqrt(2) * np.pi  # (1+1)^{1/2} twice, times ||cos(x+y)|| = sqrt(2) pi
    src = T * np.pi * np.sqrt(14) / 4  # Jx lifts the (2, 2) mode by sqrt(5)
    assert abs(rep.rhs - np.sqrt(T) * (mixed + src)) <= 1e-8
    assert rep.ratio == pytest.approx(rep.lhs / rep.rhs)


def test_l1t_linf_zero_trajectory():
    g = Grid(16, 16)
    times = np.linspace(0.0, 0.5, 5)
    states = [zero_field(g) for _ in times]
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=0.125, t_end=0.5)
    traj = Trajectory(times=times, states=states,
                      diagnostics=build_records(times, states, SYM), config=cfg)
    rep = l1t_linf_estimate_check(traj, 1.0, 1.0)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio == 0.0


def test_l1t_linf_nonlinear_envelope():
    g = Grid(32, 32)
    cfg = SimulationConfig(grid=g, symbol=SYM, dt=1e-2, t_end=0.5, record_every=5)
    traj = simulate(cfg, initial_data(g, "gaussian-bell", amplitude=0.5))
    rep = l1t_linf_estimate_check(traj, 1.0, 1.0)
    assert 0 < rep.ratio <= 100.0


def test_l1t_linf_validation():
    g = Grid(16, 16)
    short = _manual_trajectory(g, SYM, 0.1, 3)
    with pytest.raises(InsufficientDataError):
        l1t_linf_estimate_check(short, 1.0, 1.0)
    traj = _manual_trajectory(g, SYM, 0.1, 6)
    with pytest.raises(ValueError):
        l1t_linf_estimate_check(traj, 0.3, 1.0)  # below 1/2 - 1/2^{alpha+2}
    with pytest.raises(ValueError):
        l1t_linf_estimate_check(traj, 1.0, 0.2)  # below 1/2 - beta/4
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            l1t_linf_estimate_check(traj, bad, 1.0)
        with pytest.raises(ValueError):
            l1t_linf_estimate_check(traj, 1.0, bad)
