"""Transform contracts, spectral calculus, and the projection toolbox.

The direct-summation DFT oracle here restates the normalization from
scratch so the fast path is checked against an independent definition,
not against itself.
"""
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dgzk
from dgzk import (
    Grid,
    SpectralField,
    bessel_potential,
    dealias,
    derivative,
    dyadic_project,
    embed_in_grid,
    field_from_modes,
    forward_transform,
    fractional_derivative,
    hermitian_defect,
    inverse_transform,
    l2_norm,
    mean_zero_x_defect,
    project_mean_zero_x,
    resample_values,
    shell_indices,
    sobolev_norm,
    truncate_to_grid,
    zero_field,
)
from dgzk.errors import SymmetryViolationError
from dgzk import spectral
from dgzk.solver import _QuadraticTerm
from dgzk.spectral import (_PRODUCT_COLUMNS, _ColumnValues, _band_coeffs, _block,
                           _block_dims, _full_from_block, _full_spectrum, _half, _half_sq,
                           _hermitian_gap, _nonzero_columns, _pad_rows, _real_values,
                           _require_real)

from fieldgen import (_record_fft_calls, _record_products, assert_irfft2_values, band_field,
                      cos_x, real_field)


def direct_dft_coefficient(samples, grid, m, n):
    """Brute-force (1/(nx ny)) sum_{a,b} f(x_a, y_b) e^{-i(m x_a + n y_b)}."""
    xa = grid.x[:, None]
    yb = grid.y[None, :]
    phase = np.exp(-1j * (m * xa + n * yb))
    return (samples * phase).sum() / (grid.nx * grid.ny)


def test_forward_transform_matches_direct_dft(rng):
    g = Grid(16, 16)
    samples = rng.standard_normal(g.shape)
    f = forward_transform(g, samples)
    for m in range(-7, 9):
        for n in range(-7, 9):
            want = direct_dft_coefficient(samples, g, m, n)
            got = f.coeffs[g.index_of(m, "x"), g.index_of(n, "y")]
            assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("n", [16, 32, 64])
def test_round_trip_identity(rng, n):
    g = Grid(n, n)
    samples = rng.standard_normal(g.shape)
    back = inverse_transform(forward_transform(g, samples))
    assert np.max(np.abs(back - samples)) <= 1e-12


def test_forward_transform_input_validation(rng):
    g = Grid(16, 16)
    with pytest.raises(ValueError):
        forward_transform(g, np.ones((16, 8)))
    with pytest.raises(ValueError):
        forward_transform(g, np.ones(g.shape, dtype=complex))


def test_parseval(rng):
    g = Grid(32, 32)
    samples = rng.standard_normal(g.shape)
    f = forward_transform(g, samples)
    spectral = (2 * np.pi) ** 2 * np.sum(np.abs(f.coeffs) ** 2)
    quadrature = g.cell_area * np.sum(samples**2)
    assert abs(spectral - quadrature) <= 1e-10 * abs(quadrature)
    assert np.isclose(l2_norm(f) ** 2, quadrature, rtol=1e-10)


def test_constant_and_single_mode_coefficients():
    g = Grid(16, 16)
    f = forward_transform(g, np.full(g.shape, 3.5))
    assert abs(f.coeffs[0, 0] - 3.5) <= 1e-14
    assert np.sum(np.abs(f.coeffs) > 1e-13) == 1

    c = cos_x(g)
    assert abs(c.coeffs[g.index_of(1, "x"), 0] - 0.5) <= 1e-14
    assert abs(c.coeffs[g.index_of(-1, "x"), 0] - 0.5) <= 1e-14
    assert np.isclose(l2_norm(c), np.sqrt(2 * np.pi**2), rtol=1e-12)


def test_l2_norm_squares_its_moduli_in_place():
    """l2_norm has the bits of 2 pi sqrt(sum |c|^2) and holds one real array
    of moduli, half its field, not a second one for their squares
    (tracemalloc, 512 x 256)."""
    f = real_field(Grid(512, 256), np.random.default_rng(6))
    want = float(2.0 * np.pi * np.sqrt(np.sum(np.abs(f.coeffs) ** 2)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = l2_norm(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak - base <= 0.55 * f.coeffs.nbytes


def _roll_flip_gap(c):
    """max |c - conj(c[-m, -n])| by the original formula: roll and flip of
    the whole array."""
    return np.max(np.abs(c - np.conj(np.roll(np.flip(c), 1, axis=(0, 1)))))


@settings(max_examples=80, deadline=None)
@given(nx=st.integers(1, 40), ny=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       perturb=st.booleans())
@example(nx=16, ny=24, seed=0, perturb=True)
@example(nx=16, ny=24, seed=0, perturb=False)
@example(nx=9, ny=15, seed=0, perturb=True)
@example(nx=9, ny=15, seed=0, perturb=False)
def test_hermitian_defect_equals_the_roll_flip_formula(nx, ny, seed, perturb):
    """The half-spectrum gap is == the gap of the roll/flip formula, on even
    and odd shapes, Hermitian or perturbed; so is the relative defect."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
    c = 0.5 * (z + np.conj(np.roll(np.flip(z), 1, axis=(0, 1))))
    if perturb:
        c[rng.integers(nx), rng.integers(ny)] += rng.standard_normal() * 10.0 ** rng.integers(-9, 1)
    assert _hermitian_gap(c) == _roll_flip_gap(c)
    if nx % 2 == ny % 2 == 0 and min(nx, ny) >= 8:
        old = float(_roll_flip_gap(c) / np.max(np.abs(c)))
        assert hermitian_defect(SpectralField(Grid(nx, ny), c)) == old


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(4, 24).map(lambda k: 2 * k), ny=st.integers(4, 24).map(lambda k: 2 * k),
       seed=st.integers(0, 2**32 - 1))
def test_block_defect_is_the_defect_of_its_full_field(nx, ny, seed):
    """Only column 0 of a Galerkin block can break the symmetry of its full
    field, and the defect _require_real reads on the block is == the full
    field's: it passes at a tolerance of that defect and fails at the float
    below it."""
    def assert_defect(state, defect):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "HERMITIAN_TOL", defect)
            _require_real(state)
            mp.setattr(spectral, "HERMITIAN_TOL", np.nextafter(defect, -np.inf))
            with pytest.raises(SymmetryViolationError):
                _require_real(state)

    rng = np.random.default_rng(seed)
    g = Grid(nx, ny)
    K, kc = _block_dims(g)
    block = rng.standard_normal((2 * K + 1, kc)) + 1j * rng.standard_normal((2 * K + 1, kc))
    block[0, 0] = block[0, 0].real
    block[K + 1:, 0] = np.conj(block[K:0:-1, 0])    # column 0 Hermitian: m and -m
    full = SpectralField(g, _full_from_block(block, g))
    assert hermitian_defect(full) == 0.0
    assert_defect(block, 0.0)
    block[rng.integers(2 * K + 1), 0] += 1e-7 * rng.standard_normal()
    full = SpectralField(g, _full_from_block(block, g))
    assert_defect(block, hermitian_defect(full))
    assert_defect(full, hermitian_defect(full))


def test_hermitian_defect_and_symmetry_gate(rng):
    g = Grid(16, 16)
    f = real_field(g, rng)
    assert hermitian_defect(f) <= 1e-12
    broken = f.copy()
    broken.coeffs[g.index_of(3, "x"), g.index_of(2, "y")] += 0.5
    assert hermitian_defect(broken) > 1e-6
    with pytest.raises(SymmetryViolationError):
        inverse_transform(broken)
    with pytest.raises(SymmetryViolationError):
        resample_values(broken, 2)


def test_field_shape_validation():
    g = Grid(16, 16)
    with pytest.raises(ValueError):
        SpectralField(g, np.zeros((8, 8), dtype=complex))


def test_fractional_derivative_closed_forms():
    g = Grid(16, 16)
    c = cos_x(g)
    d2 = fractional_derivative(c, "x", 2.0)
    # |m|^2 = 1 on both modes of cos x
    assert np.max(np.abs(d2.coeffs - c.coeffs)) <= 1e-14

    f = field_from_modes(g, {(0, 2): 1.0})
    d = fractional_derivative(f, "y", 1.5)
    assert np.isclose(d.coeffs[0, g.index_of(2, "y")], 2.0**1.5, rtol=1e-14)


def test_fractional_derivative_zero_order_is_identity(rng):
    g = Grid(16, 16)
    f = real_field(g, rng)
    for axis in ("x", "y"):
        out = fractional_derivative(f, axis, 0.0)
        assert np.array_equal(out.coeffs, f.coeffs)
        assert out.coeffs is not f.coeffs


def test_fractional_derivative_checks_the_axis_at_order_zero():
    """Order 0 takes the general path, |k|^0 = 1, so it checks the axis too."""
    f = real_field(Grid(16, 16), np.random.default_rng(0))
    with pytest.raises(ValueError, match="axis"):
        fractional_derivative(f, "z", 0.0)


def test_fractional_derivative_semigroup(rng):
    g = Grid(32, 32)
    f = project_mean_zero_x(real_field(g, rng))
    a, b = 0.7, 1.6
    two = fractional_derivative(fractional_derivative(f, "x", a), "x", b)
    one = fractional_derivative(f, "x", a + b)
    scale = np.max(np.abs(one.coeffs))
    assert np.max(np.abs(two.coeffs - one.coeffs)) <= 1e-12 * scale


def test_fractional_derivative_rejects_negative_order():
    g = Grid(16, 16)
    with pytest.raises(ValueError):
        fractional_derivative(zero_field(g), "x", -0.5)


def test_derivative_closed_form():
    g = Grid(16, 16)
    c = cos_x(g)
    minus_sin = inverse_transform(derivative(c, "x"))
    want = -np.sin(g.x)[:, None] * np.ones(g.ny)[None, :]
    assert np.max(np.abs(minus_sin - want)) <= 1e-12


def test_bessel_potential():
    g = Grid(16, 16)
    f = field_from_modes(g, {(1, 1): 1.0})
    out = bessel_potential(f, 2.0)
    assert np.isclose(out.coeffs[g.index_of(1, "x"), g.index_of(1, "y")], 3.0, rtol=1e-14)

    ox = bessel_potential(f, 2.0, mode="x")
    assert np.isclose(ox.coeffs[g.index_of(1, "x"), g.index_of(1, "y")], 2.0, rtol=1e-14)


def test_bessel_potential_inverse(rng):
    g = Grid(16, 16)
    f = real_field(g, rng)
    back = bessel_potential(bessel_potential(f, 1.7), -1.7)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12
    assert np.array_equal(bessel_potential(f, 0.0).coeffs, f.coeffs)


def test_shell_indices_rule():
    # shell 0 is the zero frequency; shell s >= 1 covers 2^{s-1} <= |k| < 2^s
    ks = np.array([0, 1, -1, 2, 3, 4, 7, 8, -8, 15, 16])
    want = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 5])
    assert np.array_equal(shell_indices(ks), want)


def test_dyadic_projection_examples():
    g = Grid(16, 16)
    c = field_from_modes(g, {(1, 0): 0.5, (-1, 0): 0.5})
    q0 = dyadic_project(c, "x", 0)
    q1 = dyadic_project(c, "x", 1)
    assert np.max(np.abs(q0.coeffs)) == 0.0
    assert np.array_equal(q1.coeffs, c.coeffs)


def test_dyadic_shells_partition_exactly(rng):
    g = Grid(32, 32)
    f = real_field(g, rng)
    total = zero_field(g)
    for s in range(6):  # shells 0..5 cover |m| <= 16
        total.coeffs += dyadic_project(f, "x", s).coeffs
    assert np.array_equal(total.coeffs, f.coeffs)


def test_sobolev_norm_closed_form_and_monotonicity(rng):
    g = Grid(16, 16)
    f = field_from_modes(g, {(1, 1): 1.0})
    assert np.isclose(sobolev_norm(f, 1.0), np.sqrt(3.0), rtol=1e-14)
    assert np.isclose(sobolev_norm(f, 0.0), 1.0, rtol=1e-14)

    r = real_field(g, rng)
    values = [sobolev_norm(r, s) for s in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert all(a <= b * (1 + 1e-14) for a, b in zip(values, values[1:]))


def test_project_mean_zero_x():
    g = Grid(16, 16)
    cy = field_from_modes(g, {(0, 1): 0.5, (0, -1): 0.5})
    assert np.max(np.abs(project_mean_zero_x(cy).coeffs)) == 0.0
    c = field_from_modes(g, {(1, 0): 0.5, (-1, 0): 0.5})
    assert np.array_equal(project_mean_zero_x(c).coeffs, c.coeffs)


def test_project_mean_zero_x_idempotent(rng):
    g = Grid(16, 16)
    f = real_field(g, rng)
    once = project_mean_zero_x(f)
    twice = project_mean_zero_x(once)
    assert np.array_equal(once.coeffs, twice.coeffs)
    assert mean_zero_x_defect(once) == 0.0
    assert mean_zero_x_defect(f) > 0.0


def test_dealias_band_rules():
    g = Grid(16, 16)
    inband = field_from_modes(g, {(2, 1): 1.0, (-2, -1): 1.0})
    assert np.array_equal(dealias(inband).coeffs, inband.coeffs)
    nyq = field_from_modes(g, {(8, 0): 1.0})
    assert np.max(np.abs(dealias(nyq).coeffs)) == 0.0


def test_dealiased_product_matches_fine_grid(rng):
    """Quadratic product on the working grid vs exact product on 2x grid."""
    g = Grid(32, 32)
    big = Grid(64, 64)
    u = band_field(g, 10, rng, mean_zero_x=False)
    v = band_field(g, 10, rng, mean_zero_x=False)

    prod = dealias(forward_transform(g, inverse_transform(u) * inverse_transform(v)))

    ub = inverse_transform(embed_in_grid(u, big))
    vb = inverse_transform(embed_in_grid(v, big))
    exact = dealias(truncate_to_grid(forward_transform(big, ub * vb), g))
    assert np.max(np.abs(prod.coeffs - exact.coeffs)) <= 1e-10


def test_embed_truncate_round_trip(rng):
    g = Grid(16, 16)
    big = Grid(48, 48)
    f = real_field(g, rng)
    emb = embed_in_grid(f, big)
    assert hermitian_defect(emb) <= 1e-12
    back = truncate_to_grid(emb, g)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-14

    # embedding preserves the norm once the lone Nyquist column is absent;
    # with it, the +-N/2 split halves that row's discrete energy by design
    smooth = dealias(f)
    assert np.isclose(l2_norm(embed_in_grid(smooth, big)), l2_norm(smooth), rtol=1e-13)


def _labels(k, n, big):
    """(label, weight) pairs of the big-point axis that hold wavenumber k of
    an n-point axis: a Nyquist label splits 1/2, 1/2 onto +-n/2 of a longer axis."""
    return [(k, 0.5), (-k, 0.5)] if 2 * k == n and big > n else [(k, 1.0)]


def _embed_oracle(field, big):
    """embed_in_grid written one wavenumber at a time."""
    g = field.grid
    out = np.zeros(big.shape, dtype=np.complex128)
    for i, m in enumerate(g.kx):
        for j, n in enumerate(g.ky):
            for a, wa in _labels(int(m), g.nx, big.nx):
                for b, wb in _labels(int(n), g.ny, big.ny):
                    out[big.index_of(a, "x"), big.index_of(b, "y")] = wa * wb * field.coeffs[i, j]
    return out


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(4, 12).map(lambda k: 2 * k), ny=st.integers(4, 12).map(lambda k: 2 * k),
       px=st.integers(0, 8), py=st.integers(0, 8), kc=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
@example(nx=8, ny=12, px=4, py=0, kc=1, seed=0)   # y unchanged
@example(nx=10, ny=8, px=0, py=8, kc=9, seed=1)   # x unchanged
@example(nx=16, ny=16, px=0, py=0, kc=5, seed=2)  # both unchanged
def test_one_row_rule_pads_folds_and_places_blocks(nx, ny, px, py, kc, seed):
    g, big = Grid(nx, ny), Grid(nx + 2 * px, ny + 2 * py)
    rng = np.random.default_rng(seed)
    f = SpectralField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    embedded = embed_in_grid(f, big)
    assert np.array_equal(embedded.coeffs, _embed_oracle(f, big))
    assert np.array_equal(truncate_to_grid(embedded, g).coeffs, f.coeffs)

    K = nx // 3
    block = rng.standard_normal((2 * K + 1, kc)) + 1j * rng.standard_normal((2 * K + 1, kc))
    rows = np.zeros((nx, kc), dtype=np.complex128)
    _pad_rows(rows, block)
    assert np.array_equal(_block(rows, K, kc), block)


def test_embed_preserves_samples(rng):
    g = Grid(16, 16)
    big = Grid(32, 32)
    f = real_field(g, rng)
    fine = inverse_transform(embed_in_grid(f, big))
    coarse = inverse_transform(f)
    assert np.max(np.abs(fine[::2, ::2] - coarse)) <= 1e-12


def test_resample_values_interpolates_band_limited():
    g = Grid(16, 16)
    c = cos_x(g)
    vals = resample_values(c, factor=4)
    fine = Grid(64, 64)
    want = np.cos(fine.x)[:, None] * np.ones(64)[None, :]
    assert np.max(np.abs(vals - want)) <= 1e-12
    assert vals.dtype == np.float64
    assert np.array_equal(vals, inverse_transform(embed_in_grid(c, fine)))


def test_resample_values_refuses_a_grid_above_the_ceiling(monkeypatch):
    def no_embedding(*args, **kwargs):
        raise AssertionError("padded onto a grid above the ceiling")

    monkeypatch.setattr(spectral, "embed_in_grid", no_embedding)
    # the 160000^2 grid's 2x plane takes 8.2e11 bytes
    with pytest.raises(ValueError, match="bytes of the largest array"):
        resample_values(cos_x(Grid(16, 16)), 10**4)


def test_spectral_is_the_only_module_calling_numpy_fft():
    """The normalization and layout live in one transform layer; a second
    caller of numpy.fft would have to repeat them."""
    package = Path(dgzk.__file__).parent
    pattern = re.compile(r"\b(np|numpy)\.fft\b|from\s+numpy\s+import\s[^\n]*\bfft\b")
    callers = sorted(str(p.relative_to(package)) for p in package.rglob("*.py")
                     if pattern.search(p.read_text(encoding="utf-8")))
    assert callers == ["spectral.py"]


def test_spectral_calls_complex_forward_transform_only_as_an_x_pass():
    """Real fields go forward through rfft2, or through rfft along y and the
    complex fft along x, the same two passes that rfft2 runs internally, with
    the x pass pruned to the first columns.  The one complex
    inverse entry point is the x pass of the column-pruned real inverse."""
    source = (Path(dgzk.__file__).parent / "spectral.py").read_text(encoding="utf-8")
    called = set(re.findall(r"\bnp\.fft\.(\w+)", source))
    assert called == {"fft", "ifft", "irfft", "irfft2", "rfft", "rfft2"}


even_sizes = st.integers(4, 32).map(lambda k: 2 * k)


@settings(max_examples=60, deadline=None)
@given(nx=even_sizes, ny=even_sizes, seed=st.integers(0, 2**32 - 1))
def test_half_spectrum_helpers_agree_with_the_full_transforms(nx, ny, seed):
    """The real transforms and the half/full layout maps reproduce the
    complex transforms of real samples, and _half_sq weighs the half
    spectrum to the full sum of |c|^2 (column ny/2 counted once)."""
    v = np.random.default_rng(seed).standard_normal((nx, ny))
    c = np.fft.fft2(v, norm="forward")
    h = np.fft.rfft2(v, norm="forward")
    assert np.max(np.abs(_full_spectrum(h, ny) - c)) <= 1e-14 * np.max(np.abs(c))
    vals = _real_values(_half(c), ny)
    assert np.max(np.abs(vals - np.fft.ifft2(c, norm="forward").real)) <= 1e-14 * np.max(np.abs(v))
    assert np.array_equal(_half(_full_spectrum(h, ny)), h)
    assert np.isclose(np.sum(_half_sq(h, ny)), np.sum(np.abs(c) ** 2), rtol=1e-13, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(nx=even_sizes, ny=even_sizes, seed=st.integers(0, 2**32 - 1))
def test_public_transforms_on_rectangular_grids(nx, ny, seed):
    """forward_transform is numpy's fft2 of real samples on any even grid,
    its coefficients are conjugate symmetric and inverse_transform undoes it."""
    g = Grid(nx, ny)
    v = np.random.default_rng(seed).standard_normal(g.shape)
    f = forward_transform(g, v)
    want = np.fft.fft2(v, norm="forward")
    assert np.max(np.abs(f.coeffs - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.max(np.abs(inverse_transform(f) - v)) <= 1e-13
    assert hermitian_defect(f) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(nx=even_sizes, ny=even_sizes, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_column_pruned_real_values_equal_the_full_real_transform(nx, ny, seed, data):
    """The x pass over the column range from the first to the last nonzero
    column (see _nonzero_columns) gives the values of irfft2 (see
    assert_irfft2_values), also with zero columns inside the range, and
    when the evaluator is called again for a second spectrum on the same
    columns (as strichartz_norm calls it over its time samples)."""
    h = ny // 2 + 1
    start = data.draw(st.integers(0, h - 1), label="start")
    stop = data.draw(st.integers(start + 1, h), label="stop")
    inner = [c for c in sorted(data.draw(st.sets(st.integers(start, stop - 1)),
                                         label="zero columns")) if start < c < stop - 1]
    rng = np.random.default_rng(seed)
    # half spectra of real samples fill column 0 and the x-Nyquist row
    values = _ColumnValues(nx, ny, slice(start, stop))
    planes = []
    for _ in range(2):
        half = np.fft.rfft2(rng.standard_normal((nx, ny)), norm="forward")
        half[:, :start] = half[:, stop:] = half[:, inner] = 0.0
        cols = _nonzero_columns(half)
        assert (cols.start, cols.stop) == (start, stop)
        planes.append(values(half[:, cols]))
        assert_irfft2_values(planes[-1], _real_values(half, ny), stop - start)
    assert planes[0] is planes[1]  # its own plane, which the next call overwrites


@pytest.mark.parametrize("y_pass", ["product", "irfft"])
@settings(max_examples=40, deadline=None)
@given(nx=even_sizes, ny=st.integers(32, 80).map(lambda k: 2 * k),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_the_y_pass_is_chosen_by_the_number_of_data_columns(y_pass, nx, ny, seed, data):
    """Up to _PRODUCT_COLUMNS data columns the y pass is one cos/sin product
    and no irfft, past them one irfft and no product; either way the values
    are those of irfft2, on column ranges with or without column 0 and the
    Nyquist column ny/2, with or without zero columns inside, on
    rectangular grids, and with the evaluator called again for a second
    spectrum."""
    h = ny // 2 + 1
    lo, hi = (1, _PRODUCT_COLUMNS) if y_pass == "product" else (_PRODUCT_COLUMNS + 1, h)
    ncols = data.draw(st.integers(lo, hi), label="ncols")
    rng = np.random.default_rng(seed)
    start = data.draw(st.sampled_from([0, h - ncols]) | st.integers(0, h - ncols), label="start")
    cols = slice(start, start + ncols)
    inner = rng.permutation(np.arange(start + 1, start + ncols - 1))
    inner = inner[:data.draw(st.integers(0, inner.size), label="zero columns")]
    values = _ColumnValues(nx, ny, cols)
    planes = []
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_fft_calls(mp)
        products = _record_products(mp)
        for _ in range(2):
            half = np.fft.rfft2(rng.standard_normal((nx, ny)), norm="forward")
            half[:, :cols.start] = half[:, cols.stop:] = half[:, inner] = 0.0
            planes.append(values(half[:, cols]))
            assert_irfft2_values(planes[-1], np.fft.irfft2(half, s=(nx, ny), norm="forward"),
                                 ncols)
    assert planes[0] is planes[1]
    passes = [c for c in calls if c[0] in ("ifft", "irfft")]  # the oracle takes rfft2, irfft2
    if y_pass == "product":
        assert passes == [("ifft", (nx, ncols))] * 2 and products == [(ncols, ny)] * 2
    else:
        assert passes == [("ifft", (nx, ncols)), ("irfft", (nx, ny))] * 2 and products == []


@settings(max_examples=80, deadline=None)
@given(nx=even_sizes, ny=st.integers(4, 80).map(lambda k: 2 * k),
       seed=st.integers(0, 2**32 - 1), data=st.data())
@example(nx=12, ny=40, seed=0, data=None)   # columns 3 .. 20 = ny/2 on a rectangular grid
def test_the_sup_from_half_the_y_products_is_the_sup_of_the_values(nx, ny, seed, data):
    """Up to _PRODUCT_COLUMNS data columns sup of a one-sample stack takes
    max(|P| + |Q|) over y_0 .. y_ny/2 and is within 1e-14 of max|values|
    of _sup(values(data)), also on ranges that hold column ny/2, whose y
    products carry sin(n pi) ~ 1e-16 at y = pi; past them it is that _sup,
    bit for bit; either way also when called again for a second spectrum,
    on ranges that start at column 0 or after it, on square and
    rectangular grids."""
    h = ny // 2 + 1
    if data is None:
        ncols, start = 18, h - 18
    else:
        ncols = data.draw(st.integers(1, h), label="ncols")
        start = data.draw(st.sampled_from([0, h - ncols]) | st.integers(0, h - ncols),
                          label="start")
    cols = slice(start, start + ncols)
    rng = np.random.default_rng(seed)
    values = _ColumnValues(nx, ny, cols)
    for _ in range(2):
        half = np.fft.rfft2(rng.standard_normal((nx, ny)), norm="forward")
        want = spectral._sup(values(half[:, cols]))
        (got,) = values.sup(half[None, :, cols])
        if ncols > _PRODUCT_COLUMNS:
            assert got == want
        else:
            assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("nx, ny, cols", [(64, 64, slice(4, 8)), (48, 80, slice(3, 21)),
                                           (32, 96, slice(0, 40)), (40, 24, slice(5, 13))])
def test_a_stack_of_samples_has_the_sups_of_each_sample_alone(nx, ny, cols):
    """sup of a stack of B samples equals, bit for bit, the sups of the
    samples one at a time, for B in 1, 3 and 16 over 70 samples (a partial
    last stack for B = 3 and 16), on square and rectangular grids, through
    the cos/sin product (4, 18 and 8 columns, the last up to ny/2) and
    through irfft (40 columns); the stacks' values have the bits of each
    plane alone."""
    rng = np.random.default_rng(nx + ny)
    h = ny // 2 + 1
    halves = rng.standard_normal((70, nx, h)) + 1j * rng.standard_normal((70, nx, h))
    data = halves[:, :, cols]
    alone = _ColumnValues(nx, ny, cols)
    want = np.array([alone.sup(sample[None])[0] for sample in data])
    planes = np.array([alone(sample).copy() for sample in data[:5]])
    for b in (1, 3, 16):
        values = _ColumnValues(nx, ny, cols)
        got = np.concatenate([values.sup(data[i:i + b]) for i in range(0, 70, b)])
        assert np.array_equal(got, want)
        assert np.array_equal(values(data[:5]), planes)


@pytest.mark.parametrize("nx, ny, cols", [(64, 64, slice(0, 22)), (48, 40, slice(3, 14)),
                                           (128, 128, slice(0, 43)), (160, 96, slice(2, 40))])
def test_a_plane_taken_in_place_has_the_bits_of_its_data_columns(nx, ny, cols):
    """of_plane on a half plane zero off the data columns gives the bits of
    a call on those columns, through the cos/sin product (22 and 11
    columns) and through irfft (43 columns, and 38 past column 2), in the
    out array it is given; it overwrites the data columns only, with their
    x pass."""
    rng = np.random.default_rng(nx + ny)
    values = _ColumnValues(nx, ny, cols)
    plane = np.zeros((nx, ny // 2 + 1), dtype=np.complex128)
    ncols = cols.stop - cols.start
    plane[:, cols] = rng.standard_normal((nx, ncols)) + 1j * rng.standard_normal((nx, ncols))
    want, x = values(plane[:, cols]).copy(), np.fft.ifft(plane[:, cols], axis=0, norm="forward")
    out = np.empty((nx, ny))
    assert values.of_plane(plane, out) is out
    assert np.array_equal(out, want)
    assert np.array_equal(plane[:, cols], x)
    assert not np.any(np.delete(plane, np.arange(ny // 2 + 1)[cols], axis=1))


@pytest.mark.parametrize("nx, ny, cols, rows", [
    (32, 64, slice(0, 8), 2),     # product, strips that divide the rows
    (48, 40, slice(0, 12), 10),   # product, a short last strip
    (32, 96, slice(3, 43), 6),    # irfft on columns after 0, a short last strip
    (24, 80, slice(0, 41), 24),   # irfft, one strip of every row
])
def test_strips_of_an_even_row_count_have_the_bits_of_one_y_pass(nx, ny, cols, rows):
    """strips(x, rows) over the x-pass output of the data columns gives, strip
    after strip, the rows of values(data) bit for bit, through the cos/sin
    product and through irfft, also when the strips are taken again."""
    rng = np.random.default_rng(nx + ny + rows)
    ncols = cols.stop - cols.start
    values = _ColumnValues(nx, ny, cols)
    for _ in range(2):
        data = rng.standard_normal((nx, ncols)) + 1j * rng.standard_normal((nx, ncols))
        want = values(data).copy()
        x = np.fft.ifft(data, axis=0, norm="forward")
        got = [strip.copy() for strip in values.strips(x, rows)]
        assert [len(s) for s in got] == [min(rows, nx - i) for i in range(0, nx, rows)]
        assert np.array_equal(np.concatenate(got), want)


@settings(max_examples=60, deadline=None)
@given(nx=even_sizes, ny=even_sizes, seed=st.integers(0, 2**32 - 1))
@example(nx=16, ny=96, seed=0)  # kc = 33: the irfft y pass
def test_block_pruned_transforms_equal_the_full_real_transforms(nx, ny, seed):
    """On data carried by the Galerkin block, the quadratic term's values,
    in its own values array, are those of irfft2 (see
    assert_irfft2_values), and its output has the bits of -0.5 i k_x times
    the block of rfft2(u^2), also when it is called again (as a stepper
    calls it): both ways run in its one half plane, never in the column
    evaluator's buffers.  _band_coeffs has the bits of rfft2's first
    columns, in the plane it is given; the block -> full map keeps the
    block and zeros the rest."""
    g = Grid(nx, ny)
    K, kc = _block_dims(g)
    rng = np.random.default_rng(seed)
    quadratic = _QuadraticTerm(g)
    deriv_x = -0.5j * _block(g.kx2d, K, 1)
    out = np.empty((2 * K + 1, kc), dtype=np.complex128)
    plane = np.empty((nx, ny // 2 + 1), dtype=np.complex128)
    for _ in range(2):
        half = np.fft.rfft2(rng.standard_normal((nx, ny)), norm="forward")
        # the block rows of the first kc columns: x-Nyquist row and rows past K zeroed
        half[K + 1:nx - K] = 0.0
        half[:, kc:] = 0.0
        block = _block(half, K, kc)
        assert block.shape == (2 * K + 1, kc)
        got = quadratic.values(block)
        assert got is quadratic.u  # its own values array
        assert_irfft2_values(got, np.fft.irfft2(half, s=(nx, ny), norm="forward"), kc)
        want = deriv_x * _block(np.fft.rfft2(got * got, norm="forward"), K, kc)
        assert quadratic.of_values(got, out) is out
        assert np.array_equal(out, want)
        v = rng.standard_normal((nx, ny))
        width = int(rng.integers(1, ny // 2 + 2))
        band = _band_coeffs(v, width, out=plane)
        assert band.shape == (nx, width) and np.shares_memory(band, plane)
        assert np.array_equal(band, np.fft.rfft2(v, norm="forward")[:, :width])
        assert np.array_equal(_band_coeffs(v, width), band)
        full = _full_from_block(block, g)
        assert np.array_equal(_half(full), half)
        assert np.array_equal(full, _full_spectrum(half, ny))
    assert quadratic.column_values.arrays == {}
