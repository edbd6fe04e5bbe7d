"""Space-time decay of the free group on frequency shells."""
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import dgzk
from dgzk import _work
from dgzk.estimates import strichartz
from dgzk.estimates._shellscan import parallel_map
from dgzk.errors import InsufficientDataError, SymmetryViolationError
from dgzk.grid import Grid
from dgzk.presets import random_band_field
from dgzk.propagator import DispersionSymbol, _symbol_tables, propagate
from dgzk.spectral import (_PRODUCT_COLUMNS, SpectralField, _half, field_from_modes,
                           hermitian_defect, l2_norm, shell_indices)
from dgzk.estimates.strichartz import _shell_grid, shell_field, strichartz_norm, strichartz_scan

from fieldgen import _FFT_ENTRY_POINTS

SYM = DispersionSymbol(alpha=1, beta=0.5, sign=1, mu=0.0)


def test_non_real_field_is_rejected():
    # the time loop runs on the half spectrum, which holds real fields only
    phi = field_from_modes(Grid(16, 16), {(2, 2): 0.7})
    with pytest.raises(SymmetryViolationError, match="real function"):
        strichartz_norm(phi, SYM, 2.0 ** -4)


def test_norm_matches_direct_propagation(rng):
    # recompute through the public group at each time sample
    phi = shell_field(Grid(32, 32), 2, 2, rng)
    t_max = 2.0 ** -4
    times = np.linspace(0.0, t_max, 64)
    sups = np.array([np.abs(np.fft.ifft2(propagate(phi, t, SYM).coeffs, norm="forward")).max()
                     for t in times])
    manual = float(np.sqrt(np.trapezoid(sups ** 2, times)))
    assert strichartz_norm(phi, SYM, t_max) == pytest.approx(manual, rel=1e-12)


def _unpruned_norm(phi, symbol, t_max, n_times=64):
    """strichartz_norm with a full irfft2 and a phase step on every
    half-spectrum entry at each time sample."""
    nx, ny = phi.grid.shape
    omega, _ = _symbol_tables(phi.grid, symbol)
    times = np.linspace(0.0, t_max, n_times)
    cur = phi.coeffs[:, : ny // 2 + 1]
    step = np.exp(1j * omega[:, : ny // 2 + 1] * (times[1] - times[0]))
    sups = np.empty(n_times)
    for i in range(n_times):
        sups[i] = np.abs(np.fft.irfft2(cur, s=(nx, ny), norm="forward")).max()
        cur = cur * step
    return float(np.sqrt(np.trapezoid(sups ** 2, times)))


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("j, k", [(1, 0), (3, 0), (1, 1), (2, 3), (4, 2), (1, 6), (1, 7)])
def test_pruned_norm_equals_the_unpruned_loop(alpha, j, k):
    """Past _PRODUCT_COLUMNS support columns (shell k = 7 fills 64) the y
    pass is irfft and the norm has the bits of the unpruned loop; up to them
    (k = 6 fills 32) it is a cos/sin product, within 1e-14 relative."""
    sym = DispersionSymbol(alpha=alpha, beta=1.0, sign=1, mu=0.0)
    t_max = 2.0 ** (-(j + k))
    for trial in range(3):
        phi = shell_field(_shell_grid(j, k, 4), j, k, np.random.default_rng([5, j, k, trial]))
        got, want = strichartz_norm(phi, sym, t_max), _unpruned_norm(phi, sym, t_max)
        if _support_columns(phi) > _PRODUCT_COLUMNS:
            assert got == want
        else:
            assert abs(got - want) <= 1e-14 * want


# entry points whose transform runs along x over every column of its input:
# the 1-D complex ones (the y pass is irfft) and every n-dimensional one
_X_PASS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn",
           "irfftn")


def _support_columns(phi):
    """The number of nonzero half-spectrum columns of phi."""
    return int(np.count_nonzero(np.any(_half(phi.coeffs) != 0, axis=0)))


def test_x_pass_transforms_only_the_support_columns(monkeypatch):
    j, k, n_times = 5, 3, 64
    grid = _shell_grid(j, k, 4)
    phi = shell_field(grid, j, k, np.random.default_rng(9))
    support = _support_columns(phi)
    assert 0 < support < grid.ny // 2 + 1
    points = {}
    for name in _FFT_ENTRY_POINTS:
        def counted(a, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            points[_name] = points.get(_name, 0) + np.asarray(a).size
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    strichartz_norm(phi, SYM, 2.0 ** (-(j + k)), n_times)
    x_points = sum(points.get(name, 0) for name in _X_PASS)
    assert 0 < x_points <= support * grid.nx * n_times


def test_shell_field_is_unit_real_and_localized(rng):
    g = Grid(32, 32)
    phi = shell_field(g, 3, 2, rng)
    assert l2_norm(phi) == pytest.approx(1.0, abs=1e-12)
    assert hermitian_defect(phi) <= 1e-13
    sx = shell_indices(g.kx)
    sy = shell_indices(g.ky)
    off_shell = ~((sx[:, None] == 3) & (sy[None, :] == 2))
    assert np.all(phi.coeffs[off_shell] == 0.0)
    assert np.any(phi.coeffs != 0.0)


def _full_grid_draw(grid, mask, rng):
    """The draw built over the whole grid: both Gaussian arrays, the mask,
    the conjugate reflection conj(z[-m, -n]) of the whole array."""
    z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    z = np.where(mask, z, 0.0)
    return 0.5 * (z + np.conj(np.roll(np.flip(z), 1, axis=(0, 1))))


@pytest.mark.parametrize("j, k", [(3, 3), (5, 4), (6, 5), (3, 0), (1, 0), (1, 1), (2, 6)])
def test_shell_field_has_the_bits_of_the_full_grid_draw(j, k):
    """shell_field symmetrizes on the shell block only; its coefficients
    are those of the draw built over the whole grid, bit for bit."""
    grid = _shell_grid(j, k, 4)
    mask = (shell_indices(grid.kx)[:, None] == j) & (shell_indices(grid.ky)[None, :] == k)
    for trial in range(3):
        want = _full_grid_draw(grid, mask, np.random.default_rng([5, j, k, trial]))
        want = want / l2_norm(SpectralField(grid, want))
        got = shell_field(grid, j, k, np.random.default_rng([5, j, k, trial]))
        assert np.array_equal(got.coeffs, want)


@pytest.mark.parametrize("nx, ny, band", [(8, 8, 4), (16, 32, 3), (32, 16, 12), (64, 64, 8)])
@pytest.mark.parametrize("mean_zero_x", [True, False])
def test_random_band_field_has_the_bits_of_the_full_grid_draw(nx, ny, band, mean_zero_x):
    grid = Grid(nx, ny)
    mask = (np.abs(grid.kx2d) <= band) & (np.abs(grid.ky2d) <= band)
    if mean_zero_x:
        mask &= grid.kx2d != 0
    want = _full_grid_draw(grid, mask, np.random.default_rng(band))
    got = random_band_field(grid, band, np.random.default_rng(band), mean_zero_x)
    assert np.array_equal(got.coeffs, want)


def test_shell_field_validation(rng):
    with pytest.raises(ValueError, match="x-shell index"):
        shell_field(Grid(32, 32), 0, 2, rng)
    with pytest.raises(ValueError, match="y-shell index"):
        shell_field(Grid(32, 32), 2, -1, rng)
    with pytest.raises(ValueError, match="does not contain"):
        shell_field(Grid(8, 8), 5, 1, rng)


def test_y_mean_band_is_allowed(rng):
    # k = 0 is the n = 0 band; decay in j still makes sense there
    phi = shell_field(Grid(32, 32), 2, 0, rng)
    assert l2_norm(phi) == pytest.approx(1.0, abs=1e-12)
    v = strichartz_norm(phi, SYM, 2.0 ** -2)
    assert v > 0.0


def test_norm_validation(rng):
    phi = shell_field(Grid(32, 32), 2, 2, rng)
    with pytest.raises(ValueError, match="time samples"):
        strichartz_norm(phi, SYM, 0.25, n_times=32)
    with pytest.raises(ValueError, match="t_max"):
        strichartz_norm(phi, SYM, 0.0)
    damped = DispersionSymbol(alpha=1, beta=0.5, sign=1, mu=1e-3)
    with pytest.raises(ValueError, match="undamped"):
        strichartz_norm(phi, damped, 0.25)


def test_scan_small_run_decays_in_both_shells():
    rep = strichartz_scan(SYM, range(3, 6), range(3, 6), trials=5, seed=0)
    assert len(rep.cells) == 9
    assert rep.slope_j <= -0.2
    assert rep.slope_k <= -0.15
    assert 0.0 < rep.max_ratio <= 10.0


def test_scan_is_deterministic_and_trial_monotone():
    a = strichartz_scan(SYM, range(3, 5), range(3, 5), trials=2, seed=0)
    b = strichartz_scan(SYM, range(3, 5), range(3, 5), trials=2, seed=0)
    assert a.cells == b.cells
    # trials are keyed individually, so more trials can only raise a cell max
    c = strichartz_scan(SYM, range(3, 5), range(3, 5), trials=4, seed=0)
    va = {(j, k): v for j, k, v, _, _ in a.cells}
    vc = {(j, k): v for j, k, v, _, _ in c.cells}
    assert all(vc[p] >= va[p] for p in va)


def test_scan_cells_do_not_depend_on_the_blas_thread_count():
    """The cos/sin products of the y pass run through BLAS: a scan whose
    cells take them (4 to 16 support columns, products of up to 256 x 32
    by 32 x 256) gives the same cells under one and two BLAS threads."""
    script = ("from dgzk.propagator import DispersionSymbol\n"
              "from dgzk.estimates.strichartz import strichartz_scan\n"
              "sym = DispersionSymbol(alpha=1, beta=0.5, sign=1, mu=0.0)\n"
              "print(repr(strichartz_scan(sym, range(3, 6), range(3, 6), trials=2, seed=4).cells))\n")
    src = str(Path(dgzk.__file__).resolve().parents[1])
    cells = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        cells.append(run.stdout)
    assert cells[0] == cells[1] and cells[0].startswith("[(3, 3, ")


def test_parallel_map_starts_the_costliest_items_first_and_keeps_their_order():
    started = []
    gate = threading.Barrier(2)

    def fn(x):
        started.append(x)
        if len(started) <= 2:
            gate.wait(timeout=10)  # both workers hold their first item
        return 10 * x

    items = [1, 2, 3, 4, 5]
    assert parallel_map(fn, items, workers=2, costs=[5, 1, 9, 1, 7]) == [10, 20, 30, 40, 50]
    assert set(started[:2]) == {3, 5} and sorted(started) == items


def test_scan_refuses_work_above_the_ceiling_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the work ceiling")

    monkeypatch.setattr(strichartz.np.random, "default_rng", no_draws)
    # 1e8 trials of 64 samples on the cells' 64 x 64 .. 128 x 128 grids
    with pytest.raises(ValueError, match=r"trials \* sum of nx \* ny \* n_times"):
        strichartz_scan(SYM, [3, 4], [3, 4], trials=10**8)
    # the acceptance preset alpha1-full (criterion 06) stays under the ceiling
    work = 20 * 64 * sum(_shell_grid(j, k, 4).nx * _shell_grid(j, k, 4).ny
                         for j in range(3, 8) for k in range(3, 8))
    assert work == 1984 ** 2 * 64 * 20 <= _work.MAX_WORK["strichartz"] / 10


def test_scan_checks_eps_and_stops_reading_a_range_past_the_guard():
    # 2.0 ** (s_j j + s_k k) overflowed at eps = 1e300 and gave a zero bound
    # at -1e300; a range of 10^300 shells was read out before the guard
    for eps in (1e300, -1e300, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"eps must lie in \[-1, 1\]"):
            strichartz_scan(SYM, [3, 4], [1, 2], trials=1, eps=eps)
    with pytest.raises(ValueError, match="shell index 21 is past the feasibility guard"):
        strichartz_scan(SYM, range(1, 10**300), [1], trials=1)
    with pytest.raises(ValueError, match=f"shell index {-10**300} is past"):
        strichartz_scan(SYM, range(-10**300, 3), [1], trials=1)


def test_scan_single_k_fits_j_only():
    rep = strichartz_scan(SYM, range(3, 6), [3], trials=2, seed=0)
    assert math.isnan(rep.slope_k)
    assert rep.slope_j < 0.0


def test_scan_validation():
    with pytest.raises(ValueError, match="m = 0 band"):
        strichartz_scan(SYM, [0, 1], [1, 2], trials=1)
    with pytest.raises(InsufficientDataError, match="two distinct j"):
        strichartz_scan(SYM, [3], [1, 2], trials=1)
    with pytest.raises(InsufficientDataError, match="trials"):
        strichartz_scan(SYM, [3, 4], [1, 2], trials=0)
    with pytest.raises(ValueError, match="feasibility"):
        strichartz_scan(SYM, [10, 11], [10, 11], trials=1)
    damped = DispersionSymbol(alpha=1, beta=0.5, sign=1, mu=1e-3)
    with pytest.raises(ValueError, match="undamped"):
        strichartz_scan(damped, [3, 4], [1, 2], trials=1)
