"""Shared field constructors, recorders of numpy.fft calls and of cos/sin
products, and the check of pruned real values, for the test suite."""
import numpy as np

from dgzk import Grid, forward_transform, spectral
from dgzk.presets import random_band_field
from dgzk.spectral import _PRODUCT_COLUMNS


def real_field(grid: Grid, rng, scale: float = 1.0):
    """Random real-sample field; Hermitian symmetry is exact by construction."""
    return forward_transform(grid, scale * rng.standard_normal(grid.shape))


def band_field(grid: Grid, band: int, rng, mean_zero_x: bool = True):
    return random_band_field(grid, band, rng, mean_zero_x=mean_zero_x)


def cos_x(grid: Grid, amplitude: float = 1.0):
    samples = amplitude * np.cos(grid.x)[:, None] * np.ones(grid.ny)[None, :]
    return forward_transform(grid, samples)


_FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                     "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _record_fft_calls(monkeypatch):
    """(entry point, output shape) of every numpy.fft call from here on."""
    calls = []
    for name in _FFT_ENTRY_POINTS:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            out = _fn(*args, **kwargs)
            calls.append((_name, out.shape))
            return out
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _record_products(monkeypatch):
    """(data columns, ny) of every y pass that a spectral._ColumnValues takes
    as a cos/sin product from here on."""
    products = []

    def counted(self, data, _call=spectral._ColumnValues.__call__):
        if self.table is not None:
            products.append((data.shape[1], self.shape[1]))
        return _call(self, data)
    monkeypatch.setattr(spectral._ColumnValues, "__call__", counted)
    return products


def assert_irfft2_values(got, want, ncols):
    """got, real values from ncols data columns, against their irfft2 want:
    the same bits past _PRODUCT_COLUMNS (an irfft y pass), within 1e-14 of
    max|want| up to them (a cos/sin product)."""
    if ncols > _PRODUCT_COLUMNS:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
