"""Shared field constructors, and a recorder of numpy.fft calls, for the test suite."""
import numpy as np

from dgzk import Grid, forward_transform
from dgzk.presets import random_band_field


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
