"""Named analytic initial-data profiles.

Every preset returns a field that satisfies the zero-x-mean hypothesis the
evolution requires, so experiments are specifiable from a config file with
no binary inputs.
"""
from __future__ import annotations

import numpy as np

from .grid import Grid
from .spectral import (
    SpectralField,
    _conj_reflect,
    field_from_modes,
    forward_transform,
    project_mean_zero_x,
    zero_field,
)

__all__ = ["initial_data", "random_band_field", "PRESET_NAMES"]

PRESET_NAMES = ("zero", "single-mode", "cos-x", "gaussian-bell", "random-band")


def _gaussian_bell(grid: Grid, width: float) -> np.ndarray:
    """Periodized Gaussian centered at (pi, pi); three image charges suffice
    for width <= 1 at double precision."""
    x = grid.x[:, None]
    y = grid.y[None, :]
    vals = np.zeros(grid.shape)
    for px in (-1, 0, 1):
        for py in (-1, 0, 1):
            dx = x - np.pi + 2.0 * np.pi * px
            dy = y - np.pi + 2.0 * np.pi * py
            vals += np.exp(-(dx ** 2 + dy ** 2) / (2.0 * width ** 2))
    return vals


def random_band_field(grid: Grid, band: int, rng, mean_zero_x: bool = True) -> SpectralField:
    """Random real-valued field with |m|, |n| <= band.

    Coefficients are iid complex Gaussians, Hermitian-symmetrized so the
    field is real.  With mean_zero_x the m = 0 column is dropped, which the
    evolution's hypothesis requires.
    """
    z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    keep = (np.abs(grid.kx2d) <= band) & (np.abs(grid.ky2d) <= band)
    if mean_zero_x:
        keep &= np.abs(grid.kx2d) >= 1
    z = np.where(keep, z, 0.0)
    z = 0.5 * (z + _conj_reflect(z))
    return SpectralField(grid=grid, coeffs=z)


def _scale_to_peak(field: SpectralField, amplitude: float) -> SpectralField:
    """Rescale so the grid maximum of |u| is amplitude; zero stays zero."""
    grid = field.grid
    peak = np.max(np.abs(np.fft.ifft2(field.coeffs).real)) * grid.nx * grid.ny
    if peak == 0.0:
        return field
    return SpectralField(grid=grid, coeffs=field.coeffs * (amplitude / peak))


def initial_data(grid: Grid, name: str, amplitude: float = 1.0, seed: int = 0,
                 m: int = 1, n: int = 1, width: float = 0.5,
                 band: int = None) -> SpectralField:
    """Build a preset profile on the grid.

    zero          identically zero
    single-mode   amplitude * cos(m x + n y), m >= 1
    cos-x         amplitude * cos(x)
    gaussian-bell periodized Gaussian bump of the given width, x-mean removed,
                  scaled so the grid maximum is the requested amplitude
    random-band   seeded random field band-limited to |wavenumber| <= band
                  (default nx/8), scaled likewise
    """
    if name == "zero":
        return zero_field(grid)
    if name == "single-mode":
        if m < 1:
            raise ValueError(f"single-mode preset needs m >= 1 to be x-mean-free, got m={m}")
        half = 0.5 * amplitude
        return field_from_modes(grid, {(m, n): half, (-m, -n): half})
    if name == "cos-x":
        return field_from_modes(grid, {(1, 0): 0.5 * amplitude, (-1, 0): 0.5 * amplitude})
    if name == "gaussian-bell":
        field = project_mean_zero_x(forward_transform(grid, _gaussian_bell(grid, width)))
        return _scale_to_peak(field, amplitude)
    if name == "random-band":
        if band is None:
            band = max(1, grid.nx // 8)
        field = random_band_field(grid, band, np.random.default_rng(seed))
        return _scale_to_peak(field, amplitude)
    raise ValueError(f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}")
