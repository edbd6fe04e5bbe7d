"""Bi-periodic grid on [0, 2*pi)^2 and integer wavenumber bookkeeping.

Wavenumbers on an axis with n points run over {-n/2 + 1, ..., n/2}; the
Nyquist label is assigned to +n/2.  Storage order follows the FFT index
layout, and the maps below convert between array index and wavenumber.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._work import check_work

__all__ = ["Grid"]


def _wavenumbers(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.where(idx <= n // 2, idx, idx - n)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform nx-by-ny grid on the bi-periodic square of side 2*pi; refused
    (ValueError) if its 2x plane is above the "grid_bytes" ceiling of _work.
    Its arrays are read-only: every field on the grid shares them."""

    nx: int
    ny: int

    def __post_init__(self):
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if not isinstance(n, (int, np.integer)) or n < 8 or n % 2 != 0:
                raise ValueError(f"{name} must be an even integer >= 8, got {n!r}")
        check_work("grid_bytes", 32 * int(self.nx) * int(self.ny))  # Python ints do not wrap

    @cached_property
    def kx(self) -> np.ndarray:
        """x wavenumber for each index along axis 0."""
        return _read_only(_wavenumbers(self.nx))

    @cached_property
    def ky(self) -> np.ndarray:
        """y wavenumber for each index along axis 1."""
        return _read_only(_wavenumbers(self.ny))

    @cached_property
    def kx2d(self) -> np.ndarray:
        return _read_only(self.kx[:, None].astype(float))

    @cached_property
    def ky2d(self) -> np.ndarray:
        return _read_only(self.ky[None, :].astype(float))

    @cached_property
    def x(self) -> np.ndarray:
        return _read_only(np.arange(self.nx) * (2.0 * np.pi / self.nx))

    @cached_property
    def y(self) -> np.ndarray:
        return _read_only(np.arange(self.ny) * (2.0 * np.pi / self.ny))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def cell_area(self) -> float:
        return (2.0 * np.pi / self.nx) * (2.0 * np.pi / self.ny)

    def size_along(self, axis: str) -> int:
        if axis == "x":
            return self.nx
        if axis == "y":
            return self.ny
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")

    def index_of(self, wavenumber: int, axis: str) -> int:
        """Array index holding the given wavenumber along an axis."""
        n = self.size_along(axis)
        lo, hi = -n // 2 + 1, n // 2
        if not lo <= wavenumber <= hi:
            raise ValueError(f"wavenumber {wavenumber} outside [{lo}, {hi}] for axis {axis!r}")
        return wavenumber % n

