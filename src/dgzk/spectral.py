"""Spectral representation of fields on the bi-periodic square.

Transform convention ("angular-2pi-inverse"): the coefficient of the mode
e^{i(mx + ny)} is

    f_hat(m, n) = (2*pi)^{-2} * integral of f(x, y) e^{-i(mx + ny)} dx dy,

so the transform of a constant c has f_hat(0, 0) = c, and the L2 norm on the
square satisfies ||f||^2 = (2*pi)^2 * sum |f_hat|^2.  Discretely this is
fft2(samples) / (nx * ny).

Sobolev norms below follow the sequence-space convention without the surface
factor: sobolev_norm(f, s) = (sum (1 + m^2 + n^2)^s |f_hat|^2)^{1/2}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SymmetryViolationError
from .grid import Grid, _wavenumbers

__all__ = [
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "grid_values",
    "transform_values",
    "hermitian_defect",
    "fractional_derivative",
    "derivative",
    "bessel_potential",
    "dyadic_project",
    "shell_count",
    "shell_indices",
    "sobolev_norm",
    "sobolev_norm_dyadic",
    "project_mean_zero_x",
    "mean_zero_x_defect",
    "dealias",
    "l2_norm",
    "zero_field",
    "field_from_modes",
    "embed_in_grid",
    "truncate_to_grid",
    "resample_values",
]

HERMITIAN_TOL = 1e-12


@dataclass
class SpectralField:
    """Coefficient array indexed in FFT layout over a fixed grid."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def field_from_modes(grid: Grid, modes: dict, hermitian: bool = False) -> SpectralField:
    """Build a field from {(m, n): coefficient}.

    With hermitian=True the conjugate coefficient is also written at
    (-m, -n); do not list both members of a pair in that case.
    """
    f = zero_field(grid)
    for (m, n), c in modes.items():
        f.coeffs[grid.index_of(m, "x"), grid.index_of(n, "y")] = c
        if hermitian and (m, n) != (0, 0):
            f.coeffs[grid.index_of(-m, "x"), grid.index_of(-n, "y")] = np.conj(c)
    return f


def forward_transform(grid: Grid, samples: np.ndarray) -> SpectralField:
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise ValueError(f"sample shape {samples.shape} does not match grid {grid.shape}")
    if np.iscomplexobj(samples):
        raise ValueError("forward_transform expects real samples")
    coeffs = np.fft.fft2(samples) / (grid.nx * grid.ny)
    return SpectralField(grid, coeffs)


def grid_values(field: SpectralField) -> np.ndarray:
    """Complex point values; no symmetry requirement on the coefficients."""
    n = field.grid.nx * field.grid.ny
    return np.fft.ifft2(field.coeffs * n)


def transform_values(grid: Grid, values: np.ndarray) -> SpectralField:
    """Forward transform of complex point values (no realness requirement)."""
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"sample shape {values.shape} does not match grid {grid.shape}")
    return SpectralField(grid, np.fft.fft2(values) / (grid.nx * grid.ny))


def _conj_reflect(c: np.ndarray) -> np.ndarray:
    """conj(c[-m, -n]) for a coefficient array in FFT layout."""
    nx, ny = c.shape
    return np.conj(c[np.ix_((-np.arange(nx)) % nx, (-np.arange(ny)) % ny)])


def hermitian_defect(field: SpectralField) -> float:
    """Relative departure from f_hat(-m, -n) = conj(f_hat(m, n))."""
    c = field.coeffs
    defect = np.max(np.abs(c - _conj_reflect(c)))
    scale = np.max(np.abs(c))
    return 0.0 if scale == 0.0 else float(defect / scale)


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Real point values; rejects coefficients of a non-real field."""
    defect = hermitian_defect(field)
    if defect > HERMITIAN_TOL:
        raise SymmetryViolationError(
            f"conjugate-symmetry defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e}; "
            "field does not represent a real function"
        )
    return grid_values(field).real


def l2_norm(field: SpectralField) -> float:
    """L2 norm on the square, ||f|| = 2*pi * (sum |f_hat|^2)^{1/2}."""
    return float(2.0 * np.pi * np.sqrt(np.sum(np.abs(field.coeffs) ** 2)))


def fractional_derivative(field: SpectralField, axis: str, a: float) -> SpectralField:
    """|wavenumber|^a multiplier along one axis; a = 0 is the identity."""
    if a < 0:
        raise ValueError(f"fractional order must be >= 0, got {a}")
    if a == 0:
        return field.copy()
    g = field.grid
    if axis == "x":
        mult = np.abs(g.kx2d) ** a
    elif axis == "y":
        mult = np.abs(g.ky2d) ** a
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return SpectralField(g, field.coeffs * mult)


def derivative(field: SpectralField, axis: str) -> SpectralField:
    """Partial derivative along an axis.

    The unpaired Nyquist label +n/2 would break conjugate symmetry under the
    odd multiplier i*k, so that single mode is zeroed.
    """
    g = field.grid
    if axis == "x":
        k = g.kx2d.copy()
        k[g.nx // 2, :] = 0.0
    elif axis == "y":
        k = g.ky2d.copy()
        k[:, g.ny // 2] = 0.0
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return SpectralField(g, field.coeffs * (1j * k))


def bessel_potential(field: SpectralField, s: float, mode: str = "full") -> SpectralField:
    """(1 + |wavenumber|^2)^{s/2} multiplier: full Laplacian or one axis."""
    g = field.grid
    if mode == "full":
        base = 1.0 + g.kx2d**2 + g.ky2d**2
    elif mode == "x":
        base = 1.0 + g.kx2d**2 + 0.0 * g.ky2d
    elif mode == "y":
        base = 1.0 + g.ky2d**2 + 0.0 * g.kx2d
    else:
        raise ValueError(f"mode must be 'full', 'x' or 'y', got {mode!r}")
    return SpectralField(g, field.coeffs * base ** (s / 2.0))


def shell_indices(wavenumbers: np.ndarray) -> np.ndarray:
    """Dyadic shell index: 0 for |k| in [0,1), j >= 1 for |k| in [2^{j-1}, 2^j)."""
    return np.frexp(np.abs(np.asarray(wavenumbers, dtype=float)))[1]


def shell_count(grid: Grid, axis: str) -> int:
    """Number of shells needed to cover the axis (indices 0 .. count-1)."""
    return int(shell_indices(np.array([grid.size_along(axis) // 2]))[0]) + 1


def dyadic_project(field: SpectralField, axis: str, shell: int) -> SpectralField:
    if shell < 0 or int(shell) != shell:
        raise ValueError(f"shell index must be a nonnegative integer, got {shell!r}")
    g = field.grid
    k = g.kx2d if axis == "x" else g.ky2d if axis == "y" else None
    if k is None:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    mask = shell_indices(k) == shell
    return SpectralField(g, field.coeffs * mask)


def sobolev_norm(field: SpectralField, s: float) -> float:
    g = field.grid
    w = (1.0 + g.kx2d**2 + g.ky2d**2) ** s
    return float(np.sqrt(np.sum(w * np.abs(field.coeffs) ** 2)))


def sobolev_norm_dyadic(field: SpectralField, s: float) -> float:
    """Dyadic-shell form of the Sobolev norm (equivalent, not equal).

    Each mode is weighted 1 + 4^{s*jx}[jx>=1] + 4^{s*jy}[jy>=1] with jx, jy
    its shell indices.  For s <= 2 the ratio to sobolev_norm stays inside
    [1/8, 8].
    """
    g = field.grid
    shx = shell_indices(g.kx2d)
    shy = shell_indices(g.ky2d)
    w = 1.0 + (shx >= 1) * 4.0 ** (s * shx) + (shy >= 1) * 4.0 ** (s * shy)
    return float(np.sqrt(np.sum(w * np.abs(field.coeffs) ** 2)))


def project_mean_zero_x(field: SpectralField) -> SpectralField:
    out = field.copy()
    out.coeffs[0, :] = 0.0
    return out


def mean_zero_x_defect(field: SpectralField) -> float:
    """Relative L2 weight carried by the m = 0 column."""
    total = np.sqrt(np.sum(np.abs(field.coeffs) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sqrt(np.sum(np.abs(field.coeffs[0, :]) ** 2)) / total)


def dealias(field: SpectralField) -> SpectralField:
    """Two-thirds rule: zero coefficients with |m| > nx/3 or |n| > ny/3."""
    g = field.grid
    mask = (np.abs(g.kx2d) <= g.nx / 3.0) & (np.abs(g.ky2d) <= g.ny / 3.0)
    return SpectralField(g, field.coeffs * mask)


def _embed_axis_parts(n_small: int, n_big: int):
    """(source indices, destination indices, weight) triples for zero-padding.

    The Nyquist coefficient +n/2 is split evenly between the labels +n/2 and
    -n/2 of the larger grid so refined samples of a real field remain real.
    """
    if n_big == n_small:
        idx = np.arange(n_small)
        return [(idx, idx, 1.0)]
    k = _wavenumbers(n_small)
    regular = np.nonzero(k != n_small // 2)[0]
    parts = [(regular, k[regular] % n_big, 1.0)]
    nyq = np.array([n_small // 2])
    parts.append((nyq, np.array([(n_small // 2) % n_big]), 0.5))
    parts.append((nyq, np.array([(-(n_small // 2)) % n_big]), 0.5))
    return parts


def embed_in_grid(field: SpectralField, big: Grid) -> SpectralField:
    """Zero-pad onto a finer grid (same function, more resolvable modes)."""
    g = field.grid
    if big.nx < g.nx or big.ny < g.ny:
        raise ValueError("target grid must be at least as fine on both axes")
    out = np.zeros(big.shape, dtype=np.complex128)
    for sx, dx, wx in _embed_axis_parts(g.nx, big.nx):
        for sy, dy, wy in _embed_axis_parts(g.ny, big.ny):
            out[np.ix_(dx, dy)] += (wx * wy) * field.coeffs[np.ix_(sx, sy)]
    return SpectralField(big, out)


def truncate_to_grid(field: SpectralField, small: Grid) -> SpectralField:
    """Restrict to the wavenumbers of a coarser grid.

    The +n/2 and -n/2 labels of the fine grid fold onto the single Nyquist
    label of the coarse grid, so this is a left inverse of embed_in_grid.
    """
    g = field.grid
    if small.nx > g.nx or small.ny > g.ny:
        raise ValueError("target grid must be at least as coarse on both axes")
    out = np.zeros(small.shape, dtype=np.complex128)
    for dx, sx, _ in _embed_axis_parts(small.nx, g.nx):
        for dy, sy, _ in _embed_axis_parts(small.ny, g.ny):
            out[np.ix_(dx, dy)] += field.coeffs[np.ix_(sx, sy)]
    return SpectralField(small, out)


def resample_values(field: SpectralField, factor: int = 2) -> np.ndarray:
    """Complex point values on a factor-refined grid (trigonometric interpolation)."""
    if factor < 1 or int(factor) != factor:
        raise ValueError(f"refinement factor must be a positive integer, got {factor!r}")
    if factor == 1:
        return grid_values(field)
    g = field.grid
    big = Grid(g.nx * factor, g.ny * factor)
    return grid_values(embed_in_grid(field, big))
