"""Spectral representation of fields on the bi-periodic square.

The coefficient of the mode e^{i(mx + ny)} is f_hat(m, n) = (2*pi)^{-2} *
integral of f(x, y) e^{-i(mx + ny)} dx dy, so a constant c has
f_hat(0, 0) = c and ||f||^2 = (2*pi)^2 * sum |f_hat|^2: numpy's
fft2(samples, norm="forward").  Real fields, all the program makes, go
through the real transforms on the half spectrum (see _half), and every
function that returns point values rejects a non-real field.  This module
is the only one in the package that calls numpy.fft.  Sobolev norms drop
the surface factor: sobolev_norm(f, s) = (sum (1 + m^2 + n^2)^s |f_hat|^2)^{1/2}.
"""
from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SymmetryViolationError
from .grid import Grid

__all__ = ["SpectralField", "forward_transform", "inverse_transform", "hermitian_defect",
           "fractional_derivative", "derivative", "bessel_potential", "dyadic_project",
           "shell_indices", "sobolev_norm", "project_mean_zero_x", "mean_zero_x_defect",
           "dealias", "l2_norm", "zero_field", "field_from_modes", "embed_in_grid",
           "truncate_to_grid", "resample_values"]

HERMITIAN_TOL = 1e-12
# (2 pi)^2, the area of the square: ||f||^2 = FOUR_PI_SQ * sum |f_hat|^2
FOUR_PI_SQ = (2.0 * np.pi) ** 2


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


def field_from_modes(grid: Grid, modes: dict) -> SpectralField:
    """A field from {(m, n): coefficient}, only the listed modes written: a
    real field lists (m, n) and (-m, -n), with conjugate coefficients."""
    f = zero_field(grid)
    for (m, n), c in modes.items():
        f.coeffs[grid.index_of(m, "x"), grid.index_of(n, "y")] = c
    return f


def _half(c: np.ndarray) -> np.ndarray:
    """Columns n = 0 .. ny/2 of an array in FFT layout: the half spectrum
    that determines a real field, as the real transforms lay it out."""
    return c[:, : c.shape[1] // 2 + 1]


def _real_values(half: np.ndarray, ny: int) -> np.ndarray:
    """Real point values of a real field from its half spectrum (see _half)."""
    return np.fft.irfft2(half, s=(half.shape[0], ny), norm="forward")


# Up to this many data columns, _ColumnValues takes its y pass as one real
# product with a cos/sin table, past it as irfft: the product took 0.2-0.75x
# the irfft's time at 4-32 columns (64^2 to 1024^2), 0.9-1.8x at 43-86.
_PRODUCT_COLUMNS = 32
# cos/sin tables kept, least recently used dropped; one holds 2 ncols ny <= 64 ny doubles
_MAX_TABLES = 16


@functools.lru_cache(maxsize=_MAX_TABLES)
def _cos_sin_table(n: range, ny: int) -> np.ndarray:
    """Rows w cos(n_i y) and -w sin(n_i y), interleaved, so that (re, im) of c
    times them is w Re(c e^{i n_i y}): w = 2 counts column -n_i; columns 0 and
    ny/2 take w = 1 and drop their imaginary parts, as in irfft."""
    n = np.array(n, dtype=np.int64)
    angle = 2.0 * np.pi * ((n[:, None] * np.arange(ny)) % ny) / ny
    single = ((n == 0) | (2 * n == ny))[:, None]
    w = np.where(single, 1.0, 2.0)
    table = np.empty((2 * n.size, ny))
    table[0::2] = w * np.cos(angle)
    table[1::2] = np.where(single, 0.0, -w * np.sin(angle))
    table.flags.writeable = False
    return table


class _ColumnValues:
    """_real_values on an (nx, ny) grid of half spectra that are zero off the
    column range cols, a slice.  values(data), data the (..., nx, ncols)
    columns of one half spectrum or of a stack of them (each sample with the
    bits it has alone), returns their values in an array of its own per data
    shape, which the next call on that shape overwrites.  Up to
    _PRODUCT_COLUMNS columns they are within about 1e-15 of max|values| of
    irfft2; past that they have its bits."""

    def __init__(self, nx: int, ny: int, cols: slice):
        n = range(ny // 2 + 1)[cols]
        self.cols, self.shape = cols, (nx, ny)
        self.table = _cos_sin_table(n, ny) if len(n) <= _PRODUCT_COLUMNS else None
        self.arrays = {}  # the buffers of each use and data shape, made on the first call

    def _arrays(self, key, make):
        return self.arrays[key] if key in self.arrays else self.arrays.setdefault(key, make())

    def __call__(self, data: np.ndarray) -> np.ndarray:
        (*lead, nx, ncols), ny = data.shape, self.shape[1]
        # the x-pass output: the data columns, or for irfft every column of the half spectrum
        buf, out = self._arrays(data.shape, lambda: (
            np.zeros((*lead, nx, ncols if self.table is not None else ny // 2 + 1),
                     dtype=np.complex128), np.empty((*lead, nx, ny))))
        if self.table is None:
            np.fft.ifft(data, axis=-2, norm="forward", out=buf[..., self.cols])
            return np.fft.irfft(buf, n=ny, axis=-1, norm="forward", out=out)
        np.fft.ifft(data, axis=-2, norm="forward", out=buf)
        return np.matmul(buf.view(np.float64), self.table, out=out)

    def sup(self, data: np.ndarray) -> np.ndarray:
        """_sup of each plane of self(data), data (B, nx, ncols), as an array.
        Up to _PRODUCT_COLUMNS it takes half the y products: the values at
        y_l and -y_l are P + Q and P - Q, P and Q the table's cos and sin
        products, so max |values| = max(|P| + |Q|) (to about 1e-15)."""
        if self.table is None:
            values = self(data)
            return np.maximum(values.max(axis=(1, 2)), -values.min(axis=(1, 2)))
        (b, nx, ncols), h = data.shape, self.shape[1] // 2 + 1
        # the (cos, sin) halves of the table, and the stack's buffers
        tables = self._arrays("tables", lambda: self.table[:, :h].reshape(ncols, 2, h)
                              .transpose(1, 0, 2).copy())
        buf, parts, pq = self._arrays(("sup", b), lambda: (
            np.empty(data.shape, dtype=np.complex128), np.empty((b, 2, nx, ncols)),
            np.empty((b, 2, nx, h))))
        np.fft.ifft(data, axis=1, norm="forward", out=buf)
        # the (re, im) parts of the x-pass output, each contiguous
        np.copyto(parts, buf.view(np.float64).reshape(b, nx, ncols, 2).transpose(0, 3, 1, 2))
        np.matmul(parts, tables, out=pq)
        np.abs(pq, out=pq)
        return np.add(pq[:, 0], pq[:, 1], out=pq[:, 0]).max(axis=(1, 2))


def _sup(values: np.ndarray) -> float:
    """max |values| of a real array, as max(max, -min): no |.| array, and +0.0 for zeros."""
    return float(max(values.max(), -values.min()))


def _block_dims(grid: Grid) -> tuple[int, int]:
    """(K, kc) of the Galerkin block: the two-thirds rule keeps |m| <= K = nx//3
    and n = 0 .. kc - 1 = ny//3 of the half spectrum."""
    return grid.nx // 3, grid.ny // 3 + 1


def _pad_rows(out: np.ndarray, c: np.ndarray) -> None:
    """Write the rows of c, in FFT layout, into the rows of out (as many or
    more) that hold the same wavenumbers; the other rows of out are left as
    they are.  For an even row count n < len(out), row n/2 goes to both
    labels +n/2 and -n/2, halved in each, so padded real fields stay real."""
    n, h, big = len(c), len(c) // 2, len(out)
    out[:h + 1] = c[:h + 1]
    out[big - h:] = c[n - h:]
    if n % 2 == 0 and big > n:
        out[h] *= 0.5
        out[big - h] *= 0.5


def _fold_rows(c: np.ndarray, n: int) -> np.ndarray:
    """The rows of c, in FFT layout, that n rows hold, with the labels +n/2
    and -n/2 of an even n folded onto row n/2: a left inverse of _pad_rows."""
    h, big = n // 2, len(c)
    out = np.concatenate((c[:h + 1], c[big - (n - h - 1):]))
    if n % 2 == 0 and big > n:
        out[h] += c[big - h]
    return out


def _block(c: np.ndarray, K: int, kc: int) -> np.ndarray:
    """The Galerkin block of an array in FFT layout, shape (2K + 1, kc): rows
    m = 0 .. K, then m = -K .. -1, of the columns n = 0 .. kc - 1.  _fold_rows
    gives the same block from a full, a half or a block array."""
    return _fold_rows(c[:, :kc], 2 * K + 1)


def _full_from_block(block: np.ndarray, grid: Grid) -> np.ndarray:
    """Full FFT-layout coefficients of the real field whose half spectrum is
    the block and zero elsewhere."""
    half = np.zeros((grid.nx, grid.ny // 2 + 1), dtype=np.complex128)
    _pad_rows(half[:, :block.shape[1]], block)
    return _full_spectrum(half, grid.ny)


def _nonzero_columns(half: np.ndarray) -> slice:
    """The columns of a half spectrum from its first to its last nonzero
    one, as a slice; column 0 alone for a zero spectrum."""
    nonzero = np.flatnonzero(np.any(half != 0, axis=0))
    return slice(int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else slice(0, 1)


def _half_sq(half: np.ndarray, ny: int) -> np.ndarray:
    """|coefficient|^2 of a half spectrum (see _half) or a Galerkin block of an
    ny-column grid as terms of the full field's sums of weights even in
    (m, n): columns 0 < n < ny/2 count twice, for their conjugates too."""
    sq = np.abs(half) ** 2
    sq[:, 1:ny // 2] *= 2.0
    return sq


class RecordedStates(Sequence):
    """Read-only sequence of a run's states, kept as the Galerkin blocks
    `blocks` of grid and read as SpectralFields built on every read."""

    def __init__(self, grid: Grid, blocks: list):
        self.grid, self.blocks = grid, blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return SpectralField(self.grid, _full_from_block(self.blocks[i], self.grid))


def _real_coeffs(v: np.ndarray) -> np.ndarray:
    """Half spectrum (see _half) of real point values."""
    return np.fft.rfft2(v, norm="forward")


class _BlockCoeffs:
    """coeffs(v, mult, out) writes mult times the Galerkin block of
    _real_coeffs(v), v real values on an (nx, ny) grid, into out and returns
    out; the block has the bits of rfft2's."""

    def __init__(self, nx: int, ny: int, kc: int):
        self.half = np.empty((nx, ny // 2 + 1), dtype=np.complex128)
        self.cols = np.empty((nx, kc), dtype=np.complex128)

    def __call__(self, v: np.ndarray, mult: np.ndarray, out: np.ndarray) -> np.ndarray:
        K, cols = out.shape[0] // 2, self.cols
        np.fft.rfft(v, axis=1, norm="forward", out=self.half)
        np.fft.fft(self.half[:, :cols.shape[1]], axis=0, norm="forward", out=cols)
        np.multiply(mult[:K + 1], cols[:K + 1], out=out[:K + 1])
        np.multiply(mult[K + 1:], cols[-K:], out=out[K + 1:])
        return out


def _full_spectrum(half: np.ndarray, ny: int) -> np.ndarray:
    """Inverse of _half for a real field: column n > ny/2 is conj(c[-m, -n])."""
    nx, h = half.shape
    tail = np.conj(half[-np.arange(nx) % nx, ny - h:0:-1])
    return np.concatenate([half, tail], axis=1)


def forward_transform(grid: Grid, samples: np.ndarray) -> SpectralField:
    """Coefficients of real point values, through the real transform."""
    if np.iscomplexobj(samples):
        raise ValueError("forward_transform expects real samples")
    if np.shape(samples) != grid.shape:
        raise ValueError(f"sample shape {np.shape(samples)} does not match grid {grid.shape}")
    return SpectralField(grid, _full_spectrum(_real_coeffs(samples), grid.ny))


def _hermitian_gap(c: np.ndarray) -> float:
    """max |c[m, n] - conj(c[-m, -n])| over an array in FFT layout, read on
    its half spectrum: the gap at (-m, -n) has the modulus of that at (m, n)."""
    nx, ny = c.shape
    h = ny // 2 + 1
    gap = np.empty((nx, h), dtype=c.dtype)
    for dst, src in ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(nx - 1, 0, -1))):
        np.conjugate(c[src, :1], out=gap[dst, :1])
        np.conjugate(c[src, ny - 1:ny - h:-1], out=gap[dst, 1:])
    np.subtract(c[:, :h], gap, out=gap)
    return float(np.max(np.abs(gap)))


def _relative_gap(gap: float, c: np.ndarray) -> float:
    scale = np.max(np.abs(c))
    return 0.0 if scale == 0.0 else float(gap / scale)


def hermitian_defect(field: SpectralField) -> float:
    """Relative departure from f_hat(-m, -n) = conj(f_hat(m, n))."""
    return _relative_gap(_hermitian_gap(field.coeffs), field.coeffs)


def _require_real(state, error=SymmetryViolationError) -> None:
    """Raise error unless the hermitian_defect of state, a SpectralField or a
    Galerkin block, is at most HERMITIAN_TOL: only a block's column 0 can
    break the symmetry, with rows m and -m at i and -i mod 2K + 1."""
    block = not isinstance(state, SpectralField)
    c = state if block else state.coeffs
    defect = _relative_gap(_hermitian_gap(c[:, :1] if block else c), c)
    if defect > HERMITIAN_TOL:
        raise error(
            f"conjugate-symmetry defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e}; "
            "field does not represent a real function"
        )


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Real point values; rejects coefficients of a non-real field."""
    _require_real(field)
    return _real_values(_half(field.coeffs), field.grid.ny)


def l2_norm(field: SpectralField) -> float:
    """L2 norm on the square, ||f|| = 2*pi * (sum |f_hat|^2)^{1/2}."""
    return float(2.0 * np.pi * np.sqrt(np.sum(np.abs(field.coeffs) ** 2)))


def _axis_wavenumbers(grid: Grid, axis: str) -> np.ndarray:
    """kx2d for axis 'x', ky2d for axis 'y'; any other name is rejected."""
    grid.size_along(axis)
    return grid.kx2d if axis == "x" else grid.ky2d


def fractional_derivative(field: SpectralField, axis: str, a: float) -> SpectralField:
    """|wavenumber|^a multiplier along one axis; a = 0 is the identity."""
    if a < 0:
        raise ValueError(f"fractional order must be >= 0, got {a}")
    mult = np.abs(_axis_wavenumbers(field.grid, axis)) ** a
    return SpectralField(field.grid, field.coeffs * mult)


def derivative(field: SpectralField, axis: str) -> SpectralField:
    """Partial derivative along an axis; the unpaired Nyquist label +n/2,
    which the odd multiplier i*k would make non-real, is zeroed."""
    return SpectralField(field.grid, field.coeffs * _derivative_multiplier(field.grid, axis))


def _derivative_multiplier(grid: Grid, axis: str) -> np.ndarray:
    """i*k along one axis, with the Nyquist label zeroed (see derivative)."""
    k = _axis_wavenumbers(grid, axis)
    k = np.where(k == grid.size_along(axis) // 2, 0.0, k)
    return 1j * k


def bessel_potential(field: SpectralField, s: float, mode: str = "full") -> SpectralField:
    """(1 + |wavenumber|^2)^{s/2} multiplier: full Laplacian or one axis."""
    g = field.grid
    if mode == "full":
        base = 1.0 + g.kx2d**2 + g.ky2d**2
    elif mode in ("x", "y"):
        base = 1.0 + _axis_wavenumbers(g, mode) ** 2
    else:
        raise ValueError(f"mode must be 'full', 'x' or 'y', got {mode!r}")
    return SpectralField(g, field.coeffs * base ** (s / 2.0))


def shell_indices(wavenumbers: np.ndarray) -> np.ndarray:
    """Dyadic shell index: 0 for |k| in [0,1), j >= 1 for |k| in [2^{j-1}, 2^j)."""
    return np.frexp(np.abs(np.asarray(wavenumbers, dtype=float)))[1]


def dyadic_project(field: SpectralField, axis: str, shell: int) -> SpectralField:
    if shell < 0 or int(shell) != shell:
        raise ValueError(f"shell index must be a nonnegative integer, got {shell!r}")
    mask = shell_indices(_axis_wavenumbers(field.grid, axis)) == shell
    return SpectralField(field.grid, field.coeffs * mask)


def _check_sobolev_index(grid: Grid, s: float) -> None:
    """Refuse s (ValueError) unless s log2(1 + max|k|^2) < 1000 on grid, which
    keeps the weight (1 + |k|^2)^s, and sums over it, finite floats."""
    if not s * np.log2(1 + (grid.nx // 2) ** 2 + (grid.ny // 2) ** 2) < 1000:
        raise ValueError(f"Sobolev index {s} is too large for a {grid.nx} x {grid.ny} grid: "
                         "s * log2(1 + max|k|^2) must stay below 1000")


def _sobolev_weight(grid: Grid, s: float) -> np.ndarray:
    """(1 + m^2 + n^2)^s, the weight of |f_hat|^2 in sobolev_norm squared."""
    return (1.0 + grid.kx2d**2 + grid.ky2d**2) ** s


def _weighted_norm(weight: np.ndarray, sq: np.ndarray) -> float:
    """(sum weight * sq)^{1/2}, for sq = |f_hat|^2."""
    return float(np.sqrt(np.sum(weight * sq)))


def sobolev_norm(field: SpectralField, s: float) -> float:
    return _weighted_norm(_sobolev_weight(field.grid, s), np.abs(field.coeffs) ** 2)


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


def _dealias_mask(grid: Grid) -> np.ndarray:
    """True where |m| <= nx/3 and |n| <= ny/3: the modes the two-thirds rule
    keeps, those of the Galerkin block (see _block_dims)."""
    K, kc = _block_dims(grid)
    return (np.abs(grid.kx2d) <= K) & (np.abs(grid.ky2d) < kc)


def dealias(field: SpectralField) -> SpectralField:
    """Two-thirds rule: zero coefficients with |m| > nx/3 or |n| > ny/3."""
    return SpectralField(field.grid, field.coeffs * _dealias_mask(field.grid))


def embed_in_grid(field: SpectralField, big: Grid) -> SpectralField:
    """Zero-pad onto a finer grid (same function, more resolvable modes):
    _pad_rows along x, then along y."""
    g = field.grid
    if big.nx < g.nx or big.ny < g.ny:
        raise ValueError("target grid must be at least as fine on both axes")
    rows = np.zeros((big.nx, g.ny), dtype=np.complex128)
    _pad_rows(rows, field.coeffs)
    out = np.zeros(big.shape, dtype=np.complex128)
    _pad_rows(out.T, rows.T)
    return SpectralField(big, out)


def truncate_to_grid(field: SpectralField, small: Grid) -> SpectralField:
    """Restrict to the wavenumbers of a coarser grid: _fold_rows along x,
    then along y, so this is a left inverse of embed_in_grid."""
    g = field.grid
    if small.nx > g.nx or small.ny > g.ny:
        raise ValueError("target grid must be at least as coarse on both axes")
    rows = _fold_rows(field.coeffs, small.nx)
    return SpectralField(small, _fold_rows(rows.T, small.ny).T)


def resample_values(field: SpectralField, factor: int) -> np.ndarray:
    """Real point values on a factor-refined grid (trigonometric
    interpolation); rejects coefficients of a non-real field."""
    if factor < 1 or int(factor) != factor:
        raise ValueError(f"refinement factor must be a positive integer, got {factor!r}")
    g = field.grid
    return inverse_transform(embed_in_grid(field, Grid(g.nx * factor, g.ny * factor)))


class _RefinedPlanes:
    """Real point values of u, then u_x, then u_y on the 2x grid (derivatives
    as `derivative` takes them) of real SpectralFields or Galerkin blocks of
    one grid: planes(state) raises SymmetryViolationError for a non-real
    state and iterates over the three planes, each overwriting the last,
    the irfft2 (see _ColumnValues) of the padded (see embed_in_grid)
    columns planes.data(state) times each multiplier.  planes.of_data(data)
    iterates over the planes of such columns, unchecked."""

    def __init__(self, grid: Grid):
        h, dx = grid.ny // 2 + 1, _derivative_multiplier(grid, "x")
        self.grid = grid
        # i k_x on the rows of a field and on those of a block, by row count
        self.dx = {grid.nx: dx, 2 * (grid.nx // 3) + 1: _block(dx, grid.nx // 3, 1)}
        self.dy = _derivative_multiplier(grid, "y")[:, :h]
        self.cols = self.values = None
        self.data_rows = 0  # the row count of the data in cols, whose other rows are zero

    def data(self, state) -> np.ndarray:
        _require_real(state)
        half = state.coeffs[:, :self.dy.shape[1]] if isinstance(state, SpectralField) else state
        return half[:, :_nonzero_columns(half).stop]

    def __call__(self, state):
        return self.of_data(self.data(state))

    def of_data(self, data: np.ndarray):
        h = self.dy.shape[1]
        rows, width = data.shape
        if self.data_rows != rows:  # _pad_rows writes only the rows that hold data
            self.cols = np.zeros((2 * self.grid.nx, h), dtype=np.complex128)
            self.data_rows = rows
        if self.values is None or self.values.cols.stop != width:
            self.values = _ColumnValues(2 * self.grid.nx, 2 * self.grid.ny, slice(0, width))
        cols = self.cols[:, :width]
        for mult in (1.0, self.dx[rows], self.dy[:, :width]):
            _pad_rows(cols, data * mult)
            if width == h:
                cols[:, -1] *= 0.5
            yield self.values(cols)
