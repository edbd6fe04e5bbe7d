"""Field snapshots on disk.

Two stable formats, both carrying the normalization tag so readers can
reject fields written under a different transform convention:

* JSON: object {"format": "dgzk-field", "version": 1, "nx", "ny",
  "normalization": "angular-2pi-inverse", "data": [re, im, re, im, ...]}
  with coefficients in canonical order: wavenumber m ascending from
  -nx/2+1 to nx/2 (outer), n ascending likewise (inner).
* binary: magic "DGZK-FLD", three little-endian uint32 (version, nx, ny),
  a 24-byte null-padded normalization tag, then float64 little-endian
  interleaved re/im in the same canonical order.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .grid import Grid
from .spectral import SpectralField

__all__ = ["save_field", "load_field"]

MAGIC = b"DGZK-FLD"
VERSION = 1
NORMALIZATION = "angular-2pi-inverse"
_TAG_BYTES = 24


def _canonical_order(grid: Grid):
    """Index arrays putting FFT-ordered coefficients into ascending-m, -n order."""
    return np.argsort(grid.kx, kind="stable"), np.argsort(grid.ky, kind="stable")


def _to_canonical(field: SpectralField) -> np.ndarray:
    ox, oy = _canonical_order(field.grid)
    return field.coeffs[np.ix_(ox, oy)]


def _from_canonical(grid: Grid, canon: np.ndarray) -> SpectralField:
    ox, oy = _canonical_order(grid)
    coeffs = np.empty(grid.shape, dtype=complex)
    coeffs[np.ix_(ox, oy)] = canon
    return SpectralField(grid=grid, coeffs=coeffs)


def _interleave(canon: np.ndarray) -> np.ndarray:
    flat = canon.ravel()
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out


def _deinterleave(data: np.ndarray, grid: Grid) -> np.ndarray:
    if data.size != 2 * grid.nx * grid.ny:
        raise ValueError(
            f"expected {2 * grid.nx * grid.ny} scalars for a {grid.nx}x{grid.ny} field, "
            f"got {data.size}")
    return (data[0::2] + 1j * data[1::2]).reshape(grid.shape)


def _format(path: Path, fmt) -> str:
    """fmt, by default 'json' for a .json suffix and 'binary' otherwise."""
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "binary"
    if fmt not in ("json", "binary"):
        raise ValueError(f"fmt must be 'json' or 'binary', got {fmt!r}")
    return fmt


def save_field(field: SpectralField, path, fmt: str = None) -> None:
    """Write a field snapshot; fmt is 'json' or 'binary' (default: by suffix)."""
    path = Path(path)
    data = _interleave(_to_canonical(field))
    if _format(path, fmt) == "json":
        record = {
            "format": "dgzk-field",
            "version": VERSION,
            "nx": field.grid.nx,
            "ny": field.grid.ny,
            "normalization": NORMALIZATION,
            "data": data.tolist(),
        }
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
    else:
        tag = NORMALIZATION.encode("ascii").ljust(_TAG_BYTES, b"\0")
        header = MAGIC + struct.pack("<III", VERSION, field.grid.nx, field.grid.ny) + tag
        path.write_bytes(header + data.astype("<f8").tobytes())


def load_field(path, fmt: str = None) -> SpectralField:
    path = Path(path)
    if _format(path, fmt) == "json":
        record = json.loads(path.read_text())
        if record.get("format") != "dgzk-field":
            raise ValueError(f"{path}: not a field record")
        version, tag = record.get("version"), record.get("normalization")
        body = lambda: (record["nx"], record["ny"], np.asarray(record["data"], dtype=float))
    else:
        blob = path.read_bytes()
        head = len(MAGIC) + 12 + _TAG_BYTES
        if len(blob) < head or blob[:len(MAGIC)] != MAGIC:
            raise ValueError(f"{path}: not a binary field snapshot")
        version, nx, ny = struct.unpack("<III", blob[len(MAGIC):len(MAGIC) + 12])
        tag = blob[len(MAGIC) + 12:head].rstrip(b"\0").decode("ascii", "replace")
        body = lambda: (nx, ny, np.frombuffer(blob[head:], dtype="<f8"))
    # the header checks run before the body is read
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version!r}")
    if tag != NORMALIZATION:
        raise ValueError(f"{path}: unexpected normalization {tag!r}")
    nx, ny, data = body()
    grid = Grid(nx=int(nx), ny=int(ny))
    return _from_canonical(grid, _deinterleave(data, grid))
