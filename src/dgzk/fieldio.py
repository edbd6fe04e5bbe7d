"""Field snapshots on disk.

Two stable formats, both carrying the normalization tag so readers can
reject fields written under a different transform convention; a path's
suffix names the format:

* JSON (suffix .json): object {"format": "dgzk-field", "version": 1,
  "nx", "ny", "normalization": "angular-2pi-inverse", "data": [re, im,
  re, im, ...]} with coefficients in canonical order: wavenumber m
  ascending from -nx/2+1 to nx/2 (outer), n ascending likewise (inner).
* binary (any other suffix): magic "DGZK-FLD", three little-endian uint32
  (version, nx, ny), a 24-byte null-padded normalization tag, then float64
  little-endian interleaved re/im in the same canonical order.
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


def _canonical(grid: Grid):
    """Index putting FFT-ordered coefficients into ascending-m, -n order."""
    return np.ix_(np.argsort(grid.kx, kind="stable"), np.argsort(grid.ky, kind="stable"))


def _is_json(path: Path) -> bool:
    """The format a path's suffix names: JSON for .json, binary otherwise."""
    return path.suffix.lower() == ".json"


def save_field(field: SpectralField, path) -> None:
    """Write a field snapshot in the format its suffix names (see _is_json)."""
    path = Path(path)
    # interleaved re/im: the float64 view of the C-contiguous canonical array
    data = field.coeffs[_canonical(field.grid)].view(np.float64).ravel()
    if _is_json(path):
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


def load_field(path) -> SpectralField:
    path = Path(path)
    if _is_json(path):
        record = json.loads(path.read_text())
        if not isinstance(record, dict) or record.get("format") != "dgzk-field":
            raise ValueError(f"{path}: not a field record")
        version, tag = record.get("version"), record.get("normalization")
        body = lambda: (record.get("nx"), record.get("ny"), np.asarray(record.get("data")))
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
    try:
        nx, ny, data = body()
    except ValueError:  # numpy refuses a ragged data list
        nx = ny = data = None
    if not (type(nx) is type(ny) is int and data.ndim == 1 and data.dtype.kind in "fi"):
        raise ValueError(f"{path}: nx and ny must be integers and data a flat list of numbers")
    grid = Grid(nx=nx, ny=ny)
    if data.size != 2 * grid.nx * grid.ny:
        raise ValueError(
            f"expected {2 * grid.nx * grid.ny} scalars for a {grid.nx}x{grid.ny} field, "
            f"got {data.size}")
    # the complex128 view of the interleaved data: a bit-exact round trip
    coeffs = np.empty(grid.shape, dtype=np.complex128)
    coeffs[_canonical(grid)] = np.ascontiguousarray(data, dtype=np.float64).view(
        np.complex128).reshape(grid.shape)
    return SpectralField(grid=grid, coeffs=coeffs)
