"""Field snapshots: round trips, canonical layout, format rejection."""
import json
import re

import numpy as np
import pytest

from dgzk.fieldio import load_field, save_field
from dgzk.grid import Grid
from dgzk.spectral import SpectralField, field_from_modes

from fieldgen import real_field


def _complex_field(grid, rng):
    z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SpectralField(grid=grid, coeffs=z)


def test_json_round_trip_is_exact(tmp_path, grid16, rng):
    f = _complex_field(grid16, rng)
    p = tmp_path / "snap.json"
    save_field(f, p)
    back = load_field(p)
    assert back.grid == grid16
    assert np.array_equal(back.coeffs, f.coeffs)


def test_binary_round_trip_is_exact(tmp_path, grid16, rng):
    f = _complex_field(grid16, rng)
    p = tmp_path / "snap.fld"
    save_field(f, p)
    back = load_field(p)
    assert np.array_equal(back.coeffs, f.coeffs)


@pytest.mark.parametrize("suffix", [".json", ".fld"])
def test_round_trip_keeps_every_bit(tmp_path, grid16, rng, suffix):
    # re + 1j * im turned a -0.0 real part into +0.0 and 1 + inf j into nan + inf j
    f = _complex_field(grid16, rng)
    f.coeffs[0, :4] = [complex(-0.0, 1.0), complex(1.0, np.inf), complex(-0.0, -0.0),
                       complex(np.nan, -np.inf)]
    p = tmp_path / f"snap{suffix}"
    save_field(f, p)
    assert load_field(p).coeffs.tobytes() == f.coeffs.tobytes()


def test_real_field_survives_round_trip(tmp_path, grid16, rng):
    f = real_field(grid16, rng)
    p = tmp_path / "snap.fld"
    save_field(f, p)
    assert np.array_equal(load_field(p).coeffs, f.coeffs)


def test_json_layout_is_wavenumber_ascending(tmp_path):
    # cos x has coefficients 1/2 at m = +-1, n = 0; on an 8x8 grid the
    # canonical order runs m = -3..4 outer, n = -3..4 inner, interleaved re/im
    g = Grid(8, 8)
    f = field_from_modes(g, {(1, 0): 0.5, (-1, 0): 0.5})
    p = tmp_path / "snap.json"
    save_field(f, p)
    record = json.loads(p.read_text())
    assert record["format"] == "dgzk-field"
    assert record["version"] == 1
    assert record["normalization"] == "angular-2pi-inverse"
    data = record["data"]
    assert len(data) == 2 * 8 * 8
    expected = {2 * ((-1 + 3) * 8 + (0 + 3)): 0.5,   # m = -1
                2 * ((+1 + 3) * 8 + (0 + 3)): 0.5}   # m = +1
    for i, v in enumerate(data):
        assert v == expected.get(i, 0.0)


def test_suffix_picks_format(tmp_path, grid16, rng):
    f = _complex_field(grid16, rng)
    pj = tmp_path / "a.json"
    pb = tmp_path / "a.fld"
    save_field(f, pj)
    save_field(f, pb)
    assert pj.read_text().lstrip().startswith("{")
    assert pb.read_bytes()[:8] == b"DGZK-FLD"


def test_json_rejects_foreign_records(tmp_path, grid16, rng):
    p = tmp_path / "snap.json"
    save_field(_complex_field(grid16, rng), p)
    record = json.loads(p.read_text())

    bad = dict(record, format="other")
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="not a field record"):
        load_field(p)

    bad = dict(record, version=2)
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="unsupported version"):
        load_field(p)

    bad = dict(record, normalization="unitary")
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="normalization"):
        load_field(p)

    bad = dict(record, data=record["data"][:-2])
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="scalars"):
        load_field(p)


@pytest.mark.parametrize("malformed", [
    lambda r: [r],                                       # not an object
    lambda r: {k: v for k, v in r.items() if k != "data"},
    lambda r: dict(r, nx=r["nx"] + 0.7),
    lambda r: dict(r, nx=str(r["nx"])),
    lambda r: dict(r, ny=True),
    lambda r: dict(r, data=[None] + r["data"][1:]),
    lambda r: dict(r, data=[r["data"][:2]] * (len(r["data"]) // 2)),   # nested
    lambda r: dict(r, data=[r["data"][:2], r["data"][:3]]),             # ragged
], ids=["array", "no-data", "float-nx", "string-nx", "bool-ny", "null-entry", "nested",
        "ragged"])
def test_json_refuses_malformed_records(tmp_path, malformed):
    """A JSON record must be an object with int nx and ny (not bool) and a
    flat list of numbers as data; anything else is a ValueError that names
    the file."""
    p = tmp_path / "snap.json"
    save_field(field_from_modes(Grid(8, 8), {(1, 0): 0.5, (-1, 0): 0.5}), p)
    p.write_text(json.dumps(malformed(json.loads(p.read_text()))))
    with pytest.raises(ValueError, match=re.escape(str(p))):
        load_field(p)


def test_binary_rejects_corruption(tmp_path, grid16, rng):
    p = tmp_path / "snap.fld"
    save_field(_complex_field(grid16, rng), p)
    blob = p.read_bytes()

    p.write_bytes(b"XXXXXXXX" + blob[8:])
    with pytest.raises(ValueError, match="not a binary field snapshot"):
        load_field(p)

    p.write_bytes(blob[:8] + bytes([9]) + blob[9:])
    with pytest.raises(ValueError, match="unsupported version"):
        load_field(p)

    tampered = bytearray(blob)
    tampered[20] = ord("x")
    p.write_bytes(bytes(tampered))
    with pytest.raises(ValueError, match="normalization"):
        load_field(p)

    p.write_bytes(blob[:-16])
    with pytest.raises(ValueError, match="scalars"):
        load_field(p)

