import ast
from pathlib import Path

import numpy as np
import pytest

import dgzk
from dgzk import Grid


def test_wavenumber_layout_follows_fft_order():
    g = Grid(8, 8)
    assert list(g.kx) == [0, 1, 2, 3, 4, -3, -2, -1]
    assert list(g.ky) == [0, 1, 2, 3, 4, -3, -2, -1]


def test_wavenumber_band_is_symmetric_with_positive_nyquist():
    g = Grid(16, 12)
    assert g.kx.min() == -7 and g.kx.max() == 8
    assert g.ky.min() == -5 and g.ky.max() == 6


def test_grid_arrays_are_read_only():
    """Every field on a grid shares these arrays."""
    g = Grid(8, 12)
    for name in ("kx", "ky", "kx2d", "ky2d", "x", "y"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = 5.0


def test_index_of_round_trips_every_wavenumber():
    g = Grid(16, 10)
    for axis, ks in (("x", g.kx), ("y", g.ky)):
        for idx, m in enumerate(ks):
            assert g.index_of(int(m), axis) == idx


def test_index_of_rejects_out_of_band():
    g = Grid(16, 16)
    with pytest.raises(ValueError):
        g.index_of(9, "x")
    with pytest.raises(ValueError):
        g.index_of(-8, "x")  # band is {-7, ..., 8}
    assert g.index_of(8, "x") == 8


def test_grid_validation():
    for bad in (7, 6, 15, 0, -8):
        with pytest.raises(ValueError):
            Grid(bad, 16)
    with pytest.raises(ValueError):
        Grid(16, 16.0)


def test_sample_points_and_cell_area():
    g = Grid(16, 8)
    assert g.x[0] == 0.0
    assert np.allclose(np.diff(g.x), 2 * np.pi / 16)
    assert np.allclose(np.diff(g.y), 2 * np.pi / 8)
    assert np.isclose(g.cell_area * 16 * 8, (2 * np.pi) ** 2)
    assert g.shape == (16, 8)


def test_axis_name_validation():
    g = Grid(8, 8)
    with pytest.raises(ValueError):
        g.size_along("z")


def test_grid_refuses_a_2x_plane_above_the_ceiling():
    # 32 * 5590^2 = 9.9995e8 bytes passes, 32 * 5592 * 5590 = 1.0003e9 does not
    assert Grid(5590, 5590).shape == (5590, 5590)
    with pytest.raises(ValueError, match="bytes of the largest array"):
        Grid(5592, 5590)


def test_only_grid_checks_the_grid_bytes_ceiling():
    """Every array lives on some Grid, so the check in Grid covers them all."""
    checkers = set()
    for path in Path(dgzk.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_work"
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "grid_bytes"):
                checkers.add(path.name)
    assert checkers == {"grid.py"}
