"""Frequency-localized kernel sums: enumeration oracle, symmetries, scan."""
import cmath
import math
import tracemalloc

import numpy as np
import pytest

from dgzk.errors import InsufficientDataError
from dgzk.estimates.bump import psi1
from dgzk.estimates.kernels import KernelQuery, _cell_tables, kernel_decay_scan, kernel_sum
from dgzk.propagator import DispersionSymbol

SYM = DispersionSymbol(alpha=1, beta=0.5, sign=1, mu=0.0)


@pytest.mark.parametrize("j, k", [(1, 1), (3, 2), (2, 4)])
@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("sign", [1, -1])
def test_sum_matches_direct_enumeration(sign, alpha, beta, j, k):
    # pure-python double loop over the full lattice; the cutoff vanishes
    # exactly outside its support, so a generous integer range is safe
    sym = DispersionSymbol(alpha=alpha, beta=beta, sign=sign, mu=0.0)
    box = 2.0 ** (-(j + k))
    q = KernelQuery(j=j, k=k, symbol=sym, t=0.4 * box, t_prime=-0.32 * box, x=1.2, y=5.3)
    got = kernel_sum(q)
    delta = q.t - q.t_prime
    total = 0j
    mass = 0.0
    for m in range(-(2 ** (j + 2)), 2 ** (j + 2) + 1):
        wm = psi1(m / 2.0 ** j) ** 2
        if wm == 0.0:
            continue
        for n in range(-(2 ** (k + 2)), 2 ** (k + 2) + 1):
            wn = psi1(n / 2.0 ** k) ** 2
            if wn == 0.0:
                continue
            omega = m * abs(m) ** (1.0 + alpha) + sign * m * abs(n) ** (1.0 + beta)
            total += wm * wn * cmath.exp(1j * (m * q.x + n * q.y + omega * delta))
            mass += wm * wn
    assert got.imag == 0.0
    assert abs(got - total) <= 1e-12 * mass


def test_coincident_times_give_cutoff_mass_product():
    q = KernelQuery(j=1, k=1, symbol=SYM, t=0.05, t_prime=0.05, x=0.0, y=0.0)
    v = kernel_sum(q)
    s1 = 2.0 * sum(psi1(m / 2.0) ** 2 for m in range(1, 9))
    assert v.imag == pytest.approx(0.0, abs=1e-12)
    assert v.real == pytest.approx(s1 * s1, rel=1e-13)


def test_coincident_value_counts_lattice_points():
    # at t = t' = x = y = 0 the modulus is the weighted lattice count, which
    # doubles with each x-shell
    prev = None
    for j in (2, 3, 4, 5):
        q = KernelQuery(j=j, k=2, symbol=SYM, t=0.0, t_prime=0.0, x=0.0, y=0.0)
        v = abs(kernel_sum(q))
        if prev is not None:
            assert v / prev == pytest.approx(2.0, rel=0.05)
        prev = v


def test_conjugate_symmetry_under_time_and_point_reflection():
    qa = KernelQuery(j=2, k=2, symbol=SYM, t=0.01, t_prime=-0.02, x=1.0, y=2.5)
    qb = KernelQuery(j=2, k=2, symbol=SYM, t=-0.02, t_prime=0.01,
                     x=2 * math.pi - 1.0, y=2 * math.pi - 2.5)
    va, vb = kernel_sum(qa), kernel_sum(qb)
    assert abs(va - vb.conjugate()) <= 1e-12 * abs(va)


def test_time_box_cutoff_is_sharp():
    # j = k = 2 confines both times to |t| <= 1/16
    inside = KernelQuery(j=2, k=2, symbol=SYM, t=0.0625, t_prime=0.0, x=0.0, y=0.0)
    assert abs(kernel_sum(inside)) > 0.0
    outside = KernelQuery(j=2, k=2, symbol=SYM, t=0.07, t_prime=0.0, x=0.0, y=0.0)
    assert kernel_sum(outside) == 0j


def test_query_validation():
    with pytest.raises(ValueError, match="shell indices"):
        KernelQuery(j=0, k=1, symbol=SYM, t=0.0, t_prime=0.0, x=0.0, y=0.0)
    with pytest.raises(ValueError, match="undamped"):
        KernelQuery(j=1, k=1, symbol=DispersionSymbol(alpha=1, beta=0.5, sign=1, mu=0.1),
                    t=0.0, t_prime=0.0, x=0.0, y=0.0)
    with pytest.raises(ValueError, match=r"\(x, y\)"):
        KernelQuery(j=1, k=1, symbol=SYM, t=0.0, t_prime=0.0, x=2 * math.pi, y=0.0)
    with pytest.raises(ValueError, match="window exponent"):
        KernelQuery(j=2, k=2, symbol=SYM, t=0.01, t_prime=0.0, x=0.0, y=0.0, l=3)
    with pytest.raises(ValueError, match="outside the window"):
        KernelQuery(j=1, k=1, symbol=SYM, t=0.2, t_prime=0.0, x=0.0, y=0.0, l=4)


def test_window_accepts_edge_gap():
    # gap exactly 2^{1-l} sits at the closed end of the window
    q = KernelQuery(j=1, k=1, symbol=SYM, t=2.0 ** -3, t_prime=-(2.0 ** -3),
                    x=0.0, y=0.0, l=3)
    assert isinstance(kernel_sum(q), complex)


def test_scan_small_run_decays_in_both_shells():
    rep = kernel_decay_scan(SYM, range(4, 7), range(4, 7), samples_per_cell=4, seed=0)
    assert len(rep.cells) == 9
    assert rep.slope_j <= -0.15
    assert rep.slope_k <= -0.1
    assert 0.0 < rep.max_ratio <= 10.0
    assert rep.alpha == 1 and rep.beta == 0.5 and rep.seed == 0


def test_scan_is_deterministic_and_worker_invariant():
    a = kernel_decay_scan(SYM, range(4, 6), range(4, 6), samples_per_cell=3, seed=2)
    b = kernel_decay_scan(SYM, range(4, 6), range(4, 6), samples_per_cell=3, seed=2)
    assert a.cells == b.cells and a.slope_j == b.slope_j
    c = kernel_decay_scan(SYM, range(4, 6), range(4, 6), samples_per_cell=3, seed=2,
                          workers=2)
    assert a.cells == c.cells


def test_cell_tables_are_shared_read_only_and_keep_the_sums():
    q = KernelQuery(j=2, k=3, symbol=SYM, t=0.01, t_prime=-0.005, x=0.3, y=1.1)
    first = kernel_sum(q)
    tables = _cell_tables(2, 3, SYM.alpha, SYM.beta)
    assert all(not t.flags.writeable for t in tables)
    with pytest.raises(ValueError):
        tables[0][0] = 0.0
    assert _cell_tables(2, 3, SYM.alpha, SYM.beta) is tables
    assert kernel_sum(q) == first


def test_scan_requires_two_shells_each_way():
    with pytest.raises(InsufficientDataError):
        kernel_decay_scan(SYM, [4], [4, 5])
    with pytest.raises(InsufficientDataError):
        kernel_decay_scan(SYM, [4, 5], [4])
    with pytest.raises(InsufficientDataError):
        kernel_decay_scan(SYM, [4, 5], [4, 5], samples_per_cell=0)


def test_scan_cost_guard():
    with pytest.raises(ValueError, match="feasibility"):
        kernel_decay_scan(SYM, [10, 11], [10, 11], samples_per_cell=1)


def test_scan_rejects_damped_symbol():
    damped = DispersionSymbol(alpha=1, beta=0.5, sign=1, mu=1e-3)
    with pytest.raises(ValueError, match="undamped"):
        kernel_decay_scan(damped, [4, 5], [4, 5])


def _unfactored_sum(q):
    """The quarter-lattice sum with one exponential per (m, n) phase, rows
    in chunks of 64; returns (value, lattice mass sum |weights|)."""
    sym = q.symbol
    m = np.arange(int(2.0 ** (q.j - 2)) + 1, int(np.ceil(2.0 ** (q.j + 2))), dtype=float)
    n = np.arange(int(2.0 ** (q.k - 2)) + 1, int(np.ceil(2.0 ** (q.k + 2))), dtype=float)
    delta = q.t - q.t_prime
    wm, wn = psi1(m / 2.0 ** q.j) ** 2, psi1(n / 2.0 ** q.k) ** 2
    vec_m = wm * np.exp(1j * (m * q.x + m * m ** (1.0 + sym.alpha) * delta))
    vec_n = 2.0 * wn * np.cos(n * q.y)
    total = 0j
    for start in range(0, m.size, 64):
        rows = slice(start, start + 64)
        phase = np.exp(1j * sym.sign * delta * np.outer(m[rows], n ** (1.0 + sym.beta)))
        total += vec_m[rows] @ (phase @ vec_n)
    return 2.0 * total.real, 4.0 * wm.sum() * wn.sum()


@pytest.mark.parametrize("j, k", [(1, 1), (1, 8), (8, 1), (3, 6), (6, 3), (5, 5), (7, 8),
                                  (8, 8)])
@pytest.mark.parametrize("sign", [1, -1])
def test_factored_rows_match_the_unfactored_sum(sign, j, k):
    """Row blocks with a block-start and an offset table agree with one
    exponential per lattice point to 1e-13 of the lattice mass, partial
    last blocks included, and the value stays exactly real."""
    sym = DispersionSymbol(alpha=2, beta=0.75, sign=sign, mu=0.0)
    rng = np.random.default_rng([j, k, sign + 1])
    l = j + k
    delta = 2.0 ** (-l) * (2.0 - rng.uniform())
    q = KernelQuery(j=j, k=k, symbol=sym, t=delta / 2.0, t_prime=-delta / 2.0,
                    x=rng.uniform(0.0, 2 * math.pi), y=rng.uniform(0.0, 2 * math.pi), l=l)
    got = kernel_sum(q)
    want, mass = _unfactored_sum(q)
    assert got.imag == 0.0
    assert abs(got.real - want) <= 1e-13 * mass


def test_one_sum_at_shell_8_stays_under_4_mb():
    q = KernelQuery(j=8, k=8, symbol=SYM, t=1.5 * 2.0 ** -17, t_prime=-1.5 * 2.0 ** -17,
                    x=0.3, y=1.9, l=16)
    kernel_sum(q)  # lazy imports and caches outside the measurement
    tracemalloc.start()
    try:
        kernel_sum(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
