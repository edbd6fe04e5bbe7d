"""Complete exponential sums: closed forms, exact-arithmetic oracles, the
rational approximation step, and the bound scan."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgzk.estimates.expsums import (
    RationalApprox,
    WeylInstance,
    dirichlet_approx,
    weyl_bound,
    weyl_scan,
    weyl_sum,
)


# ---------------------------------------------------------------- closed forms

def test_zero_phase_counts_terms():
    s = weyl_sum(WeylInstance((0.0, 0.0, 0.0, 0.0), 17))
    assert s == pytest.approx(17.0 + 0.0j, abs=1e-12)


def test_half_integer_cubic_is_parity_sum():
    # h(m) = m^3/2 gives e^{pi i m^3} = (-1)^m, so the sum telescopes
    even = weyl_sum(WeylInstance((0.0, 0.0, 0.0, 0.5), 16))
    odd = weyl_sum(WeylInstance((0.0, 0.0, 0.0, 0.5), 17))
    assert abs(even) <= 1e-12
    assert abs(odd - (-1.0)) <= 1e-12


def test_linear_phase_geometric_closed_form():
    w = 0.3183
    n = 257
    s = weyl_sum(WeylInstance((0.0, w), n))
    z = cmath.exp(2j * math.pi * w)
    assert abs(s - z * (z ** n - 1) / (z - 1)) <= 1e-10


def test_linear_phase_exhaustive_rationals():
    # every omega = p/64 has an exact geometric value; p = 0 degenerates to N
    n = 100
    for p in range(64):
        s = weyl_sum(WeylInstance((0.0, p / 64), n))
        if p == 0:
            expected = complex(n)
        else:
            z = cmath.exp(2j * math.pi * p / 64)
            expected = z * (z ** n - 1) / (z - 1)
        assert abs(s - expected) <= 1e-9, f"p={p}"


def test_single_term_has_unit_modulus():
    s = weyl_sum(WeylInstance((0.413, 0.871, 0.229), 1))
    assert abs(abs(s) - 1.0) <= 1e-12


# ----------------------------------------------------- exact-arithmetic oracles

def test_cubic_sum_matches_exact_rational_arithmetic():
    # dyadic coefficients k/1024 keep every Horner intermediate exactly
    # representable, so the implementation and an integer-arithmetic fsum
    # accumulation must agree to rounding error
    for seed in (42, 3):
        rng = np.random.default_rng(seed)
        ks = [int(v) for v in rng.integers(0, 1024, size=4)]
        n = 4096
        s = weyl_sum(WeylInstance(tuple(k / 1024 for k in ks), n))
        re = math.fsum(
            math.cos(2 * math.pi * ((((ks[3] * m + ks[2]) * m + ks[1]) * m + ks[0]) % 1024 / 1024))
            for m in range(1, n + 1))
        im = math.fsum(
            math.sin(2 * math.pi * ((((ks[3] * m + ks[2]) * m + ks[1]) * m + ks[0]) % 1024 / 1024))
            for m in range(1, n + 1))
        assert abs(s - complex(re, im)) <= 1e-9


def test_cubic_sum_matches_residue_class_splitting():
    # with every coefficient a multiple of 1/q the phase is q-periodic in m,
    # so the sum collapses to q residue classes weighted by their counts
    q = 64
    ks = [int(v) for v in np.random.default_rng(7).integers(0, q, size=4)]
    n = 1000
    s = weyl_sum(WeylInstance(tuple(k / q for k in ks), n))
    split = 0j
    for r in range(1, q + 1):
        count = (n - r) // q + 1
        num = (((ks[3] * r + ks[2]) * r + ks[1]) * r + ks[0]) % q
        split += count * cmath.exp(2j * math.pi * num / q)
    assert abs(s - split) <= 1e-9


def test_modulus_never_exceeds_term_count():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 400))
        coeffs = tuple(rng.uniform(0.0, 1.0, size=d + 1))
        assert abs(weyl_sum(WeylInstance(coeffs, n))) <= n + 1e-9


def test_instance_validation():
    with pytest.raises(ValueError, match="degree 1"):
        WeylInstance((0.3,), 10)
    with pytest.raises(ValueError, match="n_terms"):
        WeylInstance((0.0, 0.5), 0)
    assert WeylInstance((0.0, 0.1, 0.2, 0.3), 5).degree == 3


# ------------------------------------------------------- rational approximation

def test_dirichlet_examples():
    assert dirichlet_approx(0.3, 10) == RationalApprox(3, 10)
    assert dirichlet_approx(0.5, 2) == RationalApprox(1, 2)
    assert dirichlet_approx(math.sqrt(2.0), 5) == RationalApprox(7, 5)
    assert dirichlet_approx(0.0, 7) == RationalApprox(0, 1)


def test_dirichlet_validation():
    with pytest.raises(ValueError, match="finite"):
        dirichlet_approx(math.inf, 10)
    with pytest.raises(ValueError, match="positive integer"):
        dirichlet_approx(0.3, 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(-10.0, 10.0, allow_nan=False), st.integers(1, 1000))
def test_dirichlet_guarantee(r, lam):
    approx = dirichlet_approx(r, lam)
    assert 1 <= approx.q <= lam
    assert abs(r - approx.a / approx.q) <= 1.0 / (lam * approx.q)
    if approx.a == 0:
        assert approx.q == 1
    else:
        assert math.gcd(abs(approx.a), approx.q) == 1


# ------------------------------------------------------------------- the bound

def test_bound_trivial_instance():
    # N = q = 1 collapses the bracket to 3
    assert weyl_bound(1, 1, 3, 0.01) == pytest.approx(3.0 ** 0.25, rel=1e-14)


def test_bound_degree_one_has_no_root():
    n, q, delta = 100, 10, 0.01
    expected = n ** 1.01 * (1 / q + 1 / n + q / n)
    assert weyl_bound(n, q, 1, delta) == pytest.approx(expected, rel=1e-13)


def test_bound_matches_high_precision_evaluation():
    import mpmath

    with mpmath.workdps(50):
        n, q, d, delta = 1024, 32, 3, 0.01
        nn = mpmath.mpf(n)
        bracket = 1 / mpmath.mpf(q) + 1 / nn + q * nn ** (-d)
        expected = float(nn ** (1 + mpmath.mpf("0.01")) * bracket ** (mpmath.mpf(1) / 4))
    assert weyl_bound(1024, 32, 3, 0.01) == pytest.approx(expected, rel=1e-12)


def test_bound_validation():
    with pytest.raises(ValueError):
        weyl_bound(0, 1, 3, 0.01)
    with pytest.raises(ValueError):
        weyl_bound(10, 0, 3, 0.01)
    with pytest.raises(ValueError, match="degree"):
        weyl_bound(10, 1, 0, 0.01)
    with pytest.raises(ValueError, match="delta"):
        weyl_bound(10, 1, 3, 0.0)


# ------------------------------------------------------------------------ scan

def test_scan_is_deterministic_and_order_independent():
    a = weyl_scan(2, [32, 64], trials=3, seed=5)
    b = weyl_scan(2, [32, 64], trials=3, seed=5)
    assert a.rows == b.rows
    assert a.max_ratio == b.max_ratio
    # rng is keyed per (N, trial), so listing the sizes backwards only permutes
    c = weyl_scan(2, [64, 32], trials=3, seed=5)
    assert sorted(a.rows) == sorted(c.rows)


def test_scan_small_cubic_run():
    report = weyl_scan(3, [64, 128], trials=10, delta=0.01, seed=0)
    assert len(report.rows) == 20
    assert report.dirichlet_ok
    assert 0.0 < report.max_ratio <= 10.0
    for n, trial, q, s, bound, ratio in report.rows:
        assert 1 <= q <= n
        assert s <= n + 1e-9
        assert ratio == pytest.approx(s / bound, rel=1e-12)


def test_scan_validation():
    with pytest.raises(ValueError, match="trials"):
        weyl_scan(3, [64], trials=0)
