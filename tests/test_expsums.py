"""Complete exponential sums: closed forms, exact-arithmetic oracles, the
rational approximation step, and the bound scan."""
import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgzk import _work
from dgzk.estimates import expsums
from dgzk.estimates.expsums import (
    RationalApprox,
    WeylInstance,
    dirichlet_approx,
    weyl_bound,
    _dirichlet_rows,
    _keyed_uniforms,
    _weyl_sums,
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


def test_weyl_sum_takes_finite_multiples_of_2_to_the_minus_64_only():
    # inf and nan gave NaN sums; 2^-70 and 1/3 are finite but off the 2^-64 lattice
    for bad in (math.inf, -math.inf, math.nan, 2.0**-70, Fraction(1, 3)):
        with pytest.raises(ValueError, match="finite multiples of 2\\^-64"):
            weyl_sum(WeylInstance((0.0, bad), 8))
    # -2^-60 - floor(-2^-60) rounds to 1.0 in float, whose word 2^64 overflows uint64
    for coeffs in ((0.0, -(2.0**-60)), (2.0**-64, 3, Fraction(5, 2**64)), (-7.25, 2.0**40),
                   (np.int64(-3), np.float64(0.375), 10**400)):
        s = weyl_sum(WeylInstance(coeffs, 100))
        assert abs(s - _oracle_sum(coeffs, 100)) <= 1e-12 * 100


def test_quintic_sums_match_a_30_digit_oracle():
    # at d = 5, N = 1024 the float phases h - floor(h) put |S| off by up to
    # 7.2 times its value; exact phases leave only the exponential's rounding
    import mpmath

    n = 1024
    for seed in range(4):
        coeffs = tuple(np.random.default_rng([seed, n]).uniform(0.0, 1.0, size=6))
        with mpmath.workdps(30):
            exact = mpmath.fsum(mpmath.expjpi(mpmath.mpf(k) / 2**63) for k in _exact_phases(coeffs, n))
        assert abs(weyl_sum(WeylInstance(coeffs, n)) - complex(exact)) <= 1e-12 * n


def test_a_long_sum_runs_in_bounded_memory():
    # a row is summed in blocks of _CHUNK_POINTS terms; whole, 2^22 terms took
    # three arrays of 32 to 64 MB
    instance = WeylInstance((0.0, 0.25, 2.0**-20), 2**22)
    tracemalloc.start()
    try:
        total = weyl_sum(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert abs(total) <= 2**22


# ------------------------------------------------------- rational approximation

def test_dirichlet_examples():
    assert dirichlet_approx(0.3, 10) == RationalApprox(3, 10)
    assert dirichlet_approx(0.5, 2) == RationalApprox(1, 2)
    assert dirichlet_approx(math.sqrt(2.0), 5) == RationalApprox(7, 5)
    assert dirichlet_approx(0.0, 7) == RationalApprox(0, 1)
    # near-rational r: the answer is the convergent 3/19, not some other
    # admissible pair such as 4/25
    assert dirichlet_approx(7 / 44, 41) == RationalApprox(3, 19)


def test_dirichlet_validation():
    with pytest.raises(ValueError, match="finite"):
        dirichlet_approx(math.inf, 10)
    with pytest.raises(ValueError, match="positive integer"):
        dirichlet_approx(0.3, 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(-10.0, 10.0, allow_nan=False), st.integers(1, 2**60))
def test_dirichlet_guarantee(r, lam):
    approx = dirichlet_approx(r, lam)
    assert 1 <= approx.q <= lam
    # exact: at lam near 2^60 the bound is far below the spacing of floats
    assert abs(Fraction(r) - Fraction(approx.a, approx.q)) <= Fraction(1, lam * approx.q)
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
    # N ** (1 + delta) overflowed at delta = 1e300
    for delta in (0.0, 1e300, math.nan):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\]"):
            weyl_bound(64, 1, 3, delta)


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


def test_scan_decides_the_dirichlet_bound_exactly(monkeypatch):
    # seed 0 draws at degree 1, N = 2^28, trial 11, an r whose approximation
    # meets |r - a/q| <= 1/(N q) in exact arithmetic while the float
    # comparison says it fails; the sums are stubbed, since 2^28 terms play
    # no part in the approximation, and the work ceiling those terms exceed
    # is lifted
    n, trial = 2**28, 11
    r = np.random.default_rng([0, n, trial]).uniform(0.0, 1.0, size=2)[-1]
    approx = dirichlet_approx(r, n)
    assert abs(Fraction(r) - Fraction(approx.a, approx.q)) <= Fraction(1, n * approx.q)
    assert abs(r - approx.value) > 1.0 / (n * approx.q)
    monkeypatch.setattr(expsums, "_weyl_sums",
                        lambda coeffs, n_terms: np.zeros(len(coeffs), dtype=complex))
    monkeypatch.setitem(_work.MAX_WORK, "weyl", math.inf)
    assert weyl_scan(1, [n], trials=trial + 1, seed=0).dirichlet_ok


def _reference_scan(degree, n_values, trials, delta, seed):
    """(rows, dirichlet_ok) of weyl_scan built row by row from the public
    weyl_sum, dirichlet_approx and weyl_bound, with Python's abs."""
    rows, ok = [], True
    for n in n_values:
        for trial in range(trials):
            coeffs = np.random.default_rng([seed, n, trial]).uniform(0.0, 1.0, degree + 1).tolist()
            approx = dirichlet_approx(coeffs[-1], n)
            num, den = coeffs[-1].as_integer_ratio()
            ok = ok and abs(num * approx.q - approx.a * den) * n <= den
            s = abs(weyl_sum(WeylInstance(tuple(coeffs), n)))
            bound = weyl_bound(n, approx.q, degree, delta)
            rows.append((n, trial, approx.q, s, bound, s / bound))
    return rows, ok


def test_scan_rows_equal_the_per_row_public_reference():
    """Rows, types included, max_ratio and dirichlet_ok are those of the
    per-row reference, from N = 1 (a single term) to N = 2^20."""
    n_values, trials = [1, 2, 7, 64, 1000, 2**20], 3
    report = weyl_scan(3, n_values, trials=trials, delta=0.05, seed=8)
    rows, ok = _reference_scan(3, n_values, trials, 0.05, 8)
    assert report.rows == rows
    assert [tuple(map(type, row)) for row in report.rows] == [(int, int, int) + (float,) * 3] * 18
    assert report.dirichlet_ok is ok is True
    assert report.max_ratio == max(row[5] for row in rows)


@settings(max_examples=300, deadline=None)
@given(ks=st.lists(st.one_of(st.integers(0, 2**53 - 1), st.sampled_from([0, 1, 2**52, 2**53 - 1])),
                   min_size=1, max_size=20),
       lam=st.one_of(st.integers(1, 64), st.integers(1, 2**62)))
def test_continued_fraction_rows_match_dirichlet_approx(ks, lam):
    """_dirichlet_rows gives, row by row, the a and q of dirichlet_approx(k 2^-53, lam)."""
    a, q = _dirichlet_rows(np.array(ks, dtype=np.int64), lam)
    want = [dirichlet_approx(k * 2.0**-53, lam) for k in ks]
    assert a.tolist() == [r.a for r in want] and q.tolist() == [r.q for r in want]


def test_scan_validation():
    with pytest.raises(ValueError, match="trials"):
        weyl_scan(3, [64], trials=0)
    with pytest.raises(ValueError, match="n_terms"):
        weyl_scan(3, [64, 0], trials=1)


def test_scan_refuses_a_delta_past_its_domain():
    # N ** (1 + delta) overflows at delta = 1e300
    for delta in (1e300, 0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\]"):
            weyl_scan(3, [64], trials=1, delta=delta)


def test_scan_rows_stay_exact_past_the_float_phase_limit():
    # h(m) <= 2 N^degree reaches 2^53 at (13, 16) and (9, 64), where float
    # phases kept no fraction and these scans were refused; past 2^1024 (degree
    # 1000 at N = 64) float rows were NaN.  Integer phases modulo 2^64 are exact
    # at any degree.
    for degree, n in ((13, 16), (9, 64), (1000, 64)):
        report = weyl_scan(degree, [8, n], trials=2, seed=1)
        assert all(math.isfinite(value) for row in report.rows for value in row[3:])
        for size, trial, _, s, _, _ in report.rows:
            coeffs = tuple(np.random.default_rng([1, size, trial]).uniform(0.0, 1.0, degree + 1))
            assert abs(s - abs(_oracle_sum(coeffs, size))) <= 1e-12 * size


def test_scan_refuses_work_above_the_ceiling_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the work ceiling")

    monkeypatch.setattr(expsums.np.random, "default_rng", no_draws)
    monkeypatch.setattr(expsums, "_keyed_uniforms", no_draws)
    with pytest.raises(ValueError, match=r"trials \* sum\(N\)"):
        weyl_scan(3, [64, 256, 1024], trials=10**8)


# ------------------------------------------------------------- keyed draws

@settings(max_examples=150, deadline=None)
@given(seed=st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
       n=st.one_of(st.just(0), st.integers(1, 5000), st.integers(0, 2**40)),
       first=st.one_of(st.integers(0, 100), st.integers(0, 2**32 - 1), st.just(2**32 - 1)),
       count=st.integers(1, 40), size=st.integers(1, 6))
def test_keyed_draws_are_those_of_default_rng(seed, n, first, count, size):
    """_keyed_uniforms reimplements SeedSequence and PCG64 over arrays:
    each row is default_rng([seed, n, trial]).uniform(0.0, 1.0, size), bit
    for bit, for one- and two-word seeds and n, up to trial 2^32 - 1."""
    first = min(first, 2**32 - count)
    got = _keyed_uniforms(seed, n, first, first + count, size)
    want = np.array([np.random.default_rng([seed, n, t]).uniform(0.0, 1.0, size=size)
                     for t in range(first, first + count)])
    assert got.shape == want.shape and np.array_equal(got, want)


def test_scan_rows_do_not_depend_on_the_draw_batch(monkeypatch):
    """Draw batches smaller and larger than the sum chunks give the same rows."""
    report = weyl_scan(2, [3, 700], trials=40, seed=11)
    for batch in (1, 7, 4096):
        monkeypatch.setattr(expsums, "_DRAW_BATCH", batch)
        assert weyl_scan(2, [3, 700], trials=40, seed=11).rows == report.rows


# ------------------------------------------------------------- batched sums

def _exact_phases(coeffs, n):
    """frac(h(m)) 2^64 for m = 1..n as Python ints: Horner on the exact words
    Fraction(c) 2^64 (each coefficient a multiple of 2^-64), modulo 2^64."""
    words = [Fraction(c.item() if isinstance(c, np.generic) else c) * 2**64 for c in coeffs]
    assert all(w.denominator == 1 for w in words)
    k = 0
    m = np.arange(1, n + 1).astype(object)
    for w in reversed(words):
        k = (k * m + int(w)) % 2**64
    return list(k)


def _oracle_sum(coeffs, n):
    """S from exact phases; e^{2 pi i x} of each phase x rounded once to a
    float, summed by fsum: within about 1e-15 per term of the exact S."""
    x = np.array(_exact_phases(coeffs, n), dtype=float) * 2.0**-64
    terms = np.exp(2j * np.pi * x)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(1, 5),
       n=st.one_of(st.integers(1, 8), st.sampled_from([15, 16, 17, 127, 128, 129, 1024]),
                   st.integers(1, 3000)),
       rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0, 10, 20]))
def test_batched_sums_equal_the_per_instance_formula(degree, n, rows, seed, scale):
    """_weyl_sums gives each row's sum within 1e-12 N of the exact-phase
    oracle, for signed coefficients k 2^(scale - 53), |k| < 2^53."""
    ks = np.random.default_rng(seed).integers(-2**53, 2**53, size=(rows, degree + 1))
    coeffs = np.ldexp(ks.astype(float), scale - 53)
    words = np.array([[int(Fraction(c) * 2**64) % 2**64 for c in row] for row in coeffs],
                     dtype=np.uint64)
    got = _weyl_sums(words, n)
    for total, row in zip(got, coeffs):
        assert abs(total - _oracle_sum(tuple(row), n)) <= 1e-12 * n


def test_scan_rows_equal_per_instance_sums_across_chunk_edges(monkeypatch):
    """The scan takes its sums in chunks of trials, one trial in blocks past
    _CHUNK_POINTS terms, and draws in batches that here cross the chunks:
    every |S| is that of one weyl_sum, bit for bit, and within 1e-12 N of
    the exact-phase oracle."""
    monkeypatch.setattr(expsums, "_DRAW_BATCH", 7)
    n_values, trials = [5, 4096, 70000], 20
    report = weyl_scan(2, n_values, trials=trials, seed=3)
    assert [row[:2] for row in report.rows] == [(n, t) for n in n_values for t in range(trials)]
    for n, trial, _, s, _, _ in report.rows:
        coeffs = tuple(np.random.default_rng([3, n, trial]).uniform(0.0, 1.0, size=3))
        assert s == abs(weyl_sum(WeylInstance(coeffs, n)))
        assert abs(s - abs(_oracle_sum(coeffs, n))) <= 1e-12 * n
