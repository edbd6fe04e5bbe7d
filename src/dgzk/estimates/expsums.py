"""Complete exponential sums, rational approximation, and the bound scan.

A Weyl instance is the sum S = sum_{m=1}^{N} e^{2 pi i h(m)} for a real
polynomial h of degree d.  The classical bound, valid whenever the leading
coefficient has a reduced rational approximation |omega_d - a/q| <= 1/q^2,
is

    |S| <= C * N^{1+delta} * (1/q + 1/N + q/N^d)^{1 / 2^{d-1}}.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._work import check_work

__all__ = ["WeylInstance", "RationalApprox", "WeylScanReport", "weyl_sum", "dirichlet_approx",
           "weyl_bound", "weyl_scan"]

_CHUNK_POINTS = 2 ** 13  # terms per block of _weyl_sums: trials x N, or part of one row
_DRAW_BATCH = 2 ** 11    # trials per pass of _keyed_uniforms
# the "weyl" work charges, in terms of a sum (about 2-7 ns each): a coefficient
# column's draw and sum passes of one N take about 80 us, and a row about 8 us
_COLUMN_TERMS, _ROW_TERMS = 20000, 2000

# numpy's SeedSequence hash constants and PCG64 multiplier (high, low words)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_PCG_MULT = (2549297995355413924, 4865540595714422341)
# e^{2 pi i j / 4096} as rows cos, sin (64 KB, read-only), and theta per unit of a word
_TABLE = np.array([f(np.arange(4096) * (2 * np.pi / 4096)) for f in (np.cos, np.sin)])
_TABLE.flags.writeable = False
_TURN = 2 * math.pi / 2.0 ** 64


@dataclass(frozen=True)
class WeylInstance:
    """Polynomial phase h(m) = coeffs[0] + coeffs[1]*m + ... and range 1..N."""

    coeffs: tuple
    n_terms: int

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("need at least degree 1 (two coefficients)")
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {self.n_terms}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _weyl_sums(words: np.ndarray, n_terms: int) -> np.ndarray:
    """S of each row of words (B, d + 1), the uint64 frac(c_i) 2^64, lowest first, over m
    in blocks of _CHUNK_POINTS: Horner modulo 2^64 gives K = frac(h(m)) 2^64 exactly, and
    e^{2 pi i K / 2^64} is _TABLE[:, K >> 52] times cos (to theta^4) and sin (to theta^5)
    of theta = 2 pi (K mod 2^52) / 2^64 < 2 pi / 2^12."""
    total = np.zeros((2, len(words)))
    for start in range(0, n_terms, _CHUNK_POINTS):
        m = np.arange(start + 1, min(start + _CHUNK_POINTS, n_terms) + 1, dtype=np.uint64)
        k = words[:, -1:]
        for word in words[:, -2::-1].T:
            k = k * m + word[:, None]
        cos, sin = np.take(_TABLE, (k >> 52).view(np.int64), axis=1)
        k &= 2 ** 52 - 1
        v = k.astype(float)  # theta / _TURN
        w = v * v
        s = w * (_TURN ** 4 / 120)  # sin(theta) / _TURN
        s -= _TURN ** 2 / 6
        s *= w
        s += 1.0
        s *= v
        np.multiply(w, _TURN ** 4 / 24, out=v)  # cos(theta)
        v -= _TURN ** 2 / 2
        v *= w
        v += 1.0
        total += [np.einsum("ij,ij->i", cos, v) - _TURN * np.einsum("ij,ij->i", sin, s),
                  _TURN * np.einsum("ij,ij->i", cos, s) + np.einsum("ij,ij->i", sin, v)]
    return total[0] + 1j * total[1]


def _hasher(const: int, mult: int):
    """SeedSequence's hash of uint32 arrays; each call advances its constant."""
    def hashed(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const
        return value ^ value >> 16
    return hashed


def _keyed_uniforms(seed: int, n: int, first: int, stop: int, size: int) -> np.ndarray:
    """Row t - first is default_rng([seed, n, t]).uniform(0.0, 1.0, size) bit for bit, for t
    in first..stop-1 (seed, n >= 0; stop <= 2^32), computed over arrays of all the trials."""
    # an int's little-endian 32-bit words, 0 being one word; the pool holds four
    entropy = [np.full(stop - first, int(w) >> s & _M32, np.uint32)
               for w in (seed, n) for s in range(0, max(int(w).bit_length(), 1), 32)]
    entropy.append(np.arange(first, stop, dtype=np.uint32))
    entropy += [np.zeros(stop - first, np.uint32)] * (4 - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(len(entropy)):  # each pool word, then each word past the pool
        for dst in range(4):
            if dst != src:
                r = pool[dst] * _MIX_L - hashmix(pool[src] if src < 4 else entropy[src]) * _MIX_R
                pool[dst] = r ^ r >> 16
    half = [word.astype(np.uint64) for word in map(_hasher(_INIT_B, _MULT_B), pool * 2)]
    state_hi, state_lo, seq_hi, seq_lo = (half[i] | half[i + 1] << 32 for i in range(0, 8, 2))
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    lo = inc[1] + state_lo  # a step from state 0 gives inc; add the state
    hi = inc[0] + state_hi + (lo < state_lo)
    (m_hi, m_lo), out = _PCG_MULT, np.empty((stop - first, size + 1))
    for column in out.T:  # (hi, lo) * _PCG_MULT + inc modulo 2^128 in 32-bit limbs, XSL-RR
        a0, a1 = lo & _M32, lo >> 32
        p00, p01, p10 = a0 * (m_lo & _M32), a0 * (m_lo >> 32), a1 * (m_lo & _M32)
        mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
        hi = (hi * m_lo + lo * m_hi + a1 * (m_lo >> 32) + (p01 >> 32) + (p10 >> 32)
              + (mid >> 32) + inc[0])
        lo = lo * m_lo + inc[1]
        hi += lo < inc[1]
        x, rot = hi ^ lo, hi >> 58
        column[:] = ((x >> rot | x << (-rot & 63)) >> 11) * 2.0 ** -53
    return out[:, 1:]  # the first step ends the seeding: its output is not drawn


def weyl_sum(instance: WeylInstance) -> complex:
    """S = sum_{m=1}^{N} e^{2 pi i h(m)}; ValueError unless every coefficient is a
    finite multiple of 2^-64 (as every float of magnitude at least 2^-12 is)."""
    ratios = [(int(c.numerator), int(c.denominator)) if isinstance(c, numbers.Rational)
              else c.as_integer_ratio() if math.isfinite(c) else (0, 0) for c in instance.coeffs]
    if any(not den or 2 ** 64 % den for _, den in ratios):
        raise ValueError(f"coefficients must be finite multiples of 2^-64, got {instance.coeffs}")
    words = [[num * (2 ** 64 // den) % 2 ** 64 for num, den in ratios]]
    return complex(_weyl_sums(np.array(words, dtype=np.uint64), instance.n_terms)[0])


@dataclass(frozen=True)
class RationalApprox:
    a: int
    q: int

    @property
    def value(self) -> float:
        return self.a / self.q


def dirichlet_approx(r: float, lam: int) -> RationalApprox:
    """Reduced a/q with 1 <= q <= lam and |r - a/q| <= 1/(lam*q): the last
    convergent with q <= lam of r's continued fraction, in integer arithmetic."""
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    if lam < 1 or int(lam) != lam:
        raise ValueError(f"lam must be a positive integer, got {lam!r}")
    num, den = float(r).as_integer_ratio()
    p_prev, q_prev, p, q = 0, 1, 1, 0
    while den:
        a, num, den = num // den, den, num % den
        if a * q + q_prev > lam:
            break
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
    return RationalApprox(a=p, q=q)


def _dirichlet_rows(num: np.ndarray, lam: int) -> np.ndarray:
    """(a, q) of dirichlet_approx(k 2^-53, lam), as two arrays, for each int64 k in
    [0, 2^53) of num: its continued fraction, run on every row at once in int64."""
    den = np.full_like(num, 2 ** 53)
    prev, cur = np.zeros((2, 2, len(num)), dtype=np.int64)  # (p, q) of the last two convergents
    prev[1] = cur[0] = 1
    live = np.ones(len(num), dtype=bool)
    while live.any():
        a = np.floor_divide(num, den, out=np.zeros_like(num), where=live)
        # a q + q_prev <= lam, without forming a q (q = 0 only at the first term, where a = 0)
        live &= a <= (lam - prev[1]) // np.maximum(cur[1], 1)
        a *= live
        num, den = np.where(live, den, num), np.where(live, num % np.maximum(den, 1), den)
        prev, cur = np.where(live, cur, prev), np.where(live, a * cur + prev, cur)
        live &= den > 0
    return cur


def weyl_bound(n_terms: int, q: int, degree: int, delta: float) -> float:
    """N^{1+delta} * (1/q + 1/N + q * N^{-degree})^{1/2^{degree-1}}."""
    if n_terms < 1 or q < 1:
        raise ValueError("n_terms and q must be >= 1")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    n = float(n_terms)
    bracket = 1.0 / q + 1.0 / n + q * n ** (-degree)
    return n ** (1.0 + delta) * bracket ** (0.5 ** (degree - 1))


@dataclass
class WeylScanReport:
    degree: int
    delta: float
    seed: int
    rows: list            # (N, trial, q, |S|, bound, ratio)
    max_ratio: float
    dirichlet_ok: bool    # every drawn approximation satisfied its error bound


def weyl_scan(degree: int, n_values: Sequence[int], trials: int, delta: float = 0.01,
              seed: int = 0) -> WeylScanReport:
    """Random instances per N; records |S| against the bound, whose a/q for
    the leading coefficient has q <= Lambda = N (so |omega_d - a/q| <= 1/q^2).
    Instance (N, trial) takes the coefficients of default_rng([seed, N, trial])
    and has the bits of one weyl_sum; each N's rows, computed as arrays, have
    the bits of rows built from dirichlet_approx, weyl_bound and Python's abs.
    Above the work ceiling (see dgzk._work) it raises ValueError before it
    draws."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    sizes = [int(n) for n in n_values]
    if sizes and min(sizes) < 1:
        raise ValueError(f"n_terms must be >= 1, got {min(sizes)}")
    check_work("weyl", (degree + 1) * sum(trials * n + _COLUMN_TERMS for n in sizes)
               + _ROW_TERMS * trials * len(sizes))
    weyl_bound(1, 1, degree, delta)  # the bound's own checks of degree and delta
    rows = []
    max_ratio = 0.0
    dirichlet_ok = True
    for n in sizes:
        chunk = max(1, _CHUNK_POINTS // n)
        for first in range(0, trials, _DRAW_BATCH):
            # keyed per (N, trial) so results do not depend on loop order
            drawn = _keyed_uniforms(seed, n, first, min(first + _DRAW_BATCH, trials), degree + 1)
            words = np.ldexp(drawn, 53).astype(np.uint64) << 11  # k 2^-53 -> k 2^11
            sums = np.concatenate([_weyl_sums(words[start:start + chunk], n)
                                   for start in range(0, len(drawn), chunk)])
            lead = (words[:, -1] >> 11).astype(np.int64)  # the leading coefficient times 2^53
            a, q = _dirichlet_rows(lead, n)
            # |r - a/q| <= 1/(N q) in exact arithmetic; floats misjudge it from N ~ 2^25
            dirichlet_ok &= all(abs(k * qq - aa * 2 ** 53) * n <= 2 ** 53
                                for k, aa, qq in zip(lead.tolist(), a.tolist(), q.tolist()))
            s = np.hypot(sums.real, sums.imag)  # libm's hypot, as Python's abs; np.abs can differ
            distinct, at = np.unique(q, return_inverse=True)
            bound = np.array([weyl_bound(n, qq, degree, delta) for qq in distinct.tolist()])[at]
            ratio = s / bound
            max_ratio = max(max_ratio, float(ratio.max()))
            rows += zip([n] * len(drawn), range(first, trials), q.tolist(), s.tolist(),
                        bound.tolist(), ratio.tolist())
    return WeylScanReport(degree=degree, delta=delta, seed=seed, rows=rows,
                          max_ratio=max_ratio, dirichlet_ok=dirichlet_ok)
