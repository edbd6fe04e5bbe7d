"""Complete exponential sums, rational approximation, and the bound scan.

A Weyl instance is the sum S = sum_{m=1}^{N} e^{2 pi i h(m)} for a real
polynomial h of degree d.  The classical bound, valid whenever the leading
coefficient has a reduced rational approximation |omega_d - a/q| <= 1/q^2,
is

    |S| <= C * N^{1+delta} * (1/q + 1/N + q/N^d)^{1 / 2^{d-1}}.

dirichlet_approx produces such approximations with denominator q <= Lambda
and error at most 1/(Lambda q); weyl_scan draws random instances, pairs each
with its approximation, and records the ratio |S| / bound.  It sums a
chunk of trials of one N in one array pass, with the bits of one weyl_sum
per instance, and draws a batch of trials with the bits of
default_rng([seed, N, trial]) in one pass of _keyed_uniforms.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._work import check_work

__all__ = ["WeylInstance", "RationalApprox", "WeylScanReport", "weyl_sum", "dirichlet_approx",
           "weyl_bound", "weyl_scan"]

_CHUNK_POINTS = 2 ** 14  # trials x N per array pass of weyl_scan
_DRAW_BATCH = 2 ** 11    # trials per pass of _keyed_uniforms
# the "weyl" work charges, in terms of a sum (about 2-20 ns each): a coefficient
# column's draw and sum passes of one N take about 80 us, and a row about 40 us
_COLUMN_TERMS, _ROW_TERMS = 10000, 4000

# numpy's SeedSequence hash constants and PCG64 multiplier (high, low words)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_PCG_MULT = (2549297995355413924, 4865540595714422341)


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


def _weyl_sums(coeffs: np.ndarray, n_terms: int) -> np.ndarray:
    """S of each row of coeffs (B, d + 1), lowest coefficient first: Horner
    in place in np.polyval's order, and h - floor(h), which is np.mod(h, 1.0)
    for finite h."""
    m = np.arange(1, n_terms + 1, dtype=float)
    h = np.empty((coeffs.shape[0], n_terms))
    h[:] = coeffs[:, -1:]
    for c in coeffs[:, -2::-1].T:
        h *= m
        h += c[:, None]
    h -= np.floor(h)
    phases = 2j * np.pi * h
    return np.sum(np.exp(phases, out=phases), axis=1)


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
    in first..stop-1 (seed, n >= 0; stop <= 2^32): SeedSequence's pool mixing and
    generate_state, PCG64's seeding and XSL-RR outputs, over arrays of all the trials."""
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
    """S = sum_{m=1}^{N} e^{2 pi i h(m)}."""
    return complex(_weyl_sums(np.array([instance.coeffs], dtype=float), instance.n_terms)[0])


@dataclass(frozen=True)
class RationalApprox:
    a: int
    q: int

    @property
    def value(self) -> float:
        return self.a / self.q


def dirichlet_approx(r: float, lam: int) -> RationalApprox:
    """Reduced a/q with 1 <= q <= lam and |r - a/q| <= 1/(lam*q).

    A float is an exact binary fraction, so its continued fraction is run
    in integer arithmetic; the answer is the last convergent a/q with
    q <= lam.  Convergents are reduced, and when the next one has
    q' > lam, |r - a/q| < 1/(q*q') < 1/(lam*q).
    """
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
    """Random instances per N; records |S| against the bound.

    The leading coefficient is approximated by a/q with denominator cap
    Lambda = N, which keeps |omega_d - a/q| <= 1/(Nq) <= 1/q^2 as the bound
    requires.  Above the work ceiling (see dgzk._work), or at a degree
    whose phases h(m) <= 2 N^degree may reach 2^53, where h - floor(h)
    is 0, it raises ValueError before it draws.
    """
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
    if sizes and degree * math.log2(max(sizes)) >= 52:
        raise ValueError(f"degree {degree} at N = {max(sizes)}: the phases, up to "
                         f"2 N^{degree}, reach 2^53, where float64 keeps no fraction")
    rows = []
    max_ratio = 0.0
    dirichlet_ok = True
    for n in sizes:
        chunk = max(1, _CHUNK_POINTS // n)
        drawn = np.empty((0, degree + 1))
        for first in range(0, trials, chunk):
            block = range(first, min(first + chunk, trials))
            # keyed per (N, trial) so results do not depend on loop order
            while len(drawn) < len(block):
                start = first + len(drawn)
                drawn = np.concatenate([drawn, _keyed_uniforms(
                    seed, n, start, min(start + _DRAW_BATCH, trials), degree + 1)])
            coeffs, drawn = drawn[:len(block)], drawn[len(block):]
            sums = _weyl_sums(coeffs, n).tolist()
            for trial, lead, total in zip(block, coeffs[:, -1].tolist(), sums):
                approx = dirichlet_approx(lead, n)
                # |r - a/q| <= 1/(N q) in exact arithmetic; floats misjudge it from N ~ 2^25
                num, den = lead.as_integer_ratio()
                if abs(num * approx.q - approx.a * den) * n > den:
                    dirichlet_ok = False
                s = abs(total)  # Python's abs: np.abs can differ in the last bit
                bound = weyl_bound(n, approx.q, degree, delta)
                ratio = s / bound
                max_ratio = max(max_ratio, ratio)
                rows.append((n, trial, approx.q, s, bound, ratio))
    return WeylScanReport(degree=degree, delta=delta, seed=seed, rows=rows,
                          max_ratio=max_ratio, dirichlet_ok=dirichlet_ok)
