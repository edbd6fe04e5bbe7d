"""Complete exponential sums, rational approximation, and the bound scan.

A Weyl instance is the sum S = sum_{m=1}^{N} e^{2 pi i h(m)} for a real
polynomial h of degree d.  The classical bound, valid whenever the leading
coefficient has a reduced rational approximation |omega_d - a/q| <= 1/q^2,
is

    |S| <= C * N^{1+delta} * (1/q + 1/N + q/N^d)^{1 / 2^{d-1}}.

dirichlet_approx produces such approximations with denominator q <= Lambda
and error at most 1/(Lambda q); weyl_scan draws random instances, pairs each
with its approximation, and records the ratio |S| / bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "WeylInstance",
    "RationalApprox",
    "WeylScanReport",
    "weyl_sum",
    "dirichlet_approx",
    "weyl_bound",
    "weyl_scan",
]


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


def weyl_sum(instance: WeylInstance) -> complex:
    """S = sum_{m=1}^{N} e^{2 pi i h(m)}."""
    m = np.arange(1, instance.n_terms + 1, dtype=float)
    # Horner evaluation, highest coefficient first
    h = np.polyval(list(reversed(instance.coeffs)), m)
    terms = np.exp(2j * np.pi * np.mod(h, 1.0))
    return complex(np.sum(terms))


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
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
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
    requires.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    rows = []
    max_ratio = 0.0
    dirichlet_ok = True
    for n in n_values:
        lam = int(n)
        for trial in range(trials):
            # keyed per (N, trial) so results do not depend on loop order
            rng = np.random.default_rng([seed, int(n), trial])
            coeffs = tuple(rng.uniform(0.0, 1.0, size=degree + 1))
            approx = dirichlet_approx(coeffs[-1], lam)
            # |r - a/q| <= 1/(lam q) in exact arithmetic; floats misjudge it from lam ~ 2^25
            num, den = float(coeffs[-1]).as_integer_ratio()
            if abs(num * approx.q - approx.a * den) * lam > den:
                dirichlet_ok = False
            s = abs(weyl_sum(WeylInstance(coeffs=coeffs, n_terms=int(n))))
            bound = weyl_bound(int(n), approx.q, degree, delta)
            ratio = s / bound
            max_ratio = max(max_ratio, ratio)
            rows.append((int(n), trial, approx.q, s, bound, ratio))
    return WeylScanReport(degree=degree, delta=delta, seed=seed, rows=rows,
                          max_ratio=max_ratio, dirichlet_ok=dirichlet_ok)
