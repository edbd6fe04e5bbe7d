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
from typing import Callable, Sequence

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


def _convergents(r: float, q_cap: int):
    """Continued-fraction convergents p/q of r with q <= q_cap."""
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(math.floor(r)), 1
    yield p_cur, q_cur
    x = r - math.floor(r)
    for _ in range(64):
        if x <= 0:
            return
        x = 1.0 / x
        if not math.isfinite(x):
            # r was within a denormal of a rational; the last convergent is it
            return
        a = int(math.floor(x))
        x -= a
        p_next = a * p_cur + p_prev
        q_next = a * q_cur + q_prev
        if q_next > q_cap:
            return
        yield p_next, q_next
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_next, q_next


def dirichlet_approx(r: float, lam: int) -> RationalApprox:
    """Reduced a/q with 1 <= q <= lam and |r - a/q| <= 1/(lam*q).

    Continued-fraction convergents provide the pair; an exhaustive scan
    over q is kept as a fallback against floating-point corner cases.
    """
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    if lam < 1 or int(lam) != lam:
        raise ValueError(f"lam must be a positive integer, got {lam!r}")
    lam = int(lam)

    best = None
    for p, q in _convergents(r, lam):
        if abs(r - p / q) <= 1.0 / (lam * q):
            best = (p, q)
    if best is None:
        # fall back to the direct search guaranteed by the pigeonhole bound
        for q in range(1, lam + 1):
            a = round(r * q)
            if abs(r - a / q) <= 1.0 / (lam * q):
                g = math.gcd(abs(int(a)), q)
                best = (int(a) // g, q // g)
                break
    if best is None:
        raise ValueError(f"no admissible approximation found for r={r}, lam={lam}")
    a, q = best
    g = math.gcd(abs(a), q)
    if g > 1:
        a, q = a // g, q // g
    return RationalApprox(a=a, q=q)


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
              lambda_rule: Callable[[int], int] = None, seed: int = 0) -> WeylScanReport:
    """Random instances per N; records |S| against the bound.

    lambda_rule maps N to the denominator cap Lambda used for the rational
    approximation of the leading coefficient (default: Lambda = N, which
    keeps |omega_d - a/q| <= 1/(Nq) <= 1/q^2 as the bound requires).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if lambda_rule is None:
        lambda_rule = lambda n: n
    rows = []
    max_ratio = 0.0
    dirichlet_ok = True
    for n in n_values:
        lam = int(lambda_rule(int(n)))
        for trial in range(trials):
            # keyed per (N, trial) so results do not depend on loop order
            rng = np.random.default_rng([seed, int(n), trial])
            coeffs = tuple(rng.uniform(0.0, 1.0, size=degree + 1))
            approx = dirichlet_approx(coeffs[-1], lam)
            if abs(coeffs[-1] - approx.value) > 1.0 / (lam * approx.q):
                dirichlet_ok = False
            s = abs(weyl_sum(WeylInstance(coeffs=coeffs, n_terms=int(n))))
            bound = weyl_bound(int(n), approx.q, degree, delta)
            ratio = s / bound
            max_ratio = max(max_ratio, ratio)
            rows.append((int(n), trial, approx.q, s, bound, ratio))
    return WeylScanReport(degree=degree, delta=delta, seed=seed, rows=rows,
                          max_ratio=max_ratio, dirichlet_ok=dirichlet_ok)
