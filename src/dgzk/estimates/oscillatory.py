"""Oscillatory integrals against the shell cutoff, and the stationary-phase
style derivative test.

oscillatory_integral computes

    I = integral of psi1(eta/2^k)^2 * exp(i*(y' eta + sigma t m |eta|^{1+beta}))

over the cutoff support |eta| in [2^{k-2}, 2^{k+2}], by adaptive composite
Gauss-Legendre quadrature, and pairs it with the reference decay value
2^{(1-beta)k/2} / sqrt(|m t|).

vandercorput_check compares |integral of amplitude * e^{i phase}| against
lambda^{-1/p} * (sup|amplitude| + L1 norm of amplitude'), the classical
bound; the growing exponent +1/p, also found in statements, is reported too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .._work import check_work
from ..errors import CertificateViolationError
from .bump import psi1

__all__ = ["OscillatoryIntegralResult", "VanDerCorputReport", "VdcScanReport",
           "complex_oscillatory_quad", "oscillatory_integral", "vandercorput_check", "vdc_scan"]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

MAX_QUADRATURE_NODES = 2 ** 21
# starting node counts and tolerances of _doubling_quad for each caller
INTEGRAL_START_NODES = 2048
INTEGRAL_TOL = 1e-8
VDC_START_NODES = 4096
VDC_TOL = 1e-9
VDC_CERTIFICATE_NODES = 256


def complex_oscillatory_quad(f: Callable[[np.ndarray], np.ndarray],
                             a: float, b: float, n_nodes: int) -> complex:
    """Composite 32-point Gauss-Legendre quadrature of a complex integrand.

    n_nodes is the total node budget; it is rounded down to a whole number
    of panels (at least one).
    """
    if b <= a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    panels = max(1, int(n_nodes) // 32)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=complex).reshape(pts.shape)
    return complex(np.sum(half[:, None] * (_GL_WEIGHTS[None, :] * vals)))


def _doubling_quad(evaluate: Callable[[int], complex], n: int,
                   tol: float) -> Tuple[complex, bool, int]:
    """Evaluate with n, 2n, 4n, ... nodes until two successive values agree
    to tol (relative, floored at 1) or n exceeds MAX_QUADRATURE_NODES.

    Returns (last value, whether it converged, node count at exit).
    """
    prev = None
    value = 0.0 + 0.0j
    while n <= MAX_QUADRATURE_NODES:
        value = evaluate(n)
        if prev is not None and abs(value - prev) <= tol * max(1.0, abs(value)):
            return value, True, n
        prev = value
        n *= 2
    return value, False, n


@dataclass(frozen=True)
class OscillatoryIntegralResult:
    value: complex
    bound: Optional[float]   # None when m*t == 0 (no decay scale to compare)
    converged: bool
    nodes_used: int


def oscillatory_integral(y_prime: float, t: float, m: int, beta: float, k: int,
                         sign: int = 1) -> OscillatoryIntegralResult:
    """Shell-localized oscillatory integral with its reference decay value.

    Node counts double from INTEGRAL_START_NODES until two successive
    evaluations agree to INTEGRAL_TOL (relative, floored at 1), or the
    budget MAX_QUADRATURE_NODES is hit.
    """
    if k < 1:
        raise ValueError(f"shell index k must be >= 1, got {k}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")

    scale = 2.0 ** k
    coef = sign * t * m

    def integrand(eta):
        w = psi1(eta / scale)
        return w * w * np.exp(1j * (y_prime * eta + coef * np.abs(eta) ** (1.0 + beta)))

    lo, hi = scale / 4.0, scale * 4.0
    value, converged, n = _doubling_quad(
        lambda n: (complex_oscillatory_quad(integrand, -hi, -lo, n // 2)
                   + complex_oscillatory_quad(integrand, lo, hi, n // 2)),
        INTEGRAL_START_NODES, INTEGRAL_TOL)
    nodes_used = min(n, MAX_QUADRATURE_NODES)

    product = float(m) * float(t)
    if product == 0.0:
        bound = None
    else:
        bound = 2.0 ** (0.5 * (1.0 - beta) * k) / math.sqrt(abs(product))
    return OscillatoryIntegralResult(value=value, bound=bound,
                                     converged=converged, nodes_used=nodes_used)


@dataclass(frozen=True)
class VanDerCorputReport:
    lhs: float
    rhs: float             # lambda^{-1/p} * (sup|amp| + L1(amp'))
    rhs_alternate: float   # same with exponent +1/p, reported for comparison
    lam: float
    p: int
    converged: bool        # False: lhs is the last unconverged quadrature value

    @property
    def ratio(self) -> float:
        if self.lhs == 0.0:
            return 0.0
        return self.lhs / self.rhs


def vandercorput_check(phase: Callable, phase_deriv_p: Callable,
                       interval: Tuple[float, float], lam: float, p: int,
                       amplitude: Callable = None,
                       amplitude_deriv: Callable = None) -> VanDerCorputReport:
    """Compare |integral of amplitude*e^{i phase}| with the derivative bound.

    The caller certifies |phase_deriv_p| >= lam on the interval; the claim is
    spot-checked on VDC_CERTIFICATE_NODES equispaced nodes and a violation is
    an error, not a silent degradation.  The integral doubles its nodes from
    VDC_START_NODES until two evaluations agree to VDC_TOL, or reports
    converged=False (lhs is then noise) past MAX_QUADRATURE_NODES.
    amplitude defaults to 1 (then amplitude_deriv defaults to 0).
    """
    if p < 2:
        raise ValueError(f"derivative order p must be >= 2, got {p}")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    if amplitude is None:
        amplitude = lambda x: np.ones_like(np.asarray(x, dtype=float))
        if amplitude_deriv is None:
            amplitude_deriv = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if amplitude_deriv is None:
        raise ValueError("amplitude_deriv is required when amplitude is given")

    nodes = np.linspace(a, b, VDC_CERTIFICATE_NODES)
    certificate = np.abs(np.asarray(phase_deriv_p(nodes), dtype=float))
    bad = np.nonzero(certificate < lam)[0]
    if bad.size:
        i = int(bad[0])
        raise CertificateViolationError(
            f"|phase derivative of order {p}| = {certificate[i]:.6g} < lam = {lam:.6g} "
            f"at x = {nodes[i]:.6g}")

    def integrand(x):
        return np.asarray(amplitude(x), dtype=complex) * np.exp(1j * np.asarray(phase(x), dtype=float))

    value, converged, n = _doubling_quad(
        lambda n: complex_oscillatory_quad(integrand, a, b, n), VDC_START_NODES, VDC_TOL)
    lhs = abs(value)

    dense = np.linspace(a, b, 4097)
    sup_amp = float(np.max(np.abs(np.asarray(amplitude(dense), dtype=float))))
    l1_deriv = float(abs(complex_oscillatory_quad(
        lambda x: np.abs(np.asarray(amplitude_deriv(x), dtype=float)) + 0.0j,
        a, b, VDC_START_NODES)))
    variation = sup_amp + l1_deriv
    return VanDerCorputReport(lhs=lhs,
                              rhs=lam ** (-1.0 / p) * variation,
                              rhs_alternate=lam ** (1.0 / p) * variation,
                              lam=float(lam), p=int(p), converged=converged)


@dataclass
class VdcScanReport:
    rows: list            # (lam, lhs, rhs, rhs_alternate, ratio, converged 1 or 0)
    unconverged: int
    max_ratio: float      # this and max_lhs_scaled over converged rows only
    max_lhs_scaled: float  # max of lhs * lam^{1/p}


def vdc_scan(p: int, i_min: int, i_max: int) -> VdcScanReport:
    """vandercorput_check of lam x^p / p! with amplitude sin^2(pi x) on [0, 1]
    for lam = 2^i, i = i_min .. i_max; the maxima skip unconverged rows, whose
    lhs is quadrature noise.  Out-of-domain values and work above the ceiling
    (see dgzk._work) raise ValueError before the first row."""
    if i_max < i_min:
        raise ValueError("i_max must be >= i_min")
    if p > 170:
        raise ValueError(f"p must be <= 170, the largest p whose factorial is a "
                         f"finite float; got {p}")
    if i_max > 1023:
        raise ValueError(f"i_max must be <= 1023, the largest i for which 2^i is a "
                         f"finite float; got {i_max}")
    check_work("vdc", (i_max - i_min + 1) * 2 * MAX_QUADRATURE_NODES)
    fact = math.factorial(p)
    rows = []
    for i in range(i_min, i_max + 1):
        lam = 2.0 ** i
        # monomial phase: the p-th derivative is exactly lam everywhere
        rep = vandercorput_check(
            phase=lambda x, c=lam: c * np.asarray(x) ** p / fact,
            phase_deriv_p=lambda x, c=lam: np.full_like(np.asarray(x, dtype=float), c),
            interval=(0.0, 1.0), lam=lam, p=p,
            amplitude=lambda x: np.sin(np.pi * np.asarray(x)) ** 2,
            amplitude_deriv=lambda x: np.pi * np.sin(2.0 * np.pi * np.asarray(x)))
        rows.append((lam, rep.lhs, rep.rhs, rep.rhs_alternate, rep.ratio, int(rep.converged)))
    good = [row for row in rows if row[-1]]
    return VdcScanReport(
        rows=rows, unconverged=len(rows) - len(good),
        max_ratio=max((row[4] for row in good), default=0.0),
        max_lhs_scaled=max((row[1] * row[0] ** (1.0 / p) for row in good), default=0.0))
