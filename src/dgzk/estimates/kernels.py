"""Frequency-localized kernel sums and their time-decay scan.

The kernel attached to the shell pair (j, k) is the lattice sum

    K(t, t', x, y) = chi_j,k(t) chi_j,k(t') *
        sum_{m,n} psi1(m/2^j)^2 psi1(n/2^k)^2
                  e^{i [m x + n y + omega(m,n) (t - t')]}

with chi_j,k the indicator of |t| <= 2^{-(j+k)}.  The windowed variant
restricts to |t - t'| in (2^{-l}, 2 * 2^{-l}] for an integer l >= j + k;
kernel_decay_scan samples admissible windows and fits the observed decay
of max |K| * 2^{-l} in j and k.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import InsufficientDataError
from ..propagator import DispersionSymbol
from ._shellscan import shell_scan
from .bump import psi1

__all__ = [
    "KernelQuery",
    "KernelScanReport",
    "kernel_sum",
    "kernel_decay_scan",
]

TWO_PI = 2.0 * np.pi

# cost guard: the double sum has about 2^{j+k+6} terms
MAX_LATTICE_COST = 2 ** 20

# widening of the sampled l-window above its admissible floor j+k.  The
# decay estimate is sharp near l = j+k, where |t-t'| is comparable to the
# full time box; much larger l shrinks the phase so far that the kernel
# saturates at its lattice count and the k-decay washes out.
_L_SPREAD = 1


@dataclass(frozen=True)
class KernelQuery:
    j: int
    k: int
    symbol: DispersionSymbol
    t: float
    t_prime: float
    x: float
    y: float
    l: Optional[int] = None

    def __post_init__(self):
        if self.j < 1 or self.k < 1:
            raise ValueError(f"shell indices must be >= 1, got j={self.j}, k={self.k}")
        if self.symbol.mu != 0.0:
            raise ValueError("kernel sums are defined for the undamped symbol (mu = 0)")
        if not (0.0 <= self.x < TWO_PI and 0.0 <= self.y < TWO_PI):
            raise ValueError(f"(x, y) must lie in [0, 2pi), got ({self.x}, {self.y})")
        if self.l is not None:
            if self.l < self.j + self.k:
                raise ValueError(f"window exponent l={self.l} must be >= j+k={self.j + self.k}")
            gap = abs(self.t - self.t_prime)
            lo, hi = 2.0 ** (-self.l), 2.0 ** (1 - self.l)
            if not lo < gap <= hi:
                raise ValueError(
                    f"|t - t'| = {gap:.6g} outside the window ({lo:.6g}, {hi:.6g}] for l={self.l}")


def _shell_support(shell: int) -> np.ndarray:
    """Integers in the open support of psi1(. / 2^shell), positive half."""
    lo = 2.0 ** (shell - 2)
    hi = 2.0 ** (shell + 2)
    first = int(np.floor(lo)) + 1   # strictly above lo
    last = int(np.ceil(hi)) - 1     # strictly below hi
    return np.arange(first, last + 1)


def kernel_sum(query: KernelQuery) -> complex:
    """Direct evaluation of the kernel lattice sum at one space-time point."""
    j, k, symbol = query.j, query.k, query.symbol
    box = 2.0 ** (-(j + k))
    if abs(query.t) > box or abs(query.t_prime) > box:
        return 0.0 + 0.0j

    m_half = _shell_support(j)
    n_half = _shell_support(k)
    if m_half.size == 0 or n_half.size == 0:
        warnings.warn(f"empty cutoff support for shells (j={j}, k={k})")
        return 0.0 + 0.0j
    m = np.concatenate([-m_half[::-1], m_half]).astype(float)
    n = np.concatenate([-n_half[::-1], n_half]).astype(float)

    wm = psi1(m / 2.0 ** j) ** 2
    wn = psi1(n / 2.0 ** k) ** 2
    delta = query.t - query.t_prime
    sigma = float(symbol.sign)
    npow = np.abs(n) ** (1.0 + symbol.beta)
    mpow = m * np.abs(m) ** (1.0 + symbol.alpha)

    vec_m = wm * np.exp(1j * (m * query.x + mpow * delta))
    vec_n = wn * np.exp(1j * n * query.y)

    total = 0.0 + 0.0j
    # chunk the m-rows so the (m, n) phase matrix stays modest
    chunk = max(1, MAX_LATTICE_COST // max(1, n.size))
    for start in range(0, m.size, chunk):
        sl = slice(start, start + chunk)
        inner = np.exp(1j * (sigma * delta) * np.outer(m[sl], npow)) @ vec_n
        total += vec_m[sl] @ inner
    return complex(total)


@dataclass
class KernelScanReport:
    alpha: int
    beta: float
    sign: int
    eps: float
    seed: int
    samples_per_cell: int
    cells: list          # rows (j, k, measured, bound, ratio)
    slope_j: float
    slope_k: float
    intercept: float
    max_ratio: float


def _cell_measurement(symbol, j, k, samples, seed):
    """Max of |K| * 2^{-l} over sampled admissible (t, t', x, y, l)."""
    lo = j + k
    hi = lo + _L_SPREAD
    rng = np.random.default_rng([seed, j, k])
    best = 0.0

    def probe(l, x, y, delta):
        q = KernelQuery(j=j, k=k, symbol=symbol, t=delta / 2.0,
                        t_prime=-delta / 2.0, x=x, y=y, l=l)
        return abs(kernel_sum(q)) * 2.0 ** (-l)

    # deterministic near-extremal probes: zero offsets maximize the lattice
    # sum coherence, giving the envelope the scan is meant to track
    for l in (lo, hi):
        best = max(best, probe(l, 0.0, 0.0, 1.5 * 2.0 ** (-l)))
    for _ in range(samples):
        l = int(rng.integers(lo, hi + 1))
        delta = 2.0 ** (-l) * (2.0 - rng.uniform(0.0, 1.0))  # in (2^-l, 2*2^-l]
        x = rng.uniform(0.0, TWO_PI)
        y = rng.uniform(0.0, TWO_PI)
        best = max(best, probe(l, x, y, delta))
    return best


def kernel_decay_scan(symbol: DispersionSymbol, j_range: Sequence[int],
                      k_range: Sequence[int], samples_per_cell: int = 8,
                      seed: int = 0, eps: float = 0.05,
                      workers: int = 1) -> KernelScanReport:
    """Measure the decay of the windowed kernel across shell pairs.

    Per cell (j, k) the scan records max over samples of |K| * 2^{-l} and
    compares it with 2^{(-1/2^{alpha+1} + 2 eps) j + (-beta/2 + 2 eps) k};
    slopes come from a least-squares fit of log2(measured) against (j, k).
    """
    if symbol.mu != 0.0:
        raise ValueError("kernel scan requires the undamped symbol (mu = 0)")
    j_list = sorted(set(int(j) for j in j_range))
    k_list = sorted(set(int(k) for k in k_range))
    if samples_per_cell < 1:
        raise InsufficientDataError(f"samples_per_cell must be >= 1, got {samples_per_cell}")
    if len(j_list) < 2 or len(k_list) < 2:
        raise InsufficientDataError("need at least two distinct j and two distinct k to fit slopes")
    if min(j_list) < 1 or min(k_list) < 1:
        raise ValueError("shell indices must be >= 1")
    worst = max(j_list) + max(k_list) + 6
    if 2 ** worst > 2 ** 6 * MAX_LATTICE_COST:
        raise ValueError(f"lattice cost 2^{worst} exceeds the feasibility guard")

    s_j = -1.0 / 2.0 ** (symbol.alpha + 1) + 2.0 * eps
    s_k = -symbol.beta / 2.0 + 2.0 * eps
    measure = lambda j, k: _cell_measurement(symbol, j, k, samples_per_cell, seed)
    cells, max_ratio, slope_j, slope_k, intercept = shell_scan(
        measure, j_list, k_list, s_j, s_k, workers)
    return KernelScanReport(alpha=symbol.alpha, beta=symbol.beta, sign=symbol.sign,
                            eps=eps, seed=seed, samples_per_cell=samples_per_cell,
                            cells=cells, slope_j=slope_j, slope_k=slope_k,
                            intercept=intercept, max_ratio=max_ratio)
