"""Frequency-localized kernel sums and their time-decay scan.

The kernel attached to the shell pair (j, k) is the lattice sum

    K(t, t', x, y) = chi_j,k(t) chi_j,k(t') *
        sum_{m,n} psi1(m/2^j)^2 psi1(n/2^k)^2
                  e^{i [m x + n y + omega(m,n) (t - t')]}

with chi_j,k the indicator of |t| <= 2^{-(j+k)}.  It is real (imaginary
part exactly 0): psi1 is even and the phase odd under (m, n) -> (-m, -n).
The windowed variant restricts to |t - t'| in (2^{-l}, 2 * 2^{-l}] for an
integer l >= j + k; kernel_decay_scan samples admissible windows and fits
the observed decay of max |K| * 2^{-l} in j and k.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .._work import check_work
from ..propagator import DispersionSymbol
from ._shellscan import ShellScanReport, shell_lists, shell_scan
from .bump import psi1

__all__ = ["KernelQuery", "kernel_sum", "kernel_decay_scan"]

TWO_PI = 2.0 * np.pi

_ROW_BLOCK = 16
# block-start table entries per pass: a kernel_sum's temporaries stay ~1 MB
_CHUNK_ENTRIES = 2 ** 14
# the fixed cost of one kernel_sum call, in lattice terms: about 155 us a
# call against 5-10 ns a term (one BLAS thread, 2-CPU x86-64 VM)
_CALL_TERMS = 20000

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


@lru_cache(maxsize=8)
def _cell_tables(j: int, k: int, alpha: int, beta: float) -> tuple:
    """Read-only supports, powers and psi1^2 weights of cell (j, k), as kernel_sum uses them."""
    m = _shell_support(j).astype(float)
    n = _shell_support(k).astype(float)
    tables = (m, n, m * m ** (1.0 + alpha), n ** (1.0 + beta), psi1(m / 2.0 ** j) ** 2,
              2.0 * psi1(n / 2.0 ** k) ** 2)
    for table in tables:
        table.setflags(write=False)
    return tables


def kernel_sum(query: KernelQuery) -> complex:
    """Direct evaluation of the kernel lattice sum at one space-time point,
    over the quarter m, n > 0.  The m are consecutive, so the phase
    e^{i sd m p_n} (sd = sign (t - t'), p_n = n^{1+beta}) of row m0 + r
    factors into e^{i sd m0 p_n} e^{i sd r p_n}, over blocks of _ROW_BLOCK rows."""
    j, k, symbol = query.j, query.k, query.symbol
    if max(abs(query.t), abs(query.t_prime)) > 2.0 ** (-(j + k)):
        return 0.0 + 0.0j

    m, n, mpow, npow, psi_m, psi_n = _cell_tables(j, k, symbol.alpha, symbol.beta)
    delta = query.t - query.t_prime
    vec_m = psi_m * np.exp(1j * (m * query.x + mpow * delta))
    vec_n = psi_n * np.cos(n * query.y)

    # row m[0] + R b + r is row r of block b, R = _ROW_BLOCK
    phase = 1j * (symbol.sign * delta)
    n_blocks = -(-m.size // _ROW_BLOCK)
    starts = m[0] + _ROW_BLOCK * np.arange(n_blocks, dtype=float)
    offsets = np.exp(phase * np.outer(np.arange(_ROW_BLOCK, dtype=float), npow))
    weights = np.pad(vec_m, (0, n_blocks * _ROW_BLOCK - m.size)).reshape(n_blocks, -1)
    total = 0.0 + 0.0j
    chunk = max(1, _CHUNK_ENTRIES // n.size)
    for first in range(0, n_blocks, chunk):
        sl = slice(first, first + chunk)
        heads = np.exp(phase * np.outer(starts[sl], npow))
        heads *= vec_n
        # entry (b, r) of the product: the sum over n of row r of block b
        total += np.sum(weights[sl] * (heads @ offsets.T))
    return complex(2.0 * total.real)


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
                      workers: int = 1) -> ShellScanReport:
    """Measure the decay of the windowed kernel across shell pairs.

    Per cell (j, k) the scan records max over samples of |K| * 2^{-l} and
    compares it with 2^{(-1/2^{alpha+1} + 2 eps) j + (-beta/2 + 2 eps) k};
    slopes come from a least-squares fit of log2(measured) against (j, k).
    A scan above the "kernel" ceiling of _work.MAX_WORK raises ValueError
    before its first draw.
    """
    j_list, k_list = shell_lists(symbol, j_range, k_range,
                                 {"samples_per_cell": samples_per_cell}, fewest_k=2, least_k=1)
    cost = lambda j, k: _shell_support(j).size * _shell_support(k).size + _CALL_TERMS
    check_work("kernel", (samples_per_cell + 2) * sum(cost(j, k) for j in j_list for k in k_list))

    s_j = -1.0 / 2.0 ** (symbol.alpha + 1) + 2.0 * eps
    s_k = -symbol.beta / 2.0 + 2.0 * eps
    measure = lambda j, k: _cell_measurement(symbol, j, k, samples_per_cell, seed)
    return shell_scan(measure, cost, symbol, j_list, k_list, s_j, s_k, eps, seed,
                      {"samples_per_cell": samples_per_cell}, workers)
