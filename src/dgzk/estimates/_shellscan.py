"""Code shared by the two shell scans.

A scan measures one number per dyadic shell pair (j, k), compares it with a
reference bound 2^{s_j j + s_k k}, and fits the observed decay exponents by
least squares on log2(measured).
"""
from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import InsufficientDataError

__all__ = ["ShellScanReport"]

# the feasibility guard on a cell's lattice: j + k <= 20, so that the
# kernel's double sum has at most 2^{j+k+6} = 2^26 terms
MAX_SHELL_SUM = 20
# the most threads a scan may run; a pool starts one per queued item up to its size
MAX_WORKERS = 64


def parallel_map(fn: Callable, items: Sequence, workers: int = 1,
                 costs: Sequence = None) -> list:
    """[fn(x) for x in items], on `workers` threads when workers > 1, costliest
    first when costs (one per item) are given; an item that raises cancels
    the items not yet started.  workers outside 1 .. MAX_WORKERS raises
    ValueError before any item runs."""
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], got {workers}")
    if workers == 1:
        return [fn(x) for x in items]
    order = sorted(range(len(items)), key=lambda i: -costs[i]) if costs else range(len(items))
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = {i: pool.submit(fn, items[i]) for i in order}
        done, _ = wait(futures.values(), return_when=FIRST_EXCEPTION)
        for future in done:
            future.result()  # raises the error of a failed item
        return [futures[i].result() for i in range(len(items))]
    finally:
        pool.shutdown(cancel_futures=True)


def shell_lists(symbol, j_range, k_range, counts: dict, fewest_k: int, least_k: int,
                eps: float):
    """Sorted distinct j and k of a shell scan, after the checks both scans
    make: the undamped symbol, each of counts (name: value) >= 1, |eps| <= 1
    (which keeps every bound 2^{s_j j + s_k k} a normal float), at least
    two j and fewest_k k, j >= 1 and k >= least_k, and the feasibility guard."""
    if symbol.mu != 0.0:
        raise ValueError("decay scan uses the undamped group (mu = 0)")
    for name, value in counts.items():
        if value < 1:
            raise InsufficientDataError(f"{name} must be >= 1, got {value}")
    if not abs(eps) <= 1.0:
        raise ValueError(f"eps must lie in [-1, 1], got {eps}")

    def read(indices):  # one at a time: a huge range stops at its first index past the guard
        for i in map(int, indices):
            if abs(i) > MAX_SHELL_SUM:
                raise ValueError(f"shell index {i} is past the feasibility guard")
            yield i

    j_list, k_list = (sorted(set(read(indices))) for indices in (j_range, k_range))
    if len(j_list) < 2 or len(k_list) < fewest_k:
        raise InsufficientDataError(
            f"need at least two distinct j and {fewest_k} distinct k to fit slopes")
    if min(j_list) < 1:
        raise ValueError("x-shell indices must be >= 1 (the m = 0 band is excluded)")
    if min(k_list) < least_k:
        raise ValueError(f"y-shell indices must be >= {least_k}")
    if max(j_list) + max(k_list) > MAX_SHELL_SUM:
        raise ValueError(f"lattice cost 2^{max(j_list) + max(k_list) + 6} exceeds the "
                         "feasibility guard")
    return j_list, k_list


@dataclass
class ShellScanReport:
    alpha: int
    beta: float
    sign: int
    eps: float
    seed: int
    settings: dict       # the scan's own sample counts, by their report.json keys
    cells: list          # rows (j, k, measured, bound, ratio)
    slope_j: float
    slope_k: float       # nan when a single k is scanned
    intercept: float
    max_ratio: float


def shell_scan(measure: Callable[[int, int], float], cost: Callable[[int, int], int], symbol,
               j_list: Sequence[int], k_list: Sequence[int], s_j: float, s_k: float, eps: float,
               seed: int, settings: dict, workers: int = 1) -> ShellScanReport:
    """Measure every cell of j_list x k_list, costliest first by cost(j, k),
    and fit the decay exponents; with a single k only the j slope is fitted
    and slope_k is nan."""
    pairs = [(j, k) for j in j_list for k in k_list]
    measured = parallel_map(lambda jk: measure(*jk), pairs, workers, [cost(*jk) for jk in pairs])
    cells = []
    max_ratio = 0.0
    for (j, k), value in zip(pairs, measured):
        bound = 2.0 ** (s_j * j + s_k * k)
        ratio = value / bound
        max_ratio = max(max_ratio, ratio)
        cells.append((j, k, value, bound, ratio))

    fit_k = len(k_list) >= 2
    design = np.array([[1.0, j, k] if fit_k else [1.0, j] for j, k in pairs])
    logs = np.log2([max(v, 1e-300) for v in measured])
    coeff, *_ = np.linalg.lstsq(design, logs, rcond=None)
    return ShellScanReport(alpha=symbol.alpha, beta=symbol.beta, sign=symbol.sign, eps=eps,
                           seed=seed, settings=settings, cells=cells, slope_j=float(coeff[1]),
                           slope_k=float(coeff[2]) if fit_k else float("nan"),
                           intercept=float(coeff[0]), max_ratio=float(max_ratio))
