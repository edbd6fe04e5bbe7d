"""Code shared by the two shell scans.

A scan measures one number per dyadic shell pair (j, k), compares it with a
reference bound 2^{s_j j + s_k k}, and fits the observed decay exponents by
least squares on log2(measured).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np


def parallel_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """[fn(x) for x in items], on a thread pool when workers > 1; order is kept."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def shell_scan(measure: Callable[[int, int], float], j_list: Sequence[int],
               k_list: Sequence[int], s_j: float, s_k: float, workers: int = 1):
    """Measure every cell of j_list x k_list and fit the decay exponents.

    Returns (cells, max_ratio, slope_j, slope_k, intercept), where cells
    holds rows (j, k, measured, bound, ratio).  With a single k only the j
    slope is fitted and slope_k is nan.
    """
    pairs = [(j, k) for j in j_list for k in k_list]
    measured = parallel_map(lambda jk: measure(*jk), pairs, workers)
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
    slope_k = float(coeff[2]) if fit_k else float("nan")
    return cells, float(max_ratio), float(coeff[1]), slope_k, float(coeff[0])
