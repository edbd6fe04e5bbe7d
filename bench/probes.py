"""Isolated layer probes: each public call timed on its own, at fixed sizes.

These reproduce the layer sanity table of ROADMAP item 1 (transform pair,
nonlinear term, one ETDRK4 step, stepper construction, one diagnostics
record and its two parts at 64^2, 128^2 and 256^2; one strichartz_norm call
at cell (7, 7) and one kernel_sum probe at j = k = 8).  They are reported
next to the traced run and gate nothing.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

import dgzk
from dgzk import diagnostics, solver, spectral
from dgzk.estimates import kernels, strichartz

SIZES = (64, 128, 256)
# each probe repeats for about this long, within the call limits below
PROBE_BUDGET_S = 0.15
MIN_CALLS, MAX_CALLS = 5, 400


def _timed(call) -> float:
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def _median_ms(call) -> float:
    first = _timed(call)
    if first >= PROBE_BUDGET_S:
        # a call this long needs no warm-up; three samples give a median
        times = [first, _timed(call), _timed(call)]
    else:
        # the first call warmed caches and lazy set-up; users pay that once
        n = min(MAX_CALLS, max(MIN_CALLS, int(PROBE_BUDGET_S / max(first, 1e-9))))
        times = [_timed(call) for _ in range(n)]
    return 1e3 * statistics.median(times)


def run_probes(seed: int) -> dict:
    symbol = dgzk.DispersionSymbol(alpha=1, beta=1.0, sign=1, mu=0.0)
    out = {}
    for n in SIZES:
        grid = dgzk.Grid(n, n)
        phi = dgzk.initial_data(grid, "random-band", amplitude=1.0, seed=seed)
        c = phi.coeffs
        stepper = solver.Etdrk4Stepper(grid, symbol, 1e-3)
        times = np.array([0.0])
        out[f"probe.transform_pair_ms.{n}"] = _median_ms(
            lambda: spectral.forward_transform(grid, spectral.inverse_transform(phi)))
        out[f"probe.nonlinear_ms.{n}"] = _median_ms(lambda: solver.nonlinear_term(phi))
        out[f"probe.step_ms.{n}"] = _median_ms(lambda: stepper.step(c))
        out[f"probe.stepper_init_ms.{n}"] = _median_ms(
            lambda: solver.Etdrk4Stepper(grid, symbol, 1e-3))
        out[f"probe.sup_ms.{n}"] = _median_ms(lambda: diagnostics.sup_norm_diagnostics(phi))
        out[f"probe.cubic_ms.{n}"] = _median_ms(lambda: diagnostics.cubic_integral(phi))
        out[f"probe.record_ms.{n}"] = _median_ms(
            lambda: diagnostics.build_records(times, [phi], symbol))

    j = k = 7
    grid = dgzk.Grid(4 * 2 ** (j + 1), 4 * 2 ** (k + 1))    # the scan's grid for the cell
    shell = strichartz.shell_field(grid, j, k, np.random.default_rng([seed, j, k]))
    out["probe.strichartz_norm_ms"] = _median_ms(
        lambda: strichartz.strichartz_norm(shell, symbol, 2.0 ** (-(j + k)), 64))

    l = 16
    delta = 1.5 * 2.0 ** (-l)
    query = kernels.KernelQuery(j=8, k=8, symbol=symbol, t=delta / 2.0, t_prime=-delta / 2.0,
                                x=0.0, y=0.0, l=l)
    out["probe.kernel_sum_ms"] = _median_ms(lambda: kernels.kernel_sum(query))
    return out
