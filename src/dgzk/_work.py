"""Work ceilings, checked before a run draws or computes anything.

A run whose predicted work is above its ceiling raises ValueError (exit 2
from the CLI) at once, where it would otherwise run for hours or exhaust
memory.  Each ceiling counts the run's innermost operation or its records:

* "weyl": exponential-sum terms, trials * sum(N).  The default
  `weyl-scan` takes 1.3e5, and at the ceiling a scan takes minutes.
* "strichartz": grid-point samples, trials * the sum over the cells of
  nx * ny * n_times, since every time sample of every trial evaluates the
  cell's grid.  The default `strichartz-scan` takes 1.6e7 and an
  `alpha*-full` preset 5.0e9; at the ceiling a scan takes minutes.
* "study": grid-point steps of a temporal order study, summed over its
  runs, the reference included.  The default `convergence` study takes
  8.1e6; at the ceiling a study runs for minutes.
* "simulate": grid-point steps of one `simulate` run, steps * nx * ny
  (4.1e5 by default; hours at the ceiling), and "records": the bytes of
  the Galerkin blocks it records, 11.7 MB for 200 records at 128^2.
* "vdc": quadrature nodes of a `vdc-scan`, rows * 2^22, the most the node
  doubling can spend on one row (4.6e7 by default), and "commutator": grid
  points of a `commutator-scan`, pairs * len(s_values) * (2 nx) (2 ny)
  (9.8e6 by default).  At either ceiling a scan takes minutes.
* "kernel": lattice terms of a `kernel-scan`, (samples_per_cell + 2) *
  the sum over the cells of |support_j| * |support_k|, the terms one
  kernel_sum adds; each sample and the two fixed probes take one.  The
  default scan takes 1.7e6 and the alpha1-full preset 3.4e7; at the
  ceiling either takes minutes (shells j, k <= 2 take longer per term).
"""
from __future__ import annotations

MAX_WORK = {"weyl": 1e9, "strichartz": 1e11, "study": 1e9, "simulate": 1e11, "records": 2e9,
            "vdc": 1e9, "commutator": 1e9, "kernel": 1e10}
_UNITS = {"weyl": "terms (trials * sum(N))",
          "strichartz": "grid-point samples (trials * sum of nx * ny * n_times over the cells)",
          "study": "grid-point steps (sum of steps * nx * ny over the runs)",
          "simulate": "grid-point steps (steps * nx * ny)",
          "records": "bytes of recorded states (recorded blocks * bytes per block)",
          "vdc": "quadrature nodes (rows * 2^22)",
          "commutator": "grid points (pairs * len(s_values) * 2nx * 2ny)",
          "kernel": "lattice terms ((samples_per_cell + 2) * sum of the cells' lattice terms)"}


def check_work(kind: str, work: int) -> None:
    """Raise ValueError if work, in the units of kind, exceeds its ceiling."""
    if work > MAX_WORK[kind]:
        raise ValueError(
            f"{kind} work of {work:.3g} {_UNITS[kind]} exceeds the ceiling "
            f"MAX_WORK[{kind!r}] = {MAX_WORK[kind]:.0e}")
