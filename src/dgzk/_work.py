"""Work ceilings, checked before a run draws or computes anything.

A run whose predicted work is above its ceiling raises ValueError (exit 2
from the CLI) at once, where it would otherwise run for hours.  Each
ceiling counts the run's innermost operation:

* "weyl": exponential-sum terms, trials * sum(N).  The default
  `weyl-scan` takes 1.3e5, and at the ceiling a scan takes minutes.
* "strichartz": grid-point samples, trials * the sum over the cells of
  nx * ny * n_times, since every time sample of every trial evaluates the
  cell's grid.  The default `strichartz-scan` takes 1.6e7 and an
  `alpha*-full` preset 5.0e9; at the ceiling a scan takes minutes.
"""
from __future__ import annotations

MAX_WORK = {"weyl": 1e9, "strichartz": 1e11}
_UNITS = {"weyl": "terms (trials * sum(N))",
          "strichartz": "grid-point samples (trials * sum of nx * ny * n_times over the cells)"}


def check_work(scan: str, work: int) -> None:
    """Raise ValueError if work, in the units of scan, exceeds its ceiling."""
    if work > MAX_WORK[scan]:
        raise ValueError(
            f"{scan} scan of {work:.3g} {_UNITS[scan]} exceeds the ceiling "
            f"MAX_WORK[{scan!r}] = {MAX_WORK[scan]:.0e}; use fewer trials or a smaller range")
