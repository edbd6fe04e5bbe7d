"""Work ceilings, checked before a run draws, allocates or computes anything.

A run whose predicted work, in the units of _UNITS, is above its ceiling
raises ValueError (exit 2 from the CLI) at once, where it would otherwise
run for hours or exhaust memory.  At a ceiling a run takes minutes, or
about 1 GB for "grid_bytes"; the default runs stay well below each.
"""
from __future__ import annotations

MAX_WORK = {"weyl": 1e9, "strichartz": 1e11, "study": 1e9, "simulate": 1e11, "records": 2e9,
            "vdc": 1e9, "commutator": 1e9, "kernel": 1e10, "grid_bytes": 1e9}
_UNITS = {"weyl": "terms ((degree + 1) * trials * sum(N), plus 10000 per coefficient column "
                  "and N and 4000 per row)",
          "strichartz": "grid-point samples (trials * sum of nx * ny * n_times over the cells)",
          "study": "grid-point steps (sum of steps * nx * ny over the runs)",
          "simulate": "grid-point steps (steps * nx * ny)",
          "records": "bytes of recorded states (recorded blocks * bytes per block)",
          "vdc": "quadrature nodes (rows * 2^22)",
          "commutator": "grid points (pairs * len(s_values) * 2nx * 2ny)",
          "kernel": "lattice terms ((samples_per_cell + 2) * sum of the cells' lattice terms "
                    "+ a fixed charge per kernel_sum call)",
          "grid_bytes": "bytes of the largest array, the 2x diagnostics plane (32 * nx * ny)"}


def check_work(kind: str, work: int) -> None:
    """Raise ValueError if work, in the units of kind, exceeds its ceiling."""
    if work > MAX_WORK[kind]:
        shown = f"{work:.3g}" if work < 1e300 else "over 1e300"  # a huge int has no float
        raise ValueError(
            f"{kind} work of {shown} {_UNITS[kind]} exceeds the ceiling "
            f"MAX_WORK[{kind!r}] = {MAX_WORK[kind]:.0e}")
