"""Smooth even cutoff used throughout the oscillatory-sum experiments.

psi1 is C^infinity, even, valued in [0, 1], identically 1 for |r| in
[1/2, 2] and identically 0 outside |r| in (1/4, 4).  The construction is
frozen for reproducibility: with g(u) = exp(-1/u) for u > 0 (else 0) and
the ramp s(u) = g(u) / (g(u) + g(1 - u)),

    psi1(r) = s((|r| - 1/4) / (1/4)) * s((4 - |r|) / 2).

The ramp is exactly 0 for u <= 0 and exactly 1 for u >= 1, so the plateau
and the support boundaries hold exactly in floating point.
"""
from __future__ import annotations

import numpy as np

__all__ = ["psi1"]

_TINY = 1e-300


def _decay(u: np.ndarray) -> np.ndarray:
    # exp(-1/u) on u > 0, zero elsewhere; the clamp avoids division warnings
    return np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, _TINY)), 0.0)


def _ramp(u: np.ndarray) -> np.ndarray:
    a = _decay(u)
    b = _decay(1.0 - u)
    return a / (a + b)


def psi1(r):
    """Evaluate the cutoff at r (scalar or array)."""
    arr = np.abs(np.asarray(r, dtype=float))
    rise = _ramp((arr - 0.25) / 0.25)
    fall = _ramp((4.0 - arr) / 2.0)
    out = rise * fall
    return out if out.ndim else float(out)
