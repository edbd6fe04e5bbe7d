"""Deterministic CSV/JSON artifact writers.

Identical inputs must produce byte-identical files across reruns: floats,
numpy scalars included, are rendered as the repr of a Python float (shortest
round-trip form), JSON keys are sorted, and CSV rows are written in the order
given by the (deterministic) caller.  Artifacts hold only finite numbers and
standard JSON: a NaN or infinity raises RuntimeError naming the file, which
is then not written.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, Sequence

__all__ = ["format_scalar", "write_csv", "write_json", "write_resolved_config",
           "error_record"]


def format_scalar(value) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value!r} is not a finite number")
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return ",".join(format_scalar(v) for v in value)
    return str(value)


def _write_text(path, render) -> None:
    """Write render()'s lines to path.  The ValueError render raises for a NaN
    or infinity becomes a RuntimeError: an internal error, not a bad value."""
    try:
        text = "\n".join(render()) + "\n"
    except ValueError as exc:
        raise RuntimeError(f"{Path(path).name} would hold a non-finite number: {exc}") from exc
    Path(path).write_text(text, encoding="utf-8")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    _write_text(path, lambda: [",".join(header)] + [",".join(map(format_scalar, row))
                                                    for row in rows])


def write_json(path, obj: Dict) -> None:
    # numpy scalars and arrays through tolist(); a float subclass, np.float64
    # included, is written as the repr of a Python float
    _write_text(path, lambda: [json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                                          default=lambda o: o.tolist())])


def write_resolved_config(path, command: str, resolved: Dict[str, object]) -> None:
    _write_text(path, lambda: [f"command = {command}"] + [
        f"{key} = {format_scalar(resolved[key])}" for key in sorted(resolved)])


def error_record(exc: Exception, exit_code: int) -> Dict[str, object]:
    return {"error": {"type": type(exc).__name__, "message": str(exc),
                      "exit_code": exit_code}}
