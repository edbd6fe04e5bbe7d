"""Deterministic CSV/JSON artifact writers.

Identical inputs must produce byte-identical files across reruns: floats,
numpy scalars included, are rendered as the repr of a Python float (shortest
round-trip form), JSON keys are sorted, and CSV rows are written in the order
given by the (deterministic) caller.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Sequence

__all__ = ["format_scalar", "write_csv", "write_json", "write_resolved_config",
           "error_record"]


def format_scalar(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return ",".join(format_scalar(v) for v in value)
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_scalar(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):  # numpy scalar
        return _json_ready(obj.item())
    return obj


def write_json(path, obj: Dict) -> None:
    text = json.dumps(_json_ready(obj), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def write_resolved_config(path, command: str, resolved: Dict[str, object]) -> None:
    lines = [f"command = {command}"]
    for key in sorted(resolved):
        lines.append(f"{key} = {format_scalar(resolved[key])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def error_record(exc: Exception, exit_code: int) -> Dict[str, object]:
    return {"error": {"type": type(exc).__name__, "message": str(exc),
                      "exit_code": exit_code}}
