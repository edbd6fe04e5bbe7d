"""Plain-text experiment configuration.

Format: one `dotted.key = value` pair per line; blank lines and lines whose
first non-space character is '#' are ignored.  Keys are validated against
the schema of the command being run, so typos fail loudly with the line
number, and every run echoes its fully resolved configuration to the output
directory.
"""
from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from .errors import ConfigError
from .presets import PRESET_NAMES
from .solver import _STEPPERS

__all__ = ["Option", "parse_config_text", "resolve_config", "schema_for", "COMMANDS"]


class Option(NamedTuple):
    key: str
    cast: Callable[[str], object]
    default: object


def _int(raw: str) -> int:
    return int(raw, 0)


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _sign(raw: str) -> int:
    low = raw.strip().lower()
    if low in ("+", "plus", "1", "+1"):
        return 1
    if low in ("-", "minus", "-1"):
        return -1
    raise ValueError(f"expected '+' or '-', got {raw!r}")


def _choice(*allowed: str) -> Callable[[str], str]:
    def cast(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(f"expected one of {', '.join(map(repr, allowed))}; got {raw!r}")
        return raw
    return cast


def _list(cast: Callable[[str], object], what: str) -> Callable[[str], tuple]:
    def cast_list(raw: str) -> tuple:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"expected a comma-separated list of {what}")
        return tuple(cast(p) for p in parts)
    return cast_list


_float_list = _list(_float, "numbers")
_int_list = _list(_int, "integers")


def _opts(*options: Option) -> Dict[str, Option]:
    return {o.key: o for o in options}


_SYMBOL = (
    Option("symbol.alpha", _int, 1),
    Option("symbol.beta", _float, 1.0),
    Option("symbol.sign", _sign, 1),
)
_GRID = (
    Option("grid.nx", _int, 64),
    Option("grid.ny", _int, 64),
)
_INITIAL = (
    Option("initial.preset", _choice(*PRESET_NAMES), "cos-x"),
    Option("initial.amplitude", _float, 1.0),
    Option("initial.m", _int, 1),
    Option("initial.n", _int, 1),
    Option("initial.width", _float, 0.5),
    Option("initial.band", _int, 0),    # 0 means the preset default
)
_SOLVER = (
    Option("solver.dt", _float, 1e-3),
    Option("solver.t_end", _float, 0.1),
    Option("solver.integrator", _choice(*_STEPPERS), "etdrk4"),
    Option("solver.record_every", _int, 10),
    Option("solver.h_s", _float_list, (1.0,)),
)
_SEED = Option("seed", _int, 0)
_WORKERS = Option("workers", _int, 1)

# named scan.preset settings, already typed; resolve_config puts them
# between the schema defaults and the file contents
_SCAN_PRESETS: Dict[str, Dict[str, Dict[str, object]]] = {
    "strichartz-scan": {
        "alpha1-small": {"symbol.alpha": 1, "symbol.beta": 1.0,
                         "scan.j_min": 3, "scan.j_max": 5,
                         "scan.k_min": 1, "scan.k_max": 3, "scan.trials": 5},
        **{f"alpha{alpha}-full": {"symbol.alpha": alpha, "symbol.beta": 1.0,
                                  "scan.j_min": 3, "scan.j_max": 7,
                                  "scan.k_min": 3, "scan.k_max": k_max, "scan.trials": 20}
           for alpha, k_max in ((1, 7), (2, 4), (3, 4))},
    },
    "kernel-scan": {
        "alpha1-small": {"symbol.alpha": 1, "symbol.beta": 1.0,
                         "scan.j_min": 4, "scan.j_max": 6,
                         "scan.k_min": 4, "scan.k_max": 6,
                         "scan.samples_per_cell": 4},
        "alpha1-full": {"symbol.alpha": 1, "symbol.beta": 1.0,
                        "scan.j_min": 4, "scan.j_max": 8,
                        "scan.k_min": 4, "scan.k_max": 8,
                        "scan.samples_per_cell": 8},
    },
}

SCHEMAS: Dict[str, Dict[str, Option]] = {
    "simulate": _opts(_SEED, *_GRID, *_SYMBOL, *_INITIAL, *_SOLVER,
                      Option("symbol.mu", _float, 0.0),
                      Option("output.snapshots", _choice("none", "json", "binary"), "none")),
    "regularized-family": _opts(_SEED, *_GRID, *_SYMBOL, *_INITIAL, *_SOLVER,
                                Option("family.mu_list", _float_list, (1e-2, 1e-3))),
    "strichartz-scan": _opts(_SEED, _WORKERS, *_SYMBOL,
                             Option("scan.preset",
                                    _choice("", *_SCAN_PRESETS["strichartz-scan"]), ""),
                             Option("scan.j_min", _int, 3), Option("scan.j_max", _int, 5),
                             Option("scan.k_min", _int, 1), Option("scan.k_max", _int, 3),
                             Option("scan.trials", _int, 5),
                             Option("scan.n_times", _int, 64),
                             Option("scan.refine", _int, 4),
                             Option("scan.eps", _float, 0.05)),
    "kernel-scan": _opts(_SEED, _WORKERS, *_SYMBOL,
                         Option("scan.preset", _choice("", *_SCAN_PRESETS["kernel-scan"]), ""),
                         Option("scan.j_min", _int, 4), Option("scan.j_max", _int, 6),
                         Option("scan.k_min", _int, 4), Option("scan.k_max", _int, 6),
                         Option("scan.samples_per_cell", _int, 8),
                         Option("scan.eps", _float, 0.05)),
    "weyl-scan": _opts(_SEED,
                       Option("weyl.degree", _int, 3),
                       Option("weyl.n_values", _int_list, (64, 256, 1024)),
                       Option("weyl.trials", _int, 100),
                       Option("weyl.delta", _float, 0.01)),
    "vdc-scan": _opts(Option("vdc.p", _int, 2),
                      Option("vdc.i_min", _int, 0),
                      Option("vdc.i_max", _int, 10)),
    "convergence": _opts(_SEED, *_GRID, *_SYMBOL, *_INITIAL,
                         Option("conv.mode", _choice("temporal", "spatial", "both"), "both"),
                         Option("conv.dt0", _float, 4e-3),
                         Option("conv.halvings", _int, 4),
                         Option("conv.t_end", _float, 0.1),
                         Option("conv.n_values", _int_list, (16, 32, 64)),
                         Option("conv.dt", _float, 1e-3),
                         Option("conv.integrator", _choice(*_STEPPERS), "etdrk4")),
    "commutator-scan": _opts(_SEED, _WORKERS, *_GRID,
                             Option("comm.pairs", _int, 200),
                             Option("comm.s_values", _float_list, (1.0, 1.5, 2.0)),
                             Option("comm.band", _int, 0)),    # 0 means nx/4
}

COMMANDS = tuple(sorted(SCHEMAS))


def schema_for(command: str) -> Dict[str, Option]:
    try:
        return SCHEMAS[command]
    except KeyError:
        raise ConfigError(f"unknown command {command!r}; choose one of {', '.join(COMMANDS)}")


def parse_config_text(text: str, source: str = "<config>") -> List[Tuple[int, str, str]]:
    """Parse dotted-key lines into (lineno, key, raw value) triples."""
    triples = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        triples.append((lineno, key, raw))
    return triples


def resolve_config(command: str, file_pairs: Sequence[Tuple[int, str, str]] = (),
                   overrides: Sequence[str] = (), source: str = "<config>") -> Dict[str, object]:
    """Defaults, then the named scan.preset, then file pairs, then --set
    overrides; reject unknown keys."""
    schema = schema_for(command)

    def assignments():
        """(location, key, raw) for each file pair, then each override, in order."""
        for lineno, key, raw in file_pairs:
            yield f"{source}:{lineno}", key, raw
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not of the form key=value")
            key, _, raw = item.partition("=")
            yield "override", key.strip(), raw.strip()

    explicit = {}
    for where, key, raw in assignments():
        if key not in schema:
            raise ConfigError(f"{where}: unknown key {key!r} for command {command!r}")
        try:
            explicit[key] = schema[key].cast(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}")
    resolved = {key: opt.default for key, opt in schema.items()}
    resolved.update(_SCAN_PRESETS.get(command, {}).get(explicit.get("scan.preset", ""), {}))
    resolved.update(explicit)
    return resolved
