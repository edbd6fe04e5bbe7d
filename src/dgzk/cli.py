"""Command-line front end.

    dgzk <command> [--config FILE] [--out DIR] [--set key=value ...]
                   [--workers N] [--seed S]

Commands: simulate, regularized-family, strichartz-scan, weyl-scan,
kernel-scan, vdc-scan, convergence, commutator-scan.

--workers N is the `workers` key of the three parallel commands
(strichartz-scan, kernel-scan, commutator-scan); --seed S is the `seed` key
of every command except vdc-scan, which draws nothing at random.  On any
other command either flag is an unknown key and exits 2.

Every run writes resolved-config.txt into the output directory and removes
a stale error.json.  A command's runner returns its artifacts (CSV tables,
report.json or summary.json, snapshots), written only if it succeeds; a
failure writes error.json instead and prints the same record to stderr.
A failed run does not remove the artifacts an earlier run left in the
directory; its error.json marks the last run as failed.
Artifacts hold only finite numbers and standard JSON: a NaN or infinity
exits 7.  Reruns with identical configuration are byte-identical.

Exit codes:
    0  success
    2  a config value that a check rejects (parse error, unknown key,
       domain violation)
    3  invalid initial data
    4  solver divergence
    5  insufficient data for a requested fit or check
    6  I/O failure
    7  internal error
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

from .configfile import COMMANDS, parse_config_text, resolve_config
from .diagnostics import commutator_scan, diagnostics_csv
from .errors import (
    ConfigError,
    DivergenceError,
    InsufficientDataError,
    InvalidInitialDataError,
)
from .estimates import kernel_decay_scan, strichartz_scan, vdc_scan, weyl_scan
from .fieldio import save_field
from .grid import Grid
from .presets import initial_data
from .propagator import DispersionSymbol
from .reporting import error_record, write_csv, write_json, write_resolved_config
from .solver import (
    SimulationConfig,
    _simulation,
    solve_regularized_family,
    spatial_convergence_study,
    temporal_order_study,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INITIAL_DATA = 3
EXIT_DIVERGENCE = 4
EXIT_INSUFFICIENT = 5
EXIT_IO = 6
EXIT_INTERNAL = 7

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgzk",
        description="pseudo-spectral runs and estimate scans on the bi-periodic torus")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="plain-text key = value file")
        p.add_argument("--out", default=None,
                       help="output directory (default $DGZK_OUT/<command> or runs/<command>)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key; repeatable")
        p.add_argument("--workers", type=int, default=None, help="parallel scan workers")
        p.add_argument("--seed", type=int, default=None, help="random seed override")
    return parser


def _resolve(args) -> dict:
    pairs, source = [], "<defaults>"
    if args.config is not None:
        path = Path(args.config)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        source = str(path)
        pairs = parse_config_text(text, source=source)

    overrides = list(args.set) + [f"{key}={value}" for key, value in
                                  (("seed", args.seed), ("workers", args.workers))
                                  if value is not None]
    return resolve_config(args.command, pairs, overrides, source=source)


def _symbol_from(cfg: dict, mu: float = 0.0) -> DispersionSymbol:
    return DispersionSymbol(alpha=cfg["symbol.alpha"], beta=cfg["symbol.beta"],
                            sign=cfg["symbol.sign"], mu=mu)


def _grid_from(cfg: dict) -> Grid:
    return Grid(nx=cfg["grid.nx"], ny=cfg["grid.ny"])


def _initial_from(cfg: dict, grid: Grid):
    return initial_data(grid, cfg["initial.preset"], amplitude=cfg["initial.amplitude"],
                        seed=cfg["seed"], m=cfg["initial.m"], n=cfg["initial.n"],
                        width=cfg["initial.width"], band=cfg["initial.band"] or None)


def _sim_config_from(cfg: dict, grid: Grid, symbol: DispersionSymbol) -> SimulationConfig:
    return SimulationConfig(grid=grid, symbol=symbol, dt=cfg["solver.dt"],
                            t_end=cfg["solver.t_end"],
                            integrator=cfg["solver.integrator"],
                            record_every=cfg["solver.record_every"],
                            h_s=tuple(cfg["solver.h_s"]))


def _report_artifacts(report, table: str, header: list, **extra) -> dict:
    """<table>.csv from the report's table, and report.json from its other
    fields, with its settings (if any) and extra merged in."""
    fields = {k: v for k, v in vars(report).items() if k not in (table, "settings")}
    return {f"{table}.csv": (header, getattr(report, table)),
            "report.json": {**fields, **getattr(report, "settings", {}), **extra}}


def _run_simulate(cfg: dict) -> dict:
    grid = _grid_from(cfg)
    sim = _sim_config_from(cfg, grid, _symbol_from(cfg, mu=cfg["symbol.mu"]))
    times, records, dissipation, states = _simulation(sim, _initial_from(cfg, grid),
                                                      every_state=False)
    last = records[-1]
    summary = {"t_end": times[-1], "records": len(times),
               "sup_u_final": last.sup_u, "g_accum_final": last.g_accum}
    for name in ("mass", "energy"):
        series = [getattr(d, name) for d in records]
        drift = max(abs(v - series[0]) for v in series) / max(abs(series[0]), 1e-300)
        summary.update({f"{name}_initial": series[0], f"{name}_final": series[-1],
                        f"{name}_drift_rel": drift})
    if dissipation is not None:
        summary["dissipation_final"] = dissipation[-1]
    artifacts = {"diagnostics.csv": diagnostics_csv(records, sim.h_s), "summary.json": summary}
    snap = cfg["output.snapshots"]
    if snap != "none":
        suffix = ".json" if snap == "json" else ".fld"
        artifacts[f"initial{suffix}"], artifacts[f"final{suffix}"] = states[0], states[-1]
    return artifacts


def _run_regularized_family(cfg: dict) -> dict:
    grid = _grid_from(cfg)
    sim = _sim_config_from(cfg, grid, _symbol_from(cfg))
    family = solve_regularized_family(sim, _initial_from(cfg, grid), cfg["family.mu_list"])
    gaps = family.l2_gaps
    return {
        "family.csv": (["mu", "l2_gap_vs_mu0", "identity_residual"],
                       zip(family.mus, gaps, family.identity_residuals)),
        "report.json": {
            "mu_list": family.mus, "l2_gaps": gaps,
            "identity_residuals": family.identity_residuals,
            "gaps_nonincreasing": all(a + 1e-12 >= b for a, b in zip(gaps, gaps[1:])),
            "t_end": sim.t_end},
    }


def _run_shell_scan(scan, knobs: tuple, cfg: dict) -> dict:
    """strichartz-scan or kernel-scan: scan over the configured shells, with
    the scan.<knob> keys as its keyword arguments of the same names."""
    report = scan(_symbol_from(cfg), range(cfg["scan.j_min"], cfg["scan.j_max"] + 1),
                  range(cfg["scan.k_min"], cfg["scan.k_max"] + 1), seed=cfg["seed"],
                  eps=cfg["scan.eps"], workers=cfg["workers"],
                  **{knob: cfg[f"scan.{knob}"] for knob in knobs})
    return _report_artifacts(
        report, "cells", ["j", "k", "measured", "bound", "ratio"], cells=len(report.cells),
        slope_k=None if math.isnan(report.slope_k) else report.slope_k)


def _run_weyl_scan(cfg: dict) -> dict:
    report = weyl_scan(cfg["weyl.degree"], list(cfg["weyl.n_values"]),
                       trials=cfg["weyl.trials"], delta=cfg["weyl.delta"],
                       seed=cfg["seed"])
    header = ["n_terms", "trial", "q", "abs_sum", "bound", "ratio"]
    return _report_artifacts(report, "rows", header, rows=len(report.rows))


def _run_vdc_scan(cfg: dict) -> dict:
    report = vdc_scan(cfg["vdc.p"], cfg["vdc.i_min"], cfg["vdc.i_max"])
    header = ["lam", "lhs", "rhs", "rhs_alternate", "ratio", "converged"]
    return _report_artifacts(report, "rows", header, p=cfg["vdc.p"], rows=len(report.rows))


def _run_convergence(cfg: dict) -> dict:
    grid = _grid_from(cfg)
    symbol = _symbol_from(cfg)
    mode = cfg["conv.mode"]
    artifacts, report = {}, {}
    if mode in ("temporal", "both"):
        phi = _initial_from(cfg, grid)
        # each halving doubles the finest run's steps: past 64 no study is under its ceiling
        if cfg["conv.halvings"] > 64:
            raise ValueError(f"conv.halvings must be <= 64, got {cfg['conv.halvings']}")
        dts = [math.ldexp(cfg["conv.dt0"], -i) for i in range(cfg["conv.halvings"])]
        temporal = temporal_order_study(grid, symbol, phi, cfg["conv.t_end"], dts,
                                        integrator=cfg["conv.integrator"])
        artifacts["temporal.csv"] = (["dt", "error", "pairwise_order"], zip(
            temporal.dts, temporal.errors, ["", *temporal.pairwise_orders]))
        report["temporal_fitted_order"] = temporal.fitted_order
    if mode in ("spatial", "both"):
        profile = lambda g: _initial_from(cfg, g)
        spatial = spatial_convergence_study(symbol, profile, list(cfg["conv.n_values"]),
                                            cfg["conv.t_end"], cfg["conv.dt"])
        artifacts["spatial.csv"] = (["n", "error", "decades_per_doubling"], zip(
            spatial.n_values, spatial.errors, ["", *spatial.decades_per_doubling]))
        report["spatial_errors"] = spatial.errors
        report["spatial_decades_per_doubling"] = spatial.decades_per_doubling
    return {**artifacts, "report.json": report}


def _run_commutator_scan(cfg: dict) -> dict:
    report = commutator_scan(_grid_from(cfg), cfg["comm.pairs"], cfg["comm.s_values"],
                             cfg["seed"], band=cfg["comm.band"] or None, workers=cfg["workers"])
    return _report_artifacts(report, "rows", ["s", "pair", "lhs", "rhs", "ratio"],
                             pairs=cfg["comm.pairs"], s_values=cfg["comm.s_values"],
                             seed=cfg["seed"])


# each runner maps cfg to its artifacts, {file name: content}, for _write_artifacts
_RUNNERS = {
    "simulate": _run_simulate,
    "regularized-family": _run_regularized_family,
    "strichartz-scan": partial(_run_shell_scan, strichartz_scan, ("trials", "n_times", "refine")),
    "kernel-scan": partial(_run_shell_scan, kernel_decay_scan, ("samples_per_cell",)),
    "weyl-scan": _run_weyl_scan,
    "vdc-scan": _run_vdc_scan,
    "convergence": _run_convergence,
    "commutator-scan": _run_commutator_scan,
}


def _write_artifacts(out: Path, artifacts: dict) -> None:
    """Write a dict as JSON, a (header, rows) table as CSV and a field as a
    snapshot in its suffix's format; if one fails, remove them all."""
    try:
        for name, content in artifacts.items():
            if isinstance(content, dict):
                write_json(out / name, content)
            elif isinstance(content, tuple):
                write_csv(out / name, *content)
            else:
                save_field(content, out / name)
    except Exception:
        for name in artifacts:
            (out / name).unlink(missing_ok=True)
        raise


# first match wins: the ValueError subclasses with codes of their own come
# before ValueError, which covers every config value a check rejects
_EXIT_BY_ERROR = (
    (InvalidInitialDataError, EXIT_INITIAL_DATA),
    (DivergenceError, EXIT_DIVERGENCE),
    (InsufficientDataError, EXIT_INSUFFICIENT),
    (OSError, EXIT_IO),
    (ValueError, EXIT_CONFIG),
)


def _fail(exc: Exception, out: Path = None) -> int:
    code = next((c for etype, c in _EXIT_BY_ERROR if isinstance(exc, etype)), EXIT_INTERNAL)
    record = error_record(exc, code)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    if out is not None:
        try:
            write_json(out / "error.json", record)
        except OSError:
            pass
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = None
    try:
        cfg = _resolve(args)
        out = Path(args.out if args.out is not None
                   else os.path.join(os.environ.get("DGZK_OUT", "runs"), args.command))
        out.mkdir(parents=True, exist_ok=True)
        write_resolved_config(out / "resolved-config.txt", args.command, cfg)
        (out / "error.json").unlink(missing_ok=True)  # left by an earlier, failed run
        _write_artifacts(out, _RUNNERS[args.command](cfg))
    except Exception as exc:  # mapped to the documented exit-code table
        return _fail(exc, out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
