"""Command-line front end.

    dgzk <command> [--config FILE] [--out DIR] [--set key=value ...]
                   [--workers N] [--seed S]

Commands: simulate, regularized-family, strichartz-scan, weyl-scan,
kernel-scan, vdc-scan, convergence, commutator-scan.

--workers N is the `workers` key of the three parallel commands
(strichartz-scan, kernel-scan, commutator-scan); --seed S is the `seed` key
of every command except vdc-scan, which draws nothing at random.  On any
other command either flag is an unknown key and exits 2.

Every run writes resolved-config.txt into the output directory; successful
runs add CSV tables and a report.json (or summary.json); failures write an
error.json and print the same record to stderr.  Reruns with identical
configuration are byte-identical.

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
from pathlib import Path

from ._work import check_work
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
    simulate,
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
    grid = Grid(nx=cfg["grid.nx"], ny=cfg["grid.ny"])
    check_work("grid_bytes", 32 * grid.nx * grid.ny)
    return grid


def _initial_from(cfg: dict, grid: Grid):
    band = cfg["initial.band"] or None
    return initial_data(grid, cfg["initial.preset"], amplitude=cfg["initial.amplitude"],
                        seed=cfg["seed"], m=cfg["initial.m"], n=cfg["initial.n"],
                        width=cfg["initial.width"], band=band)


def _sim_config_from(cfg: dict, grid: Grid, symbol: DispersionSymbol) -> SimulationConfig:
    return SimulationConfig(grid=grid, symbol=symbol, dt=cfg["solver.dt"],
                            t_end=cfg["solver.t_end"],
                            integrator=cfg["solver.integrator"],
                            record_every=cfg["solver.record_every"],
                            h_s=tuple(cfg["solver.h_s"]))


def _rel_drift(series) -> float:
    base = max(abs(series[0]), 1e-300)
    return max(abs(v - series[0]) for v in series) / base


def _run_simulate(cfg: dict, out: Path) -> None:
    grid = _grid_from(cfg)
    symbol = _symbol_from(cfg, mu=cfg["symbol.mu"])
    sim = _sim_config_from(cfg, grid, symbol)
    phi = _initial_from(cfg, grid)
    traj = simulate(sim, phi)
    header, rows = diagnostics_csv(traj)
    write_csv(out / "diagnostics.csv", header, rows)
    masses = [d.mass for d in traj.diagnostics]
    energies = [d.energy for d in traj.diagnostics]
    summary = {
        "t_end": traj.times[-1],
        "records": len(traj.times),
        "mass_initial": masses[0],
        "mass_final": masses[-1],
        "mass_drift_rel": _rel_drift(masses),
        "energy_initial": energies[0],
        "energy_final": energies[-1],
        "energy_drift_rel": _rel_drift(energies),
        "sup_u_final": traj.diagnostics[-1].sup_u,
        "g_accum_final": traj.diagnostics[-1].g_accum,
    }
    if traj.dissipation is not None:
        summary["dissipation_final"] = traj.dissipation[-1]
    write_json(out / "summary.json", summary)
    snap = cfg["output.snapshots"]
    if snap != "none":
        suffix = ".json" if snap == "json" else ".fld"
        save_field(traj.states[0], out / f"initial{suffix}", fmt=snap)
        save_field(traj.final_state, out / f"final{suffix}", fmt=snap)


def _run_regularized_family(cfg: dict, out: Path) -> None:
    grid = _grid_from(cfg)
    symbol = _symbol_from(cfg, mu=0.0)
    sim = _sim_config_from(cfg, grid, symbol)
    phi = _initial_from(cfg, grid)
    family = solve_regularized_family(sim, phi, cfg["family.mu_list"])
    rows = zip(family.mus, family.l2_gaps, family.identity_residuals)
    write_csv(out / "family.csv", ["mu", "l2_gap_vs_mu0", "identity_residual"], rows)
    write_json(out / "report.json", {
        "mu_list": list(family.mus),
        "l2_gaps": list(family.l2_gaps),
        "identity_residuals": list(family.identity_residuals),
        "gaps_nonincreasing": all(
            family.l2_gaps[i] + 1e-12 >= family.l2_gaps[i + 1]
            for i in range(len(family.l2_gaps) - 1)),
        "t_end": sim.t_end,
    })


def _write_shell_scan(out: Path, report) -> None:
    write_csv(out / "cells.csv", ["j", "k", "measured", "bound", "ratio"], report.cells)
    write_json(out / "report.json", {
        "alpha": report.alpha, "beta": report.beta, "sign": report.sign,
        "eps": report.eps, "seed": report.seed, **report.settings,
        "slope_j": report.slope_j,
        "slope_k": None if math.isnan(report.slope_k) else report.slope_k,
        "intercept": report.intercept, "max_ratio": report.max_ratio,
        "cells": len(report.cells),
    })


def _shells_from(cfg: dict) -> tuple:
    return (_symbol_from(cfg), range(cfg["scan.j_min"], cfg["scan.j_max"] + 1),
            range(cfg["scan.k_min"], cfg["scan.k_max"] + 1))


def _run_strichartz_scan(cfg: dict, out: Path) -> None:
    _write_shell_scan(out, strichartz_scan(
        *_shells_from(cfg), trials=cfg["scan.trials"], seed=cfg["seed"],
        n_times=cfg["scan.n_times"], refine=cfg["scan.refine"],
        eps=cfg["scan.eps"], workers=cfg["workers"]))


def _run_kernel_scan(cfg: dict, out: Path) -> None:
    _write_shell_scan(out, kernel_decay_scan(
        *_shells_from(cfg), samples_per_cell=cfg["scan.samples_per_cell"], seed=cfg["seed"],
        eps=cfg["scan.eps"], workers=cfg["workers"]))


def _run_weyl_scan(cfg: dict, out: Path) -> None:
    report = weyl_scan(cfg["weyl.degree"], list(cfg["weyl.n_values"]),
                       trials=cfg["weyl.trials"], delta=cfg["weyl.delta"],
                       seed=cfg["seed"])
    write_csv(out / "rows.csv", ["n_terms", "trial", "q", "abs_sum", "bound", "ratio"],
              report.rows)
    write_json(out / "report.json", {
        "degree": report.degree, "delta": report.delta, "seed": report.seed,
        "max_ratio": report.max_ratio, "dirichlet_ok": report.dirichlet_ok,
        "rows": len(report.rows),
    })


def _run_vdc_scan(cfg: dict, out: Path) -> None:
    report = vdc_scan(cfg["vdc.p"], cfg["vdc.i_min"], cfg["vdc.i_max"])
    write_csv(out / "rows.csv", ["lam", "lhs", "rhs", "rhs_alternate", "ratio", "converged"],
              report.rows)
    write_json(out / "report.json", {
        "p": cfg["vdc.p"], "rows": len(report.rows), "unconverged": report.unconverged,
        "max_ratio": report.max_ratio, "max_lhs_scaled": report.max_lhs_scaled,
    })


def _run_convergence(cfg: dict, out: Path) -> None:
    grid = _grid_from(cfg)
    symbol = _symbol_from(cfg)
    mode = cfg["conv.mode"]
    report = {}
    if mode in ("temporal", "both"):
        phi = _initial_from(cfg, grid)
        dts = [cfg["conv.dt0"] / 2 ** i for i in range(cfg["conv.halvings"])]
        temporal = temporal_order_study(grid, symbol, phi, cfg["conv.t_end"], dts,
                                        integrator=cfg["conv.integrator"])
        rows = zip(temporal.dts, temporal.errors, ["", *temporal.pairwise_orders])
        write_csv(out / "temporal.csv", ["dt", "error", "pairwise_order"], rows)
        report["temporal_fitted_order"] = temporal.fitted_order
    if mode in ("spatial", "both"):
        profile = lambda g: _initial_from(cfg, g)
        spatial = spatial_convergence_study(symbol, profile, list(cfg["conv.n_values"]),
                                            cfg["conv.t_end"], cfg["conv.dt"])
        rows = zip(spatial.n_values, spatial.errors, ["", *spatial.decades_per_doubling])
        write_csv(out / "spatial.csv", ["n", "error", "decades_per_doubling"], rows)
        report["spatial_errors"] = list(spatial.errors)
        report["spatial_decades_per_doubling"] = list(spatial.decades_per_doubling)
    write_json(out / "report.json", report)


def _run_commutator_scan(cfg: dict, out: Path) -> None:
    report = commutator_scan(_grid_from(cfg), cfg["comm.pairs"], cfg["comm.s_values"],
                             cfg["seed"], band=cfg["comm.band"] or None, workers=cfg["workers"])
    write_csv(out / "rows.csv", ["s", "pair", "lhs", "rhs", "ratio"], report.rows)
    write_json(out / "report.json", {
        "pairs": cfg["comm.pairs"], "s_values": cfg["comm.s_values"], "band": report.band,
        "seed": cfg["seed"], "max_ratio": report.max_ratio,
    })


_RUNNERS = {
    "simulate": _run_simulate,
    "regularized-family": _run_regularized_family,
    "strichartz-scan": _run_strichartz_scan,
    "kernel-scan": _run_kernel_scan,
    "weyl-scan": _run_weyl_scan,
    "vdc-scan": _run_vdc_scan,
    "convergence": _run_convergence,
    "commutator-scan": _run_commutator_scan,
}

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
        _RUNNERS[args.command](cfg, out)
    except Exception as exc:  # mapped to the documented exit-code table
        return _fail(exc, out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
