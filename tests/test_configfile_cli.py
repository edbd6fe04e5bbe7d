"""Config parsing, resolution precedence, and the command-line front end."""
import json
import re
import signal
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_acceptance
from dgzk import cli, configfile, diagnostics, simulate, solver
from dgzk.cli import _RUNNERS, main
from dgzk.configfile import COMMANDS, SCHEMAS, parse_config_text, resolve_config
from dgzk.errors import ConfigError, DivergenceError
from dgzk.estimates import _shellscan
from dgzk.fieldio import load_field
from dgzk.presets import PRESET_NAMES


# -------------------------------------------------------------- config parsing

def test_parse_skips_blanks_and_comments():
    text = "\n# comment\n  \nsolver.dt = 1e-3\n  symbol.sign = -  \n"
    triples = parse_config_text(text, source="exp.cfg")
    assert triples == [(4, "solver.dt", "1e-3"), (5, "symbol.sign", "-")]


def test_parse_reports_source_and_line():
    with pytest.raises(ConfigError, match=r"exp\.cfg:3: expected 'key = value'"):
        parse_config_text("# ok\n\nnot a pair\n", source="exp.cfg")
    with pytest.raises(ConfigError, match=r"exp\.cfg:1: empty key"):
        parse_config_text("= 3\n", source="exp.cfg")


def test_resolution_precedence():
    pairs = [(1, "solver.dt", "2e-3"), (2, "grid.nx", "32")]
    cfg = resolve_config("simulate", pairs, overrides=["solver.dt=5e-4"])
    assert cfg["solver.dt"] == 5e-4          # override beats file
    assert cfg["grid.nx"] == 32              # file beats default
    assert cfg["grid.ny"] == 64              # untouched default


def test_unknown_keys_fail_loudly():
    with pytest.raises(ConfigError, match=r"exp\.cfg:7: unknown key 'solver\.dx'"):
        resolve_config("simulate", [(7, "solver.dx", "1")], source="exp.cfg")
    with pytest.raises(ConfigError, match="override: unknown key"):
        resolve_config("simulate", [], overrides=["nope=1"])
    with pytest.raises(ConfigError, match="unknown command"):
        resolve_config("explode", [])


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--workers", "2"], "workers"),
    (["vdc-scan", "--seed", "1"], "seed"),
])
def test_flags_without_their_key_exit_2(tmp_path, capsys, argv, key):
    # only commands that read a key accept it, so the flag cannot be ignored
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"] == f"override: unknown key {key!r} for command {argv[0]!r}"


class _ReadLog(dict):
    """A resolved config that records every key a runner reads."""

    def __init__(self, resolved):
        super().__init__(resolved)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# small settings that reach every branch that reads a key of the command
_SMALL_RUNS = {
    "simulate": ["grid.nx=16", "grid.ny=16", "solver.dt=5e-3", "solver.t_end=0.01"],
    "regularized-family": ["grid.nx=16", "grid.ny=16", "solver.dt=5e-3",
                           "solver.t_end=0.01"],
    "strichartz-scan": ["scan.j_min=1", "scan.j_max=2", "scan.k_min=1", "scan.k_max=1",
                        "scan.trials=1"],
    "kernel-scan": ["scan.j_min=1", "scan.j_max=2", "scan.k_min=1", "scan.k_max=2",
                    "scan.samples_per_cell=1"],
    "weyl-scan": ["weyl.n_values=8,16", "weyl.trials=1"],
    "vdc-scan": ["vdc.i_max=1"],
    "convergence": ["grid.nx=8", "grid.ny=8", "conv.dt0=5e-3", "conv.halvings=2",
                    "conv.t_end=0.01", "conv.n_values=8,16", "conv.dt=5e-3"],
    "commutator-scan": ["grid.nx=16", "grid.ny=16", "comm.pairs=1", "comm.s_values=1"],
}


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_every_config_key_is_read(tmp_path, command):
    # a key no runner reads is a setting that silently does nothing;
    # resolve_config reads scan.preset itself
    cfg = _ReadLog(resolve_config(command, overrides=_SMALL_RUNS[command]))
    _RUNNERS[command](cfg)
    assert sorted(set(cfg) - cfg.read - {"scan.preset"}) == []


def test_value_casting():
    cfg = resolve_config("simulate", [
        (1, "symbol.sign", "minus"),
        (2, "solver.integrator", "ifrk4"),
        (3, "solver.h_s", "1, 1.5, 2"),
    ])
    assert cfg["symbol.sign"] == -1
    assert cfg["solver.integrator"] == "ifrk4"
    assert cfg["solver.h_s"] == (1.0, 1.5, 2.0)
    cfg = resolve_config("simulate", [], overrides=["symbol.sign=+1"])
    assert cfg["symbol.sign"] == 1
    with pytest.raises(ConfigError, match=r"exp\.cfg:1: bad value"):
        resolve_config("simulate", [(1, "symbol.sign", "2")], source="exp.cfg")
    with pytest.raises(ConfigError, match="not of the form"):
        resolve_config("simulate", [], overrides=["solver.dt"])


# ------------------------------------------------------------------------- cli

def _simulate_args(out, *extra):
    base = ["simulate", "--out", str(out),
            "--set", "grid.nx=16", "--set", "grid.ny=16",
            "--set", "solver.t_end=0.01", "--set", "solver.dt=1e-3"]
    for kv in extra:
        base += ["--set", kv]
    return base


def test_simulate_writes_artifacts_and_reruns_identically(tmp_path):
    out = tmp_path / "run"
    assert main(_simulate_args(out, "initial.preset=zero")) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["diagnostics.csv", "resolved-config.txt", "summary.json"]
    first = {n: (out / n).read_bytes() for n in names}
    summary = json.loads(first["summary.json"])
    assert summary["mass_initial"] == 0.0
    assert summary["records"] >= 2

    assert main(_simulate_args(out, "initial.preset=zero")) == 0
    for n in names:
        assert (out / n).read_bytes() == first[n]


def test_resolved_config_echoes_overrides(tmp_path):
    out = tmp_path / "run"
    assert main(_simulate_args(out, "initial.preset=zero")) == 0
    text = (out / "resolved-config.txt").read_text()
    assert text.splitlines()[0] == "command = simulate"
    assert "grid.nx = 16" in text
    assert "initial.preset = zero" in text
    assert "solver.integrator = etdrk4" in text


def test_config_file_feeds_the_run(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# small box\ngrid.nx = 16\ngrid.ny = 16\n"
                   "initial.preset = zero\nsolver.t_end = 0.01\n")
    out = tmp_path / "run"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out),
               "--set", "solver.dt=2e-3"])
    assert rc == 0
    text = (out / "resolved-config.txt").read_text()
    assert "grid.nx = 16" in text
    assert "solver.dt = 0.002" in text


def test_config_parse_error_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("grid.nx = 16\nwat\n")
    out = tmp_path / "run"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["exit_code"] == 2
    assert "exp.cfg:2" in record["error"]["message"]


def test_missing_config_file_exits_2(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "run")])
    assert rc == 2


def test_domain_violation_exits_2_with_error_json(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(_simulate_args(out, "symbol.alpha=0"))
    assert rc == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["exit_code"] == 2
    assert "1, 2, 3" in record["error"]["message"]
    stderr_record = json.loads(capsys.readouterr().err)
    assert stderr_record == record


def test_divergence_exits_4(tmp_path):
    out = tmp_path / "run"
    with pytest.warns(RuntimeWarning):
        rc = main(["simulate", "--out", str(out),
                   "--set", "grid.nx=32", "--set", "grid.ny=32",
                   "--set", "initial.preset=single-mode",
                   "--set", "initial.amplitude=1e6",
                   "--set", "solver.dt=0.1", "--set", "solver.t_end=0.4"])
    assert rc == 4
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["type"] == "DivergenceError"
    assert "diverged" in record["error"]["message"]


def _simulate_settings(settings):
    """The resolved simulate config of settings and its argv after --out."""
    argv = [part for kv in settings for part in ("--set", kv)]
    return resolve_config("simulate", [], settings), argv


def _from_simulate(cfg: dict):
    """simulate's run of a resolved simulate config."""
    grid = cli._grid_from(cfg)
    sim = cli._sim_config_from(cfg, grid, cli._symbol_from(cfg, mu=cfg["symbol.mu"]))
    return simulate(sim, cli._initial_from(cfg, grid))


def _artifacts_of(traj, snapshots: str) -> dict:
    """The simulate artifacts of a Trajectory, built from all its records and states."""
    last = traj.diagnostics[-1]
    summary = {"t_end": traj.times[-1], "records": len(traj.times),
               "sup_u_final": last.sup_u, "g_accum_final": last.g_accum}
    for name in ("mass", "energy"):
        series = [getattr(d, name) for d in traj.diagnostics]
        summary.update({f"{name}_initial": series[0], f"{name}_final": series[-1],
                        f"{name}_drift_rel": max(abs(v - series[0]) for v in series)
                        / max(abs(series[0]), 1e-300)})
    if traj.dissipation is not None:
        summary["dissipation_final"] = traj.dissipation[-1]
    artifacts = {"diagnostics.csv": diagnostics.diagnostics_csv(traj.diagnostics, traj.config.h_s),
                 "summary.json": summary}
    if snapshots != "none":
        suffix = ".json" if snapshots == "json" else ".fld"
        artifacts.update({f"initial{suffix}": traj.states[0], f"final{suffix}": traj.final_state})
    return artifacts


def _force_order(monkeypatch, order):
    """Make every run stream (its blocks outweigh a stepper of 0 bytes) or
    keep simulate's order (a stepper of 2^62 bytes); None leaves the rule."""
    if order is not None:
        nbytes = 0 if order == "stream" else 2**62
        monkeypatch.setattr(solver._BlockStepper, "nbytes", lambda self: nbytes)


@pytest.mark.parametrize("settings, natural", [
    # 61 recorded blocks of 1.7 KB against a stepper of about 22 blocks: streams
    (["grid.nx=32", "grid.ny=32", "initial.preset=random-band", "solver.t_end=0.06",
      "solver.record_every=1", "output.snapshots=binary"], "stream"),
    # 6 blocks: simulate's order
    (["grid.nx=48", "grid.ny=40", "initial.preset=gaussian-bell", "symbol.mu=0.001",
      "solver.integrator=ifrk4", "solver.dt=2e-3", "solver.t_end=0.05",
      "solver.record_every=5", "solver.h_s=1,2", "output.snapshots=json"], "kept"),
])
@pytest.mark.parametrize("order", [None, "stream", "kept"])
def test_streamed_and_kept_order_runs_write_the_artifacts_of_simulate(
        tmp_path, monkeypatch, settings, natural, order):
    cfg, argv = _simulate_settings(settings)
    want = tmp_path / "want"
    want.mkdir()
    cli._write_artifacts(want, _artifacts_of(_from_simulate(cfg), cfg["output.snapshots"]))
    _force_order(monkeypatch, order)
    kept_order = []
    trajectory = solver._trajectory
    monkeypatch.setattr(solver, "_trajectory", lambda *a: kept_order.append(1) or trajectory(*a))
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), *argv]) == 0
    assert kept_order == ([1] if (order or natural) == "kept" else [])
    names = sorted(p.name for p in want.iterdir())
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["resolved-config.txt"])
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


@pytest.mark.parametrize("order", [None, "stream"])
@pytest.mark.parametrize("record_every", [1, 10])
@pytest.mark.parametrize("amplitude, t_end", [
    (333.839, 0.02), (414.024, 0.015),
    # step 4's record is inf - inf, and step 5 overflows its norm: the step wins
    (333.839, 0.025)])
def test_a_run_whose_record_overflows_exits_4_at_simulate_s_step(
        tmp_path, monkeypatch, amplitude, t_end, record_every, order):
    """Through the CLI, in either order, the run fails where simulate does,
    with the warnings simulate gives in the same order."""
    cfg, argv = _simulate_settings(["grid.nx=16", "grid.ny=16", "initial.preset=cos-x",
                                    f"initial.amplitude={amplitude}", "solver.dt=5e-3",
                                    f"solver.t_end={t_end}", f"solver.record_every={record_every}"])
    seen = {}
    for side in ("simulate", "cli"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if side == "simulate":
                with pytest.raises(DivergenceError) as info:
                    _from_simulate(cfg)
            else:
                _force_order(monkeypatch, order)
                assert main(["simulate", "--out", str(tmp_path), *argv]) == 4
        seen[side] = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    assert seen["cli"] == seen["simulate"]
    error = json.loads((tmp_path / "error.json").read_text())["error"]
    assert error["type"] == "DivergenceError" and error["message"] == str(info.value)


def _traced_peak(argv) -> float:
    """tracemalloc peak of a CLI run above the memory it started from, after
    a first run of the same argv has made the caches and imports."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_run_that_records_every_step_keeps_two_blocks(tmp_path):
    """A 128^2 run that records each of 200 steps streams: it peaks below
    half the 14.16 MB that holding its 201 blocks (11.8 MB) took."""
    peak = _traced_peak(_simulate_args(
        tmp_path, "grid.nx=128", "grid.ny=128", "initial.preset=random-band",
        "solver.t_end=0.2", "solver.record_every=1", "output.snapshots=binary"))
    assert peak < 14.16e6 / 2


def test_a_run_with_few_records_peaks_no_higher_than_in_simulate_s_order(tmp_path):
    """A 256^2 run with 4 records keeps simulate's order and its 9.78 MB
    peak: streaming would keep the stepper's 22 blocks next to the 2x planes."""
    peak = _traced_peak(_simulate_args(
        tmp_path, "grid.nx=256", "grid.ny=256", "initial.preset=random-band",
        "solver.t_end=0.03", "solver.record_every=10"))
    assert peak <= 9.78e6


def test_underresolved_scan_exits_5(tmp_path):
    out = tmp_path / "run"
    rc = main(["strichartz-scan", "--out", str(out),
               "--set", "scan.j_min=3", "--set", "scan.j_max=3"])
    assert rc == 5
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["type"] == "InsufficientDataError"


@pytest.mark.parametrize("settings", [["scan.j_min=5", "scan.j_max=3"],
                                      ["scan.k_min=3", "scan.k_max=1"]],
                         ids=["no-j", "no-k"])
def test_empty_shell_range_exits_5(tmp_path, settings):
    out = tmp_path / "run"
    args = ["strichartz-scan", "--out", str(out)]
    for kv in settings:
        args += ["--set", kv]
    assert main(args) == 5
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["type"] == "InsufficientDataError"
    assert "two distinct j" in record["error"]["message"]


@pytest.mark.parametrize("command, settings, exit_code, error_type", [
    ("convergence", ["conv.mode=temporal", "conv.halvings=1"], 5, "InsufficientDataError"),
    ("convergence", ["conv.mode=temporal", "conv.halvings=0"], 5, "InsufficientDataError"),
    ("simulate", ["initial.preset=random-band", "initial.band=-3"], 2, "ValueError"),
    ("commutator-scan", ["comm.band=-2", "comm.pairs=1"], 2, "ValueError"),
    ("simulate", ["initial.preset=gaussian-bell", "initial.width=0"], 2, "ValueError"),
    # every dt above 2 * t_end rounds to the same single step
    ("convergence", ["conv.mode=temporal", "conv.dt0=0.3", "conv.halvings=3"], 5,
     "InsufficientDataError"),
    # step counts 1, 1, 1, 3: three dts would enter the fit with one identical run
    ("convergence", ["conv.mode=temporal", "conv.dt0=0.3", "conv.halvings=4"], 5,
     "InsufficientDataError"),
    ("convergence", ["conv.mode=spatial", "conv.n_values=16"], 5, "InsufficientDataError"),
    ("commutator-scan", ["comm.band=1000", "comm.pairs=1"], 2, "ValueError"),
    ("simulate", ["initial.preset=random-band", "initial.band=1000"], 2, "ValueError"),
    ("convergence", ["conv.mode=temporal", "conv.t_end=-0.1"], 2, "ValueError"),
    # 171! is not a finite float
    ("vdc-scan", ["vdc.p=171"], 2, "ValueError"),
    ("vdc-scan", ["vdc.p=200"], 2, "ValueError"),
    # 2.0 ** 1024 overflows
    ("vdc-scan", ["vdc.i_min=1024", "vdc.i_max=1024"], 2, "ValueError"),
    # dts down to 4e-3 / 2^39: about 1e14 steps, far past MAX_WORK["study"]
    ("convergence", ["conv.mode=temporal", "conv.halvings=40"], 2, "ValueError"),
    # t_end / dt overflows to inf, which no step count can hold
    ("simulate", ["solver.t_end=1e300", "solver.dt=1e-300"], 2, "ValueError"),
    ("convergence", ["conv.mode=temporal", "conv.dt0=0"], 2, "ValueError"),
    # 2.0 ** (s_j j + s_k k) overflows, or underflows to a zero bound
    ("strichartz-scan", ["scan.eps=1e300"], 2, "ValueError"),
    ("strichartz-scan", ["scan.eps=-1e300"], 2, "ValueError"),
    ("kernel-scan", ["scan.eps=1e300"], 2, "ValueError"),
    ("kernel-scan", ["scan.eps=-1e300"], 2, "ValueError"),
    # N ** (1 + delta) overflows
    ("weyl-scan", ["weyl.delta=1e300"], 2, "ValueError"),
    # 2 ** 1100 is no float; a billion halvings would build a billion dts
    ("convergence", ["conv.mode=temporal", "conv.halvings=1100"], 2, "ValueError"),
    ("convergence", ["conv.mode=temporal", "conv.halvings=1000000000"], 2, "ValueError"),
    # s log2(1 + max|k|^2) < 1000 keeps (1 + |k|^2)^s finite: on the grid for h_s,
    # on the 2x grid for the commutator; just inside the limit a run exits 0
    ("simulate", ["grid.nx=64", "grid.ny=64", "solver.t_end=0.01", "solver.h_s=80"], 0, None),
    ("simulate", ["grid.nx=64", "grid.ny=64", "solver.h_s=100"], 2, "ValueError"),
    ("commutator-scan", ["comm.pairs=1", "comm.s_values=100"], 0, None),
    ("commutator-scan", ["comm.pairs=1", "comm.s_values=150"], 2, "ValueError"),
], ids=["one-dt", "no-dt", "negative-band", "negative-comm-band", "zero-width",
        "one-step-count", "shared-step-count", "one-resolution", "comm-band-beyond-grid",
        "band-beyond-grid", "negative-temporal-t-end", "vdc-p-171", "vdc-p-200",
        "vdc-i-max-1024", "unbounded-temporal-work", "overflowing-steps", "zero-temporal-dt",
        "strichartz-eps-1e300", "strichartz-eps-minus-1e300", "kernel-eps-1e300",
        "kernel-eps-minus-1e300", "weyl-delta-1e300", "halvings-1100", "halvings-1e9",
        "h-s-80-at-64", "h-s-100-at-64", "comm-s-100-at-16", "comm-s-150-at-16"])
def test_out_of_domain_values_exit_with_their_code(tmp_path, command, settings,
                                                   exit_code, error_type):
    out = tmp_path / "run"
    args = [command, "--out", str(out)]
    if "grid.nx" in SCHEMAS[command]:
        args += ["--set", "grid.nx=16", "--set", "grid.ny=16"]
    for kv in settings:
        args += ["--set", kv]
    start = time.perf_counter()
    assert main(args) == exit_code
    assert time.perf_counter() - start < 1.0  # rejected before any run starts
    if exit_code == 0:
        _assert_finite_artifacts(out)
        return
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["type"] == error_type
    if command == "vdc-scan":
        # the offending parameter and its limit are named
        limit = {"vdc.p": "p must be <= 170", "vdc.i_max": "i_max must be <= 1023"}
        assert limit[settings[-1].split("=")[0]] in record["error"]["message"]


@pytest.mark.parametrize("command, settings", [
    ("strichartz-scan", ["scan.trials=2"]),
    ("kernel-scan", ["scan.samples_per_cell=3"]),
])
def test_two_workers_write_the_artifacts_of_one(tmp_path, command, settings):
    """Cells run costliest first on two workers; the artifacts keep their
    bytes, and resolved-config.txt differs only in its workers line."""
    files = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        args = [command, "--out", str(out), "--workers", str(workers)]
        for kv in settings:
            args += ["--set", kv]
        assert main(args) == 0
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(files[0]) == ["cells.csv", "report.json", "resolved-config.txt"]
    for name in ("cells.csv", "report.json"):
        assert files[0][name] == files[1][name]
    assert (files[0]["resolved-config.txt"].replace(b"workers = 1", b"workers = 2")
            == files[1]["resolved-config.txt"])


@pytest.mark.parametrize("workers", ["0", "-1", str(10**6)])
@pytest.mark.parametrize("command", ["strichartz-scan", "kernel-scan", "commutator-scan"])
def test_workers_outside_their_range_exit_2_before_any_pool(tmp_path, monkeypatch, command,
                                                              workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("built a thread pool")

    monkeypatch.setattr(_shellscan, "ThreadPoolExecutor", no_pool)
    out = tmp_path / "run"
    assert main([command, "--out", str(out), "--workers", workers]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["type"] == "ValueError"
    assert "workers must lie in [1, 64]" in record["error"]["message"]


@pytest.mark.parametrize("command, settings", [
    ("simulate", ["grid.nx=64", "grid.ny=8", "initial.preset=random-band",
                  "solver.t_end=0.01"]),
    ("commutator-scan", ["grid.nx=32", "grid.ny=8", "comm.pairs=1"]),
])
def test_default_band_runs_on_an_elongated_grid(tmp_path, command, settings):
    # the default bands, nx/8 and nx/4, reach past ny/2 here: the draw keeps
    # every y mode, and only a band past both axes is rejected
    args = [command, "--out", str(tmp_path / "run")]
    for kv in settings:
        args += ["--set", kv]
    assert main(args) == 0


def test_output_path_collision_exits_6(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("occupied\n")
    rc = main(_simulate_args(blocker, "initial.preset=zero"))
    assert rc == 6
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["exit_code"] == 6


def _names(out):
    return sorted(p.name for p in out.iterdir())


def test_failed_run_leaves_only_its_config_and_error(tmp_path):
    # the temporal study succeeds before the spatial one fails: its table is not written
    out = tmp_path / "run"
    args = ["convergence", "--out", str(out)]
    for kv in _SMALL_RUNS["convergence"] + ["conv.n_values=16"]:
        args += ["--set", kv]
    assert main(args) == 5
    assert _names(out) == ["error.json", "resolved-config.txt"]


def test_successful_rerun_removes_a_stale_error_json(tmp_path):
    out = tmp_path / "run"
    assert main(_simulate_args(out, "solver.dt=-1")) == 2
    assert _names(out) == ["error.json", "resolved-config.txt"]
    assert main(_simulate_args(out)) == 0
    assert _names(out) == ["diagnostics.csv", "resolved-config.txt", "summary.json"]


def test_failed_rerun_keeps_the_earlier_artifacts_and_marks_itself_failed(tmp_path):
    """A failed run removes no artifact of an earlier run in its directory:
    error.json and the new resolved-config.txt mark the last run as failed."""
    out = tmp_path / "run"
    assert main(_simulate_args(out)) == 0
    kept = {n: (out / n).read_bytes() for n in ("diagnostics.csv", "summary.json")}
    assert main(_simulate_args(out, "solver.dt=-1")) == 2
    assert _names(out) == ["diagnostics.csv", "error.json", "resolved-config.txt",
                           "summary.json"]
    assert {n: (out / n).read_bytes() for n in kept} == kept
    assert "solver.dt = -1" in (out / "resolved-config.txt").read_text()
    assert json.loads((out / "error.json").read_text())["error"]["exit_code"] == 2


@pytest.mark.parametrize("leak", [
    {"rows.csv": (["x"], [[1.0]]), "report.json": {"max_ratio": float("nan")}},
    {"report.json": {"max_ratio": 1.0}, "rows.csv": (["x"], [[1.0], [float("-inf")]])},
], ids=["json-nan", "csv-inf"])
def test_a_non_finite_number_exits_7_and_leaves_no_artifact(tmp_path, monkeypatch, leak):
    # the artifact written before the leak is removed with it
    monkeypatch.setitem(_RUNNERS, "vdc-scan", lambda cfg: leak)
    out = tmp_path / "run"
    assert main(["vdc-scan", "--out", str(out)]) == 7
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["type"] == "RuntimeError"
    assert error["message"].startswith(f"{list(leak)[1]} would hold a non-finite number")
    assert _names(out) == ["error.json", "resolved-config.txt"]


def test_zero_data_has_a_documented_outcome(tmp_path):
    # the L2 identity 0 = 0 + 0 holds exactly; a zero temporal error has no logarithm
    family = tmp_path / "family"
    args = ["regularized-family", "--out", str(family), "--set", "initial.preset=zero"]
    for kv in _SMALL_RUNS["regularized-family"]:
        args += ["--set", kv]
    assert main(args) == 0
    report = json.loads((family / "report.json").read_text())
    assert report["identity_residuals"] == [0.0] * len(report["mu_list"])
    conv = tmp_path / "conv"
    args = ["convergence", "--out", str(conv), "--set", "initial.preset=zero",
            "--set", "conv.mode=temporal"]
    for kv in _SMALL_RUNS["convergence"]:
        args += ["--set", kv]
    assert main(args) == 5
    error = json.loads((conv / "error.json").read_text())["error"]
    assert error["type"] == "InsufficientDataError"
    assert "no logarithm" in error["message"]


def test_csv_cells_are_plain_numbers(tmp_path):
    # numpy scalars must not reach a cell as their repr, np.float64(...)
    sim, conv = tmp_path / "sim", tmp_path / "conv"
    assert main(_simulate_args(sim, "initial.preset=random-band",
                               "solver.record_every=1")) == 0
    assert main(["convergence", "--out", str(conv), "--set", "grid.nx=16",
                 "--set", "grid.ny=16", "--set", "conv.halvings=2",
                 "--set", "conv.t_end=0.01", "--set", "conv.n_values=8,16"]) == 0
    for path in (sim / "diagnostics.csv", conv / "temporal.csv", conv / "spatial.csv"):
        for row in path.read_text().splitlines()[1:]:
            for cell in row.split(","):
                if cell:
                    float(cell)
    # cos-x has u_y = 0: its sup is +0.0, never -0.0
    cos_x = tmp_path / "cos-x"
    assert main(_simulate_args(cos_x, "initial.preset=cos-x")) == 0
    assert "-0.0" not in (cos_x / "diagnostics.csv").read_text()


def test_summary_reports_the_requested_t_end(tmp_path):
    # 0.03 does not divide 0.1: the run takes 3 steps of 0.1/3
    out = tmp_path / "run"
    assert main(_simulate_args(out, "initial.preset=cos-x",
                               "solver.dt=0.03", "solver.t_end=0.1")) == 0
    assert json.loads((out / "summary.json").read_text())["t_end"] == 0.1


def _standard_json_only(constant):
    raise ValueError(f"{constant} is not standard JSON")


def _assert_finite_artifacts(out):
    """Every JSON artifact is standard JSON and every CSV cell a finite number
    (or empty), as a run that exits 0 must leave them."""
    for path in Path(out).iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_standard_json_only)
        elif path.suffix == ".csv":
            for row in path.read_text().splitlines()[1:]:
                cells = [float(cell) for cell in row.split(",") if cell]
                assert np.all(np.isfinite(cells)), (path.name, row)


_NONFINITE = ("nan", "inf", "-inf", "1e400")
_BAD_TOKEN = st.sampled_from(_NONFINITE + ("0", "-1", "-0.5", "abc", ""))
# bounded finite draws: dt >= 1e-3 and t_end <= 0.05 keep every run <= 50 steps
_FUZZ = {
    "solver.dt": st.floats(1e-3, 1.0),
    "solver.t_end": st.floats(1e-6, 0.05),
    "initial.amplitude": st.floats(-1e3, 1e3),
    "symbol.beta": st.floats(-2.0, 2.0),
    "symbol.mu": st.floats(-1.0, 10.0),
}


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({key: st.one_of(st.none(), _BAD_TOKEN, draw.map(repr))
                              for key, draw in _FUZZ.items()}))
def test_fuzzed_values_map_to_documented_exit_codes(values):
    chosen = [f"{key}={raw}" for key, raw in values.items() if raw is not None]
    with tempfile.TemporaryDirectory() as tmp:
        rc = main(_simulate_args(Path(tmp) / "run", "initial.preset=cos-x", *chosen))
        if rc == 0:
            _assert_finite_artifacts(Path(tmp) / "run")
    assert rc in (0, 2, 3, 4, 5, 6)
    if any(raw in _NONFINITE for raw in values.values()):
        assert rc == 2


_NUMERIC = (configfile._int, configfile._float, configfile._int_list, configfile._float_list)
_HUGE = ("1e300", "-1e300", str(10**300), str(-10**300))
_ANY_BAD_TOKEN = st.one_of(_BAD_TOKEN, st.sampled_from(_HUGE))


def _joined(draw):
    return st.lists(draw, min_size=1, max_size=3).map(lambda xs: ",".join(map(repr, xs)))


# a small box per numeric key of every command (_FUZZ's for its five keys),
# mostly valid values and their edges (bad tokens probe the rest): on top of
# the command's _SMALL_RUNS settings, each draw keeps a run well under a second
_SIDES = st.sampled_from((8, 12, 16, 24))
_BOX = {
    **_FUZZ,
    "seed": st.integers(0, 2**40), "workers": st.integers(1, 2),
    "grid.nx": _SIDES, "grid.ny": _SIDES, "symbol.alpha": st.integers(1, 3),
    "initial.m": st.integers(0, 6), "initial.n": st.integers(-6, 6),
    "initial.width": st.floats(0.0, 2.0), "initial.band": st.integers(0, 8),
    "solver.record_every": st.integers(1, 60), "solver.h_s": _joined(st.floats(-1.0, 3.0)),
    "family.mu_list": _joined(st.floats(0.0, 1.0)),
    "scan.j_min": st.integers(1, 3), "scan.j_max": st.integers(1, 3),
    "scan.k_min": st.integers(0, 3), "scan.k_max": st.integers(0, 3),
    "scan.trials": st.integers(1, 2), "scan.n_times": st.integers(1, 16),
    "scan.refine": st.integers(0, 4), "scan.samples_per_cell": st.integers(1, 2),
    "scan.eps": st.floats(-1.5, 1.5),
    "weyl.degree": st.integers(1, 200), "weyl.n_values": _joined(st.integers(1, 128)),
    "weyl.trials": st.integers(1, 4), "weyl.delta": st.floats(0.0, 1.5),
    "vdc.p": st.integers(0, 200), "vdc.i_min": st.integers(0, 3), "vdc.i_max": st.integers(0, 3),
    "conv.dt0": st.floats(1e-3, 1.0), "conv.halvings": st.integers(0, 4),
    "conv.t_end": st.floats(1e-6, 0.02), "conv.n_values": _joined(_SIDES.filter(lambda n: n < 24)),
    "conv.dt": st.floats(2e-3, 1.0),
    "comm.pairs": st.integers(1, 2), "comm.s_values": _joined(st.floats(-1.0, 3.0)),
    "comm.band": st.integers(0, 8),
    "initial.preset": st.sampled_from(PRESET_NAMES),
}


def _numeric_keys(command):
    return [key for key, opt in SCHEMAS[command].items() if opt.cast in _NUMERIC]


def _boxed_keys(command):
    """The command's keys with a fuzz box: its numeric keys and initial.preset."""
    return [key for key in SCHEMAS[command] if key in _BOX]


class _Overrun(BaseException):
    """Raised by the alarm below; main maps every Exception to an exit code."""


def _exit_code_within(seconds, command, settings):
    """main's exit code for command with settings on top of its _SMALL_RUNS ones;
    _Overrun if it takes longer than seconds.  A run that exits 0 must leave
    only finite numbers in its artifacts."""
    def overrun(signum, frame):
        raise _Overrun(f"{command} {settings} ran past {seconds} s")

    with tempfile.TemporaryDirectory() as tmp:
        args = [command, "--out", str(Path(tmp) / "run")]
        for kv in _SMALL_RUNS[command] + settings:
            args += ["--set", kv]
        previous = signal.signal(signal.SIGALRM, overrun)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            rc = main(args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if rc == 0:
            _assert_finite_artifacts(Path(tmp) / "run")
        return rc


def _rejected(command, key, raw):
    try:
        SCHEMAS[command][key].cast(raw)
    except ValueError:
        return True
    return False


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the runs that may go on
def test_extreme_values_of_every_numeric_key_exit_at_once(capsys):
    """Bad tokens, non-finite values and +-1e300 (as floats and as ints) of
    every numeric key of every command end within a second, never with 7;
    a value the key's cast rejects exits 2."""
    # every numeric key also has a fuzz box, and so has initial.preset
    assert (sorted({key for command in SCHEMAS for key in _numeric_keys(command)})
            == sorted(set(_BOX) - {"initial.preset"}))
    for command in COMMANDS:
        for key in _numeric_keys(command):
            for raw in _NONFINITE + _HUGE + ("abc", ""):
                rc = _exit_code_within(1.0, command, [f"{key}={raw}"])
                assert rc in (0, 2, 3, 4, 5, 6), (command, key, raw, capsys.readouterr().err)
                if _rejected(command, key, raw):
                    assert rc == 2, (command, key, raw)


# box draws for some numeric keys (and the preset) of one command, and at times a few bad tokens
_CASES = st.sampled_from(COMMANDS).flatmap(lambda command: st.tuples(
    st.just(command),
    st.fixed_dictionaries({key: st.one_of(st.none(), _BOX[key].map(str))
                           for key in _boxed_keys(command)}),
    st.lists(st.tuples(st.sampled_from(_numeric_keys(command)), _ANY_BAD_TOKEN), max_size=3)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_CASES)
@example(("strichartz-scan", {}, [("scan.eps", "1e300")]))
@example(("kernel-scan", {}, [("scan.eps", "-1e300")]))
@example(("weyl-scan", {}, [("weyl.delta", "1e300")]))
@example(("convergence", {}, [("conv.halvings", "1100")]))
# zero data: the identity residual is 0, and a temporal fit has no logarithm (exit 5)
@example(("regularized-family", {"initial.preset": "zero"}, []))
@example(("convergence", {"initial.preset": "zero"}, []))
@example(("regularized-family", {"initial.amplitude": "1e-300"}, []))
# every entry of the mu = 0 run stays finite, but its squared norm overflows at step 7 (exit 4)
@example(("regularized-family", {"initial.amplitude": "266", "solver.t_end": "0.033203125"}, []))
# the last state and its squared norm stay finite, but its record's energy is inf - inf (exit 4)
@example(("simulate", {"initial.amplitude": "333.839", "solver.t_end": "0.02"}, []))
@example(("simulate", {"initial.amplitude": "414.024", "solver.t_end": "0.015"}, []))
# the scan checks its time samples, though it builds its evaluators without strichartz_norm
@example(("strichartz-scan", {"scan.n_times": "1"}, []))
def test_fuzzed_values_of_every_command_map_to_documented_exit_codes(case):
    command, values, bad = case
    values = {key: raw for key, raw in values.items() if raw is not None}
    values.update(bad)
    rc = _exit_code_within(5.0, command, [f"{key}={raw}" for key, raw in values.items()])
    assert rc in (0, 2, 3, 4, 5, 6)
    if any(_rejected(command, key, raw) for key, raw in values.items()):
        assert rc == 2


def test_snapshot_output_round_trips(tmp_path):
    out = tmp_path / "run"
    rc = main(_simulate_args(out, "initial.preset=cos-x", "output.snapshots=json"))
    assert rc == 0
    initial = load_field(out / "initial.json")
    final = load_field(out / "final.json")
    assert initial.grid.nx == 16 and final.grid.ny == 16
    assert np.any(initial.coeffs != 0.0)


def test_scan_preset_resolves_and_runs(tmp_path):
    out = tmp_path / "run"
    rc = main(["kernel-scan", "--out", str(out), "--set", "scan.preset=alpha1-small"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["cells"] == 9
    assert report["slope_j"] <= -0.15
    text = (out / "resolved-config.txt").read_text()
    assert "scan.preset = alpha1-small" in text
    assert "scan.j_min = 4" in text


def test_unknown_scan_preset_exits_2(tmp_path):
    rc = main(["kernel-scan", "--out", str(tmp_path / "run"),
               "--set", "scan.preset=mystery"])
    assert rc == 2


def test_weyl_scan_run(tmp_path):
    out = tmp_path / "run"
    rc = main(["weyl-scan", "--out", str(out),
               "--set", "weyl.n_values=64,128", "--set", "weyl.trials=5"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["dirichlet_ok"] is True
    assert report["rows"] == 10
    assert 0.0 < report["max_ratio"] <= 10.0
    header = (out / "rows.csv").read_text().splitlines()[0]
    assert header == "n_terms,trial,q,abs_sum,bound,ratio"


def test_weyl_degree_below_one_exits_2(tmp_path):
    # weyl-scan has no grid.* keys, so this cannot share the grid-keyed table
    out = tmp_path / "run"
    assert main(["weyl-scan", "--out", str(out), "--set", "weyl.degree=-1"]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["type"] == "ValueError"
    assert "degree must be >= 1" in record["error"]["message"]


@pytest.mark.parametrize("command, settings, units", [
    # 1e8 trials of the default sizes are 1.3e11 terms
    ("weyl-scan", ["weyl.trials=100000000"], "trials * sum(N)"),
    # 1e8 trials of the default cells are 3.2e14 grid-point samples
    ("strichartz-scan", ["scan.trials=100000000"], "trials * sum of nx * ny * n_times"),
    # 1001 rows of up to 2^22 nodes are 4.2e9 nodes
    ("vdc-scan", ["vdc.i_max=1000"], "quadrature nodes (rows * 2^22)"),
    # 3e8 pairs on the 128^2 doubled grid are 4.9e12 grid points
    ("commutator-scan", ["comm.pairs=100000000"], "pairs * len(s_values) * 2nx * 2ny"),
    # 1e8 samples of the default cells' 1.7e5 lattice terms and 9 call charges are 3.5e13
    ("kernel-scan", ["scan.samples_per_cell=100000000"], "(samples_per_cell + 2) * sum"),
    # 1e7 samples of the four cells j, k = 1..2 hold only 441 lattice terms,
    # but each call costs about 155 us: 8.0e11 terms with the per-call charge
    ("kernel-scan", ["scan.j_min=1", "scan.j_max=2", "scan.k_min=1", "scan.k_max=2",
                     "scan.samples_per_cell=10000000"], "per kernel_sum call"),
    # 100 steps at 1024^2, 2048^2 and the 4096^2 reference are 2.2e9 grid-point steps
    ("convergence", ["conv.mode=spatial", "conv.n_values=1024,2048"],
     "grid-point steps (sum of steps * nx * ny over the runs)"),
    # the 2x plane of the 16384^2 reference grid takes 8.6e9 bytes
    ("convergence", ["conv.mode=spatial", "conv.n_values=4096,8192"],
     "bytes of the largest array"),
    # one trial of N = 64 at degree 1e8 is 6.4e9 terms and 1e8 coefficient columns
    ("weyl-scan", ["weyl.degree=100000000", "weyl.trials=1", "weyl.n_values=64"],
     "(degree + 1) * trials * sum(N)"),
    # one trial of N = 1 is only 1e6 terms, but each of its 1e6 coefficient
    # columns takes draw and sum passes of about 80 us: 2e10 terms with the per-column charge
    ("weyl-scan", ["weyl.degree=1000000", "weyl.trials=1", "weyl.n_values=1"],
     "per coefficient column"),
    # 2e8 rows of one term each, at about 8 us a row: 4e11 terms with the per-row charge
    ("weyl-scan", ["weyl.degree=1", "weyl.trials=200000000", "weyl.n_values=1"], "per row"),
], ids=["weyl", "strichartz", "vdc", "commutator", "kernel", "kernel-calls", "spatial",
        "spatial-grid", "weyl-degree", "weyl-columns", "weyl-rows"])
def test_scan_above_the_work_ceiling_exits_2_at_once(tmp_path, command, settings, units):
    out = tmp_path / "run"
    args = [command, "--out", str(out)]
    for kv in settings:
        args += ["--set", kv]
    start = time.perf_counter()
    assert main(args) == 2
    assert time.perf_counter() - start < 1.0
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["type"] == "ValueError"
    assert units in record["error"]["message"]


@pytest.mark.parametrize("settings, units", [
    # 1e8 steps at 64^2 are 4.1e11 grid-point steps
    (["solver.dt=1e-9"], "grid-point steps (steps * nx * ny)"),
    # 1e4 recorded 341 x 171 blocks at 512^2 are 9.3e9 bytes, in 2.6e9 grid-point steps
    (["grid.nx=512", "grid.ny=512", "solver.dt=1e-5", "solver.record_every=1"],
     "bytes of recorded states"),
    # the 2x diagnostics plane of 8192^2 takes 2.1e9 bytes, in only 6.7e9 grid-point steps
    (["grid.nx=8192", "grid.ny=8192"], "bytes of the largest array"),
], ids=["steps", "records", "grid-bytes"])
def test_simulate_above_the_work_ceiling_exits_2_at_once(tmp_path, settings, units):
    out = tmp_path / "run"
    args = ["simulate", "--out", str(out)]
    for kv in settings:
        args += ["--set", kv]
    start = time.perf_counter()
    assert main(args) == 2
    assert time.perf_counter() - start < 1.0
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["type"] == "ValueError"
    assert units in record["error"]["message"]


def test_commutator_scan_refuses_its_2x_grid_before_a_draw(tmp_path, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the 2x grid")

    monkeypatch.setattr(diagnostics, "random_band_field", no_draws)
    out = tmp_path / "run"
    # 4096^2 passes, but the 2x plane of its 8192^2 doubled grid takes 2.1e9 bytes
    args = ["commutator-scan", "--out", str(out), "--set", "grid.nx=4096", "--set", "grid.ny=4096",
            "--set", "comm.pairs=1", "--set", "comm.s_values=1"]
    assert main(args) == 2
    record = json.loads((out / "error.json").read_text())
    assert "bytes of the largest array" in record["error"]["message"]


def test_full_scan_presets_pin_the_acceptance_scans(monkeypatch):
    """README: the *-full scan.preset values pin the ranges of criteria 06 and 07."""
    calls = {"strichartz-scan": {}, "kernel-scan": {}}

    def recorder(command, count):
        def scan(symbol, j_range, k_range, **kwargs):
            calls[command][f"alpha{symbol.alpha}-full"] = {
                "symbol.alpha": symbol.alpha, "symbol.beta": symbol.beta,
                "scan.j_min": j_range[0], "scan.j_max": j_range[-1],
                "scan.k_min": k_range[0], "scan.k_max": k_range[-1],
                count: kwargs[count.removeprefix("scan.")]}
            return SimpleNamespace(slope_j=-1.0, slope_k=-1.0, max_ratio=1.0)
        return scan

    monkeypatch.setattr(test_acceptance, "strichartz_scan",
                        recorder("strichartz-scan", "scan.trials"))
    monkeypatch.setattr(test_acceptance, "kernel_decay_scan",
                        recorder("kernel-scan", "scan.samples_per_cell"))
    test_acceptance.test_criterion_06_group_decay_exponents()
    test_acceptance.test_criterion_07_kernel_decay_exponents()
    for command, presets in configfile._SCAN_PRESETS.items():
        full = {name: settings for name, settings in presets.items() if name.endswith("-full")}
        assert full == calls[command]


def test_cli_imports_no_numpy():
    """The CLI maps config keys to library calls and writes their reports;
    array work belongs in the library, where the bench and users reach it."""
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert not re.search(r"^\s*(import\s+numpy|from\s+numpy\b)", source, re.M)


def test_vdc_scan_run(tmp_path):
    out = tmp_path / "run"
    rc = main(["vdc-scan", "--out", str(out), "--set", "vdc.i_max=4"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rows"] == 5
    assert report["max_lhs_scaled"] <= 10.0


def test_vdc_scan_takes_ratios_from_converged_rows_only(tmp_path):
    # from lam = 2^22 the quadrature passes MAX_QUADRATURE_NODES unconverged,
    # and its noise once read as a ratio of 73 at lam = 2^37
    out = tmp_path / "run"
    assert main(["vdc-scan", "--out", str(out), "--set", "vdc.i_min=10",
                 "--set", "vdc.i_max=39"]) == 0
    report = json.loads((out / "report.json").read_text())
    rows = [line.split(",") for line in (out / "rows.csv").read_text().splitlines()[1:]]
    converged = {float(row[0]): row[-1] == "1" for row in rows}
    assert converged[2.0 ** 10] and not converged[2.0 ** 37]
    assert report["unconverged"] == sum(not ok for ok in converged.values())
    assert report["max_ratio"] < 1.0


def test_commutator_scan_run(tmp_path):
    out = tmp_path / "run"
    rc = main(["commutator-scan", "--out", str(out),
               "--set", "grid.nx=32", "--set", "grid.ny=32",
               "--set", "comm.pairs=3", "--set", "comm.s_values=1.0"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["max_ratio"] <= 100.0
    assert report["band"] == 8


def test_convergence_run(tmp_path):
    out = tmp_path / "run"
    rc = main(["convergence", "--out", str(out),
               "--set", "conv.mode=temporal",
               "--set", "grid.nx=32", "--set", "grid.ny=32",
               "--set", "conv.halvings=2", "--set", "conv.t_end=0.02",
               "--set", "initial.preset=gaussian-bell"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["temporal_fitted_order"] >= 3.0
    assert (out / "temporal.csv").exists()


def test_regularized_family_run(tmp_path):
    out = tmp_path / "run"
    rc = main(["regularized-family", "--out", str(out),
               "--set", "grid.nx=32", "--set", "grid.ny=32",
               "--set", "solver.t_end=0.05",
               "--set", "initial.preset=gaussian-bell",
               "--set", "family.mu_list=1e-2,1e-3"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["gaps_nonincreasing"] is True
    assert max(report["identity_residuals"]) <= 1e-6


def test_increasing_mu_list_exits_2(tmp_path):
    rc = main(["regularized-family", "--out", str(tmp_path / "run"),
               "--set", "grid.nx=32", "--set", "grid.ny=32",
               "--set", "family.mu_list=1e-3,1e-2"])
    assert rc == 2
