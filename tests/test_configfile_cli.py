"""Config parsing, resolution precedence, and the command-line front end."""
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgzk.cli import main
from dgzk.configfile import parse_config_text, resolve_config
from dgzk.errors import ConfigError
from dgzk.fieldio import load_field


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


def test_underresolved_scan_exits_5(tmp_path):
    out = tmp_path / "run"
    rc = main(["strichartz-scan", "--out", str(out),
               "--set", "scan.j_min=3", "--set", "scan.j_max=3"])
    assert rc == 5
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["type"] == "InsufficientDataError"


def test_output_path_collision_exits_6(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("occupied\n")
    rc = main(_simulate_args(blocker, "initial.preset=zero"))
    assert rc == 6
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["exit_code"] == 6


def test_summary_reports_the_requested_t_end(tmp_path):
    # 0.03 does not divide 0.1: the run takes 3 steps of 0.1/3
    out = tmp_path / "run"
    assert main(_simulate_args(out, "initial.preset=cos-x",
                               "solver.dt=0.03", "solver.t_end=0.1")) == 0
    assert json.loads((out / "summary.json").read_text())["t_end"] == 0.1


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
    assert rc in (0, 2, 3, 4, 5, 6)
    if any(raw in _NONFINITE for raw in values.values()):
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


def test_vdc_scan_run(tmp_path):
    out = tmp_path / "run"
    rc = main(["vdc-scan", "--out", str(out), "--set", "vdc.i_max=4"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rows"] == 5
    assert report["max_lhs_scaled"] <= 10.0


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
