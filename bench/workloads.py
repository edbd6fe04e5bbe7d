"""The three benchmark workloads: input generation, the entry call, and the
headline outputs each run is checked on.

Each workload is a batch job a dgzk user runs, sized so that a different
layer dominates it:

  sim-diag       CLI `simulate` at 128^2 recording every step; the per-record
                 diagnostics dominate.
  sim-march      library `simulate` at 256^2 recording every 100 steps; the
                 ETDRK4 step (and its FFTs) dominates.
  estimates-lab  four estimate scans back to back, no solver; the shell
                 transforms, kernel sums, exponential sums and commutator
                 products dominate.

`prepare(seed, workdir)` builds every input from the benchmark seed, so the
program receives only generated inputs.  `run(inputs)` is the timed entry
call.  `headline(inputs, result)` extracts the scalar outputs the checks in
checks.json apply to, plus a digest of the full output used to compare runs
bit for bit.  Calls into dgzk go through module attributes at call time, so
the tracer's wrappers (tracing.py) see them.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

import dgzk
from dgzk import cli, diagnostics, fieldio, spectral
from dgzk.estimates import expsums, kernels, strichartz

SYMBOL = dict(alpha=1, beta=1.0, sign=1, mu=0.0)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _drift(series) -> float:
    base = max(abs(series[0]), 1e-300)
    return max(abs(v - series[0]) for v in series) / base


def _state_summary(field) -> dict:
    c = field.coeffs
    return {
        "final_finite": bool(np.all(np.isfinite(c))),
        "final_hermitian_defect": spectral.hermitian_defect(field),
        "l2_final": spectral.l2_norm(field),
    }


class SimDiag:
    """`dgzk simulate` through the CLI, with per-step diagnostics and binary
    snapshots written to a fresh directory."""

    name = "sim-diag"
    n = 128
    t_end = 0.2
    dt = 1e-3

    def prepare(self, seed: int, workdir: Path) -> dict:
        out = tempfile.mkdtemp(prefix="sim-diag-", dir=workdir)
        argv = ["simulate", "--out", out, "--seed", str(seed)]
        for kv in (f"grid.nx={self.n}", f"grid.ny={self.n}",
                   "symbol.alpha=1", "symbol.beta=1", "symbol.sign=+1",
                   "initial.preset=random-band", f"solver.dt={self.dt}",
                   f"solver.t_end={self.t_end}", "solver.record_every=1",
                   "output.snapshots=binary"):
            argv += ["--set", kv]
        return {"argv": argv, "out": Path(out), "seed": seed}

    def input_digest(self, inputs: dict) -> str:
        return _digest(inputs["argv"][3:])    # the out directory is fresh per run

    def run(self, inputs: dict):
        return cli.main(inputs["argv"])

    def headline(self, inputs: dict, exit_code) -> tuple:
        out = inputs["out"]
        files = sorted(p for p in out.iterdir() if p.is_file())
        digest = _digest(*[part for p in files for part in (p.name, p.read_bytes())])
        head = {"exit_code": exit_code}
        summary_path = out / "summary.json"
        if exit_code == 0 and summary_path.is_file():
            summary = json.loads(summary_path.read_text())
            final = fieldio.load_field(out / "final.fld")
            head.update({
                "t_final": summary["t_end"],
                "records": summary["records"],
                "mass_drift_rel": summary["mass_drift_rel"],
                "energy_drift_rel": summary["energy_drift_rel"],
                "mass_final": summary["mass_final"],
                "energy_final": summary["energy_final"],
                "sup_u_final": summary["sup_u_final"],
                "bytes_out": sum(p.stat().st_size for p in files),
            })
            head.update(_state_summary(final))
        return head, digest

    def cleanup(self, inputs: dict) -> None:
        shutil.rmtree(inputs["out"], ignore_errors=True)


class SimMarch:
    """Library `simulate` at 256^2, recording every 100 steps."""

    name = "sim-march"
    n = 256
    t_end = 0.3
    dt = 1e-3
    record_every = 100

    def prepare(self, seed: int, workdir: Path) -> dict:
        grid = dgzk.Grid(self.n, self.n)
        symbol = dgzk.DispersionSymbol(**SYMBOL)
        phi = dgzk.initial_data(grid, "random-band", amplitude=1.0, seed=seed)
        config = dgzk.SimulationConfig(grid=grid, symbol=symbol, dt=self.dt,
                                       t_end=self.t_end, record_every=self.record_every)
        return {"config": config, "phi": phi, "seed": seed}

    def input_digest(self, inputs: dict) -> str:
        return _digest(inputs["phi"].coeffs, inputs["config"])

    def run(self, inputs: dict):
        return dgzk.simulate(inputs["config"], inputs["phi"])

    def headline(self, inputs: dict, traj) -> tuple:
        masses = [d.mass for d in traj.diagnostics]
        energies = [d.energy for d in traj.diagnostics]
        final = traj.final_state
        head = {
            "t_final": float(traj.times[-1]),
            "records": len(traj.times),
            "mass_drift_rel": _drift(masses),
            "energy_drift_rel": _drift(energies),
            "mass_final": masses[-1],
            "energy_final": energies[-1],
            "sup_u_final": traj.diagnostics[-1].sup_u,
        }
        head.update(_state_summary(final))
        rows = [(d.t, d.mass, d.energy, sorted(d.h_s_norms.items()),
                 d.sup_u, d.sup_ux, d.sup_uy, d.g_accum) for d in traj.diagnostics]
        digest = _digest(traj.times, *[s.coeffs for s in traj.states], rows)
        return head, digest

    def cleanup(self, inputs: dict) -> None:
        pass


class EstimatesLab:
    """Strichartz, kernel and Weyl scans plus 300 commutator pairs, one after
    the other on one thread."""

    name = "estimates-lab"
    commutator_n = 64
    commutator_band = 8
    commutator_s = (1.0, 1.5, 2.0)
    commutator_pairs = 100
    weyl_n = (64, 128, 256, 512, 1024, 2048)

    def prepare(self, seed: int, workdir: Path) -> dict:
        symbol = dgzk.DispersionSymbol(**SYMBOL)
        grid = dgzk.Grid(self.commutator_n, self.commutator_n)
        pairs = []
        for si, s in enumerate(self.commutator_s):
            for trial in range(self.commutator_pairs):
                rng = np.random.default_rng([seed, si, trial])
                f = dgzk.random_band_field(grid, self.commutator_band, rng, mean_zero_x=False)
                g = dgzk.random_band_field(grid, self.commutator_band, rng, mean_zero_x=False)
                pairs.append((f, g, s))
        return {
            "seed": seed,
            "strichartz": dict(symbol=symbol, j_range=range(3, 7), k_range=range(3, 6),
                               trials=12, seed=seed, workers=1),
            "kernel": dict(symbol=symbol, j_range=range(4, 8), k_range=range(4, 8),
                           samples_per_cell=8, seed=seed, workers=1),
            "weyl": dict(degree=3, n_values=list(self.weyl_n), trials=1700, delta=0.01,
                         seed=seed),
            "commutator": pairs,
        }

    def input_digest(self, inputs: dict) -> str:
        scans = [sorted((k, repr(v)) for k, v in inputs[name].items())
                 for name in ("strichartz", "kernel", "weyl")]
        fields = [a for f, g, _ in inputs["commutator"] for a in (f.coeffs, g.coeffs)]
        return _digest(scans, [s for *_, s in inputs["commutator"]], *fields)

    def run(self, inputs: dict):
        return {
            "strichartz": strichartz.strichartz_scan(**inputs["strichartz"]),
            "kernel": kernels.kernel_decay_scan(**inputs["kernel"]),
            "weyl": expsums.weyl_scan(**inputs["weyl"]),
            "commutator": [diagnostics.commutator_check(f, g, s)
                           for f, g, s in inputs["commutator"]],
        }

    def headline(self, inputs: dict, result: dict) -> tuple:
        st, ke, we = result["strichartz"], result["kernel"], result["weyl"]
        comm = result["commutator"]
        head = {
            "strichartz_slope_j": st.slope_j,
            "strichartz_slope_k": st.slope_k,
            "strichartz_max_ratio": st.max_ratio,
            "kernel_slope_j": ke.slope_j,
            "kernel_slope_k": ke.slope_k,
            "kernel_max_ratio": ke.max_ratio,
            "weyl_rows": len(we.rows),
            "weyl_max_ratio": we.max_ratio,
            "weyl_dirichlet_ok": bool(we.dirichlet_ok),
            "commutator_pairs": len(comm),
            "commutator_max_ratio": max(l / r for l, r in comm if r),
            # the acceptance form of the estimate: lhs <= 100 * rhs on every pair
            "commutator_ok": all(l <= 100.0 * r for l, r in comm),
        }
        digest = _digest(st.cells, ke.cells, we.rows, comm,
                         [st.slope_j, st.slope_k, ke.slope_j, ke.slope_k])
        return head, digest

    def cleanup(self, inputs: dict) -> None:
        pass


WORKLOADS = {w.name: w for w in (SimDiag(), SimMarch(), EstimatesLab())}


def check(head: dict, spec: dict, seed: int, reference_seed: int, rtol: float) -> list:
    """Failures of one run's headline outputs against its workload's checks.

    spec holds "equal" (exact, or to 1e-12 relative for floats), "max",
    "min" and "true" rules, and "reference": headline values stored from the
    reference seed, compared to rtol when the run used that seed.
    """
    failures = []

    def value(key):
        if key not in head:
            failures.append(f"{key}: missing from outputs")
            return None
        return head[key]

    for key, want in spec.get("equal", {}).items():
        got = value(key)
        if got is None:
            continue
        same = (math.isclose(got, want, rel_tol=1e-12)
                if isinstance(want, float) else got == want)
        if not same:
            failures.append(f"{key}: {got!r} != {want!r}")
    for key, cap in spec.get("max", {}).items():
        got = value(key)
        if got is not None and not got <= cap:
            failures.append(f"{key}: {got!r} > {cap!r}")
    for key, floor in spec.get("min", {}).items():
        got = value(key)
        if got is not None and not got >= floor:
            failures.append(f"{key}: {got!r} < {floor!r}")
    for key in spec.get("true", []):
        got = value(key)
        if got is not None and got is not True:
            failures.append(f"{key}: {got!r} is not true")
    if seed == reference_seed:
        for key, want in spec.get("reference", {}).items():
            got = value(key)
            if got is not None and not math.isclose(got, want, rel_tol=rtol):
                failures.append(f"{key}: {got!r} differs from reference {want!r}")
    return failures


def workdir_for(root: Path) -> Path:
    path = root / "bench" / ".work"
    os.makedirs(path, exist_ok=True)
    return path
