"""dgzk benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the root of a checkout.  Every repetition of a workload runs in a
fresh interpreter (bench/worker.py) with the scan code on one worker and
the BLAS/OpenMP pools pinned to one thread.  The loop is closed: one job at
a time, the next starting when the last has ended, until S seconds have
passed (and at least MIN_REPS jobs have run).

--trace 0 reports the end-to-end metrics.  setup_s and peak_rss_mb are
medians over the run's repetitions.  wall_norm is the run's total wall time
(entry call to return) over its total calibration_s, the time of a fixed
numpy kernel each repetition runs just before and after its entry call.
On a shared machine the speed drifts by 10-20% over tens of seconds; the
ratio takes much of that drift out, where the raw wall time spread up to
23% between 30-second runs of one workload.  The raw wall_s median is
printed and kept in the result file, but not gated.

--trace 1 runs the isolated layer probes, then alternates untraced and
traced repetitions, and reports the per-layer metrics of the traced ones
(median over repetitions), the tracing overhead and the probes.

Every repetition's outputs are checked (bench/checks.json); a repetition
that raises, fails a check, or gives outputs that differ from the other
repetitions of the same seed counts as failed.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The full record, with the environment block, goes to
bench/results/<workload>-seed<N>-trace<T>.json.
"""
import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sim-diag", "sim-march", "estimates-lab")
DEFAULT_SEED = 0
MIN_REPS = 3
# a run must end within 180 s; workers are killed at this total
RUN_DEADLINE_S = 170.0
EXIT_NO_PROGRAM = 3
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
LAYER_UNITS = {"count": ("solver.steps", "spectral.fft_calls", "spectral.fft_points",
                         "diagnostics.records", "strichartz.calls"),
               "bytes": ("io.bytes_written",),
               "s": ("spectral.fft_s",),
               "fraction": ("diagnostics.share", "trace.overhead_frac")}


class NoProgram(RuntimeError):
    """The checkout holds no importable dgzk: nothing can be measured."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(mode: str, workload: str, seed: int, deadline: float, spans=None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "failures": [f"worker killed after {timeout:.0f} s"]}
    if proc.returncode == EXIT_NO_PROGRAM:
        raise NoProgram(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"mode": mode, "failures": [f"worker exited {proc.returncode}: {tail}"]}


def _median(reps, key):
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else float("nan")


def _mark_inconsistent(reps) -> None:
    """Repetitions of one seed must give the same inputs and outputs."""
    for key in ("input_digest", "output_digest"):
        digests = Counter(r[key] for r in reps if key in r)
        if len(digests) > 1:
            majority = digests.most_common(1)[0][0]
            for r in reps:
                if r.get(key, majority) != majority:
                    r["failures"].append(f"{key} differs from the other repetitions")


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    reps = []
    metrics = {}
    if not trace:
        while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
            reps.append(run_worker("plain", workload, seed, deadline))
        _mark_inconsistent(reps)
        timed = [r for r in reps if "calibration_s" in r]
        wall_norm = (sum(r["wall_s"] for r in timed) / sum(r["calibration_s"] for r in timed)
                     if timed else float("nan"))
        metrics = {"wall_norm": {"value": wall_norm, "unit": "ratio"},
                   "setup_s": {"value": _median(reps, "setup_s"), "unit": "s"},
                   "peak_rss_mb": {"value": _median(reps, "peak_rss_mb"), "unit": "MB"}}
    else:
        # the probes run first, so that the whole run stays near `seconds`
        probe = run_worker("probes", workload, seed, deadline)
        probe.setdefault("failures", [])
        probe["mode"] = "probes"
        spans = results_dir / f"{workload}-seed{seed}.spans.json"
        while not reps or time.monotonic() - start < seconds:
            plain = run_worker("plain", workload, seed, deadline)
            traced = run_worker("traced", workload, seed, deadline, spans)
            if "output_digest" in plain and traced.get("output_digest") != plain["output_digest"]:
                traced["failures"].append("traced outputs differ from untraced outputs")
            reps += [plain, traced]
        _mark_inconsistent(reps)
        traced_reps = [r for r in reps if r["mode"] == "traced" and "layers" in r]
        plain_reps = [r for r in reps if r["mode"] == "plain"]
        if traced_reps:
            for key in traced_reps[0]["layers"]:
                values = [r["layers"][key] for r in traced_reps]
                metrics[key] = statistics.median(values)
        metrics["trace.overhead_frac"] = (
            _median(traced_reps, "wall_s") / _median(plain_reps, "wall_s") - 1.0)
        reps.append(probe)
        metrics.update(probe.get("probes", {}))
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}

    failed = sum(1 for r in reps if r["failures"])
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics, "reps": reps, "elapsed_s": time.monotonic() - start,
            "wall_s_median": _median([r for r in reps if r["mode"] == "plain"], "wall_s")}


def _layer_unit(name: str) -> str:
    for unit, names in LAYER_UNITS.items():
        if name in names:
            return unit
    return "us" if "_us" in name else "ms"


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": _blas_name(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads": PINNED_THREADS,
        "scan_workers": 1,
    }
    env.update(_git_state())
    return env


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _blas_name():
    try:
        import numpy
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:     # the build record is optional and its layout varies
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_commit": None, "git_dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}
    if head.returncode != 0:
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": head.stdout.strip(),
            "git_dirty": bool(status.stdout.strip()) if status.returncode == 0 else None}


def self_check() -> int:
    """Each workload on the default seed twice and on one other seed once:
    every run passes its checks (the default seed against its reference
    values), reruns agree bit for bit, and another seed gives other inputs."""
    other = DEFAULT_SEED + 1
    ok = True
    for workload in WORKLOADS:
        deadline = time.monotonic() + RUN_DEADLINE_S
        a, b = (run_worker("plain", workload, DEFAULT_SEED, deadline) for _ in range(2))
        c = run_worker("plain", workload, other, deadline)
        problems = [f"seed {r['seed']}: {f}" for r in (a, b, c) for f in r["failures"]]
        if a.get("output_digest") != b.get("output_digest"):
            problems.append(f"seed {DEFAULT_SEED}: reruns give different outputs")
        if a.get("input_digest") == c.get("input_digest"):
            problems.append(f"seeds {DEFAULT_SEED} and {other} give the same inputs")
        ok = ok and not problems
        print(f"{workload}: {'ok' if not problems else 'FAILED'}"
              f" (seeds {DEFAULT_SEED}, {DEFAULT_SEED}, {other})")
        for p in problems:
            print(f"  {p}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not args.self_check and args.workload is None:
        p.error("--workload is required")

    if not (ROOT / "src" / "dgzk" / "__init__.py").is_file():
        print(f"no dgzk sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except NoProgram as exc:
        print(f"dgzk cannot be imported from this checkout: {exc}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **result}
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    modes = Counter(r["mode"] for r in result["reps"])
    print(f"{args.workload} seed {args.seed}: {result['attempted']} runs "
          f"({', '.join(f'{n} {m}' for m, n in sorted(modes.items()))}), "
          f"{result['failed']} failed, {result['elapsed_s']:.1f} s")
    for r in result["reps"]:
        for f in r["failures"]:
            print(f"  failed {r['mode']} run: {f}")
    print(f"  wall_s (raw median, not gated) = {result['wall_s_median']:.6g} s")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
