"""Check that two checkouts of dgzk compute the same bits.

    python tools/compare_checkouts.py PARENT CHANGE

Both checkouts are copied into one temporary directory (without .git,
caches and bench outputs) and byte-compiled there, so a bench run's
setup_s does not include compiling dgzk.  Everything runs on the copies,
so nothing is written outside that directory; it is removed at the end.
The report covers:

* src/ line counts per file, split into code, docstring, comment and blank
  lines by `ast` (a docstring's blank lines count as docstring);
* the eight CLI commands at their defaults and the extra runs in RUNS:
  exit code, stdout, stderr and every artifact, byte for byte, with each
  copy's path and output directory masked;
* the `[criterion NN]` lines that tests/test_acceptance.py prints;
* `bench/worker.py --mode plain`, BENCH_REPEATS runs per side of every
  workload at the seeds in BENCH_SEEDS, the side that runs first
  alternating: the input and output digests and failures of every run,
  each against the parent's first run, and the median peak_rss_mb, setup_s,
  wall_s and wall_norm (wall_s / calibration_s) of each side;
* per workload, over the pairs of runs (one per seed and repeat, both
  sides back to back), the median of the per-pair ratios change / parent
  of wall_norm, setup_s and peak_rss_mb, with a percentile bootstrap 95%
  interval of that median and the number of pairs in which the change
  read lower.

Line counts and the bench numbers are reported, not compared: a few runs
cannot tell a real move from VM noise, and the memory peak moves with the
heap layout that import and earlier work leave.  Any other difference is
printed and the exit code is 1; 0 means everything compared is identical.
Uses the standard library only.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

# extra CLI runs beyond each command at its defaults: (name, argv after the command)
RUNS = [
    ("simulate-json", ["simulate", "--set", "output.snapshots=json"]),
    ("simulate-binary-damped", ["simulate", "--set", "output.snapshots=binary",
                                "--set", "initial.preset=random-band",
                                "--set", "symbol.mu=0.001"]),
    ("simulate-bell-ifrk4", ["simulate", "--set", "initial.preset=gaussian-bell",
                             "--set", "solver.integrator=ifrk4"]),
    ("kernel-scan-2-workers", ["kernel-scan", "--workers", "2"]),
    ("strichartz-scan-2-workers", ["strichartz-scan", "--workers", "2"]),
    ("commutator-scan-2-workers", ["commutator-scan", "--workers", "2"]),
    # fields that fill the Nyquist row and column: the halvings of the 2x padding
    ("commutator-scan-nyquist", ["commutator-scan", "--set", "comm.band=32",
                                 "--set", "comm.pairs=20"]),
    # a run that records every step builds its records as it marches
    ("simulate-every-step", ["simulate", "--set", "grid.nx=128", "--set", "grid.ny=128",
                             "--set", "solver.record_every=1", "--set", "solver.t_end=0.2",
                             "--set", "output.snapshots=binary"]),
    # a run with few records keeps simulate's order
    ("simulate-256-few-records", ["simulate", "--set", "grid.nx=256", "--set", "grid.ny=256",
                                  "--set", "solver.record_every=100",
                                  "--set", "solver.t_end=0.3",
                                  "--set", "output.snapshots=binary"]),
]
BENCH_WORKLOADS = ("sim-diag", "sim-march", "estimates-lab")
BENCH_SEEDS = (0, 3)
BENCH_REPEATS = 5
BENCH_COMPARED = ("input_digest", "output_digest", "failures")
BENCH_REPORTED = ("peak_rss_mb", "setup_s", "wall_s", "wall_norm")
BENCH_PAIRED = ("wall_norm", "setup_s", "peak_rss_mb")
BOOTSTRAP_RESAMPLES = 4000
KINDS = ("code", "docstring", "comment", "blank")
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "results", ".work", "runs")


def line_kinds(text: str) -> Counter:
    """Counts of code, docstring, comment and blank lines of Python source."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    counts = Counter({kind: 0 for kind in KINDS})
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        counts["docstring" if number in doc else "blank" if not stripped
               else "comment" if stripped.startswith("#") else "code"] += 1
    return counts


def src_counts(root: Path) -> dict:
    return {str(p.relative_to(root / "src")): line_kinds(p.read_text(encoding="utf-8"))
            for p in sorted((root / "src").rglob("*.py"))}


def _row(counts: Counter) -> str:
    return f"{sum(counts.values()):5d} " + " ".join(f"{counts[k]:5d}" for k in KINDS)


def report_counts(parent: dict, change: dict) -> None:
    print("== src/ lines: total code docstring comment blank (parent -> change) ==")
    zero = Counter({kind: 0 for kind in KINDS})
    for name in sorted(set(parent) | set(change)):
        a, b = parent.get(name, zero), change.get(name, zero)
        if a != b:
            print(f"  {name:32s} {_row(a)}  ->  {_row(b)}")
    total = lambda counts: sum(counts.values(), Counter())
    print(f"  {'all files':32s} {_row(total(parent))}  ->  "
          f"{_row(total(change))}")


class Checkout:
    """A copy of one checkout under the temporary directory, and its runs."""

    def __init__(self, source: Path, tmp: Path, label: str):
        self.root = tmp / label
        shutil.copytree(source, self.root, ignore=IGNORED)
        self.out = tmp / f"{label}-out"
        self.out.mkdir()
        self.env = {k: v for k, v in os.environ.items() if k not in ("DGZK_OUT", "PYTHONPATH")}
        self.env.update({name: "1" for name in PINNED_THREADS})
        self.env.update(PYTHONPATH=str(self.root / "src"), PYTHONDONTWRITEBYTECODE="1",
                        PYTHONHASHSEED="0")
        proc = self.run(["-m", "compileall", "-q", "src", "bench"])
        if proc.returncode != 0:
            sys.exit(f"cannot byte-compile {self.root}:\n{self.mask(proc.stdout).decode()}")

    def run(self, argv, cwd=None):
        return subprocess.run([sys.executable, *argv], cwd=cwd or self.root, env=self.env,
                              capture_output=True)

    def mask(self, data: bytes) -> bytes:
        for path, name in ((self.out, b"<OUT>"), (self.root, b"<CHECKOUT>")):
            data = data.replace(str(path).encode(), name)
        return data

    def commands(self) -> list:
        proc = self.run(["-c", "from dgzk.configfile import COMMANDS; print(*COMMANDS)"])
        if proc.returncode != 0:
            sys.exit(f"cannot list the commands of {self.root}:\n{proc.stderr.decode()}")
        return proc.stdout.decode().split()

    def cli(self, name: str, argv: list) -> dict:
        """Masked exit code, stdout, stderr and artifacts of one CLI run."""
        out = self.out / name
        proc = self.run(["-m", "dgzk.cli", *argv, "--out", str(out)], cwd=self.out)
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
        return {"exit code": str(proc.returncode).encode(), "stdout": self.mask(proc.stdout),
                "stderr": self.mask(proc.stderr),
                **{f"file {p.relative_to(out)}": self.mask(p.read_bytes()) for p in files}}

    def criteria(self) -> list:
        proc = self.run(["-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                         "tests/test_acceptance.py"])
        lines = re.findall(r"\[criterion \d+\][^\n]*", proc.stdout.decode())
        return lines + [f"(pytest exit code {proc.returncode})"]

    def bench(self, workload: str, seed: int) -> tuple:
        """(compared, reported) of one plain bench run: its BENCH_COMPARED
        values, or its exit code and stderr if it printed no record, and its
        BENCH_REPORTED values."""
        proc = self.run([str(self.root / "bench" / "worker.py"), "--workload", workload,
                         "--seed", str(seed), "--mode", "plain"])
        try:
            record = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        except (IndexError, ValueError):
            return {"exit code": proc.returncode, "stderr": self.mask(proc.stderr).decode()}, {}
        if "calibration_s" in record:  # absent when the entry call raised
            record["wall_norm"] = record["wall_s"] / record["calibration_s"]
        return ({key: record.get(key) for key in BENCH_COMPARED},
                {key: record.get(key) for key in BENCH_REPORTED})


def _first_difference(a: bytes, b: bytes) -> str:
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line = a[:at].count(b"\n") + 1
    return f"{len(a)} vs {len(b)} bytes, first difference on line {line}"


def _median(runs: list, key: str) -> str:
    """The median of one BENCH_REPORTED value over (compared, reported) runs."""
    values = [reported[key] for _, reported in runs if reported.get(key) is not None]
    return f"{statistics.median(values):.3f}" if values else "-"


def paired_ratios(pairs: list, key: str) -> str:
    """The median change / parent ratio of one BENCH_REPORTED value over
    (parent run, change run) pairs, with a percentile bootstrap 95% interval
    of the median (pairs resampled, a fixed seed) and the count of pairs
    below 1."""
    ratios = [b[key] / a[key] for (_, a), (_, b) in pairs
              if a.get(key) and b.get(key) is not None]
    if not ratios:
        return f"{key} -"
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP_RESAMPLES))
    low, high = medians[int(0.025 * len(medians))], medians[int(0.975 * len(medians)) - 1]
    lower = sum(r < 1.0 for r in ratios)
    return (f"{key} {statistics.median(ratios):.3f} [{low:.3f}, {high:.3f}] "
            f"(lower in {lower} of {len(ratios)})")


def compare(title: str, parent: dict, change: dict) -> int:
    """Print whether two dicts of outputs are identical; the number of differences."""
    diffs = []
    for key in sorted(set(parent) | set(change), key=str):
        a, b = parent.get(key), change.get(key)
        if a == b:
            continue
        if a is None or b is None:
            diffs.append(f"{key}: only in {'change' if a is None else 'parent'}")
        elif isinstance(a, bytes) and isinstance(b, bytes):
            diffs.append(f"{key}: {_first_difference(a, b)}")
        else:
            diffs.append(f"{key}: {a!r} vs {b!r}")
    print(f"  {title}: {'identical' if not diffs else 'DIFFERENT'}")
    for line in diffs:
        print(f"      {line}")
    return len(diffs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not (root / "src" / "dgzk").is_dir():
            parser.error(f"{root} is not a dgzk checkout (no src/dgzk)")

    report_counts(src_counts(args.parent), src_counts(args.change))
    differences = 0
    with tempfile.TemporaryDirectory(prefix="dgzk-compare-") as tmp:
        parent, change = (Checkout(root.resolve(), Path(tmp), label) for root, label
                          in ((args.parent, "parent"), (args.change, "change")))
        commands = parent.commands()
        differences += compare("command list", {"commands": commands},
                               {"commands": change.commands()})

        print("== CLI runs: exit code, stdout, stderr, artifacts ==")
        runs = [(f"{command}-defaults", [command]) for command in commands] + RUNS
        for name, cli_args in runs:
            differences += compare(name, parent.cli(name, cli_args), change.cli(name, cli_args))

        print("== acceptance printouts ==")
        lines = [checkout.criteria() for checkout in (parent, change)]
        differences += compare(f"{len(lines[0]) - 1} [criterion NN] lines",
                               dict(enumerate(lines[0])), dict(enumerate(lines[1])))

        print(f"== bench/worker.py --mode plain, {BENCH_REPEATS} runs per side: digests and "
              "failures of each run compared with the parent's first run; median "
              f"{', '.join(BENCH_REPORTED)} reported (parent -> change) ==")
        for workload in BENCH_WORKLOADS:
            pairs = []
            for seed in BENCH_SEEDS:
                runs = {parent: [], change: []}
                for repeat in range(BENCH_REPEATS):  # the side that runs first alternates
                    for checkout in (parent, change)[::-1 if repeat % 2 else 1]:
                        runs[checkout].append(checkout.bench(workload, seed))
                    pairs.append((runs[parent][-1], runs[change][-1]))
                compared = {f"{checkout.root.name} run {i + 1}": run
                            for checkout, side in runs.items() for i, (run, _) in enumerate(side)}
                differences += compare(f"{workload} seed {seed}",
                                       dict.fromkeys(compared, runs[parent][0][0]), compared)
                print("      " + ", ".join(f"{key} {_median(runs[parent], key)} -> "
                                          f"{_median(runs[change], key)}"
                                          for key in BENCH_REPORTED))
            print(f"  {workload}: change / parent over {len(pairs)} pairs, median "
                  "[bootstrap 95% interval]:")
            for key in BENCH_PAIRED:
                print(f"      {paired_ratios(pairs, key)}")

    print("== everything compared is identical ==" if not differences
          else f"== {differences} differences ==")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
