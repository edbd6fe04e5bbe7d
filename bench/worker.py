"""One measured repetition of a workload, in a fresh interpreter.

    python bench/worker.py --workload NAME --seed N --mode plain|traced|probes [--spans FILE]

Prints one JSON object on stdout.  setup_s runs from just before `import
dgzk` to the end of input generation; wall_s is the entry call alone;
peak_rss_mb is this process's peak resident memory at the end of the entry
call.  calibration_s times a fixed numpy kernel that belongs to the
benchmark, run just before and just after the entry call, as a yardstick
for the speed the shared machine happens to run at (see run.py).  The
outputs are checked after the clock stops.  Exit code 3 means the
program under test could not be imported, which the caller treats as a
broken checkout rather than a failed run.
"""
import argparse
import json
import resource
import sys
import time
import traceback
import uuid
from pathlib import Path

EXIT_NO_PROGRAM = 3
CALIBRATION_ROUNDS = 60


def _calibration(np):
    """A timer for a fixed mix of the operations dgzk spends its time in:
    2-D complex FFTs, complex exponentials and a Python-level loop.  The
    transforms are bound here, before any tracing wraps numpy.fft; the
    arrays are made on each call, outside the timed part and outside the
    set-up time."""
    fft2, ifft2 = np.fft.fft2, np.fft.ifft2

    def seconds(rounds=CALIBRATION_ROUNDS) -> float:
        rng = np.random.default_rng(20210701)
        field = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        phases = rng.uniform(0.0, 6.0, size=1 << 15)
        t0 = time.perf_counter()
        for _ in range(rounds):
            field = ifft2(fft2(field) * np.exp(1j * phases[0]))
            total = np.exp(1j * phases).sum()
            acc = 0.0
            for k in range(2000):
                acc += (k * 0.5) % 1.0
        dt = time.perf_counter() - t0
        if not (np.isfinite(total) and acc > 0):
            raise RuntimeError("calibration kernel produced no result")
        return dt

    return seconds


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("plain", "traced", "probes"), required=True)
    p.add_argument("--spans", default=None)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(__file__).resolve().parent.parent

    t0 = time.perf_counter()
    try:
        import dgzk
    except ImportError as exc:
        print(f"cannot import dgzk: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if (root / "src") not in Path(dgzk.__file__).resolve().parents:
        print(f"dgzk imported from {dgzk.__file__}, not from this checkout", file=sys.stderr)
        return EXIT_NO_PROGRAM

    import numpy
    import workloads
    import tracing

    calibration_s = _calibration(numpy)

    if args.mode == "probes":
        import probes
        print(json.dumps({"probes": probes.run_probes(args.seed)}))
        return 0

    work = workloads.WORKLOADS[args.workload]
    run_id = uuid.uuid4().hex
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)

    record = {"run_id": run_id, "mode": args.mode, "seed": args.seed, "failures": []}
    inputs = None
    try:
        inputs = work.prepare(args.seed, workloads.workdir_for(root))
        record["setup_s"] = time.perf_counter() - t0
        calibration_s(1)    # transform plans and first-call paths are not part of it
        before = calibration_s()
        t1 = time.perf_counter()
        if tracer is None:
            result = work.run(inputs)
        else:
            with tracer.span(f"bench.{work.name}"):
                result = work.run(inputs)
        record["wall_s"] = time.perf_counter() - t1
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["calibration_s"] = 0.5 * (before + calibration_s())

        record["input_digest"] = work.input_digest(inputs)
        head, record["output_digest"] = work.headline(inputs, result)
        record["headline"] = head
        spec = json.loads((Path(__file__).parent / "checks.json").read_text())
        record["failures"] = workloads.check(
            head, spec["workloads"][work.name], args.seed,
            spec["reference_seed"], spec["reference_rtol"])
    except Exception as exc:      # a run that raises is a failed run, not a crash
        traceback.print_exc()
        record["failures"].append(f"raised {type(exc).__name__}: {exc}")
    finally:
        if inputs is not None:
            work.cleanup(inputs)

    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer.spans)
        record["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
