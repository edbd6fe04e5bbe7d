"""Span tracing from outside the program, and the per-layer metrics built
from the spans.

`install(tracer)` replaces public functions of dgzk (and the numpy.fft entry
points) with thin wrappers that record a span per call: its name, start,
end, the enclosing span, a work count where one exists, and the run id.
Nothing under src/ is edited: the wrappers are set as module attributes at
run time, and every dgzk module global bound to a wrapped function is
rebound too, so calls through `from .x import f` names are seen as well.
The wrappers pass arguments and results through untouched, so a traced run
does the same arithmetic as an untraced one.

Spans stay in memory and are written once, at the end of the run.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# numpy.fft (and scipy.fft, when importable) transform entry points
FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []       # [name, start_ns, end_ns, parent, count]
        self._stack = []

    def _open(self, name) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid) -> None:
        self.spans[sid][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        """fn, recording one span per call; count(args, kwargs, result)
        gives the span's work count."""
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if count is not None:
                self.spans[sid][4] = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """A span the benchmark opens itself, such as the workload's entry call."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def dump(self, path) -> None:
        rows = [[i, name, start, end, parent, count, self.run_id]
                for i, (name, start, end, parent, count) in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "count",
                                  "run_id"],
                       "spans": rows}, fh)


def _fft_points(args, kwargs, result):
    """Points transformed: the larger of input and output sizes, which is the
    real-space size for real transforms and the array size otherwise."""
    return max(getattr(args[0], "size", 0), getattr(result, "size", 0))


def _bytes_at(index):
    def count(args, kwargs, result):
        path = args[index] if len(args) > index else kwargs.get("path")
        try:
            return os.path.getsize(path)
        except (OSError, TypeError):
            return 0
    return count


def _records(args, kwargs, result):
    return len(result)


def _rebind(orig, wrapped, modules):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every layer the per-layer metrics read."""
    import numpy.fft
    from dgzk import cli, diagnostics, presets, solver
    from dgzk.estimates import expsums, kernels, strichartz

    dgzk_modules = [m for name, m in sorted(sys.modules.items())
                    if m is not None and (name == "dgzk" or name.startswith("dgzk."))]

    def wrap_function(module, attr, span_name, count=None, scope=None):
        orig = getattr(module, attr)
        wrapped = tracer.wrap(span_name, orig, count)
        if scope is None:
            setattr(module, attr, wrapped)
            _rebind(orig, wrapped, dgzk_modules)
        else:
            _rebind(orig, wrapped, scope)

    fft_modules = [("numpy.fft", numpy.fft)]
    try:
        import scipy.fft
        fft_modules.append(("scipy.fft", scipy.fft))
    except ImportError:
        pass
    for prefix, module in fft_modules:
        for attr in FFT_FUNCS:
            if hasattr(module, attr):
                wrap_function(module, attr, f"{prefix}.{attr}", _fft_points)

    cls = solver.Etdrk4Stepper
    cls.__init__ = tracer.wrap("solver.Etdrk4Stepper.__init__", cls.__init__)
    cls.step = tracer.wrap("solver.Etdrk4Stepper.step", cls.step)
    wrap_function(solver, "simulate", "solver.simulate")
    wrap_function(diagnostics, "build_records", "diagnostics.build_records", _records)
    wrap_function(diagnostics, "sup_norm_diagnostics", "diagnostics.sup_norm_diagnostics")
    wrap_function(diagnostics, "cubic_integral", "diagnostics.cubic_integral")
    wrap_function(diagnostics, "commutator_check", "diagnostics.commutator_check")
    wrap_function(strichartz, "strichartz_norm", "strichartz.strichartz_norm")
    wrap_function(kernels, "kernel_sum", "kernels.kernel_sum")
    wrap_function(expsums, "weyl_sum", "expsums.weyl_sum")
    wrap_function(expsums, "dirichlet_approx", "expsums.dirichlet_approx")
    wrap_function(presets, "initial_data", "presets.initial_data")
    # artifact writes, as the CLI calls them
    wrap_function(cli, "write_csv", "io.write_csv", _bytes_at(0), scope=[cli])
    wrap_function(cli, "write_json", "io.write_json", _bytes_at(0), scope=[cli])
    wrap_function(cli, "save_field", "io.save_field", _bytes_at(1), scope=[cli])


def _quantile(values, q):
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _p99(values):
    # a p99 is reported only where a run has 100 or more samples
    return _quantile(values, 0.99) if len(values) >= 100 else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced run, from its span rows."""
    child_ns = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start

    dur = defaultdict(list)       # ms
    self_ms = defaultdict(list)   # ms, span minus its direct children
    counts = defaultdict(list)
    for i, (name, start, end, parent, count) in enumerate(spans):
        dur[name].append((end - start) / 1e6)
        self_ms[name].append((end - start - child_ns[i]) / 1e6)
        counts[name].append(count)

    fft_names = [n for n in dur if n.startswith(("numpy.fft.", "scipy.fft."))]
    # the FFT calls are the only wrapped layer below a step, so a step's
    # self time is the step minus its transforms
    step = "solver.Etdrk4Stepper.step"
    records = "diagnostics.build_records"
    per_record = [d / c for d, c in zip(dur[records], counts[records]) if c]
    io_names = ("io.write_csv", "io.write_json", "io.save_field")
    simulate_ms = sum(dur["solver.simulate"])
    p50 = lambda name: _quantile(dur[name], 0.5)

    return {
        "solver.step_ms_p50": p50(step),
        "solver.step_ms_p99": _p99(dur[step]),
        "solver.steps": len(dur[step]),
        "solver.step_self_ms_p50": _quantile(self_ms[step], 0.5),
        "solver.stepper_init_ms": p50("solver.Etdrk4Stepper.__init__"),
        "spectral.fft_calls": sum(len(dur[n]) for n in fft_names),
        "spectral.fft_points": sum(sum(counts[n]) for n in fft_names),
        "spectral.fft_s": sum(sum(dur[n]) for n in fft_names) / 1e3,
        "diagnostics.record_ms_p50": _quantile(per_record, 0.5),
        "diagnostics.records": sum(counts[records]),
        "diagnostics.sup_ms_p50": p50("diagnostics.sup_norm_diagnostics"),
        "diagnostics.cubic_ms_p50": p50("diagnostics.cubic_integral"),
        "diagnostics.share": sum(dur[records]) / simulate_ms if simulate_ms else 0.0,
        "diagnostics.commutator_ms_p50": p50("diagnostics.commutator_check"),
        "strichartz.norm_ms_p50": p50("strichartz.strichartz_norm"),
        "strichartz.calls": len(dur["strichartz.strichartz_norm"]),
        "kernels.kernel_sum_ms_p50": p50("kernels.kernel_sum"),
        "kernels.kernel_sum_ms_p99": _p99(dur["kernels.kernel_sum"]),
        "expsums.weyl_sum_us_p50": 1e3 * p50("expsums.weyl_sum"),
        "expsums.dirichlet_us_p50": 1e3 * p50("expsums.dirichlet_approx"),
        "io.write_ms": sum(sum(dur[n]) for n in io_names),
        "io.bytes_written": sum(sum(counts[n]) for n in io_names),
        "presets.initial_data_ms": sum(dur["presets.initial_data"]),
    }
