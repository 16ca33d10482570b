"""Traced in-process run of one workload, timed from outside the program.

Usage: python3 perfbench/traced.py CALLS_JSON SPANS_OUT

CALLS_JSON holds {"calls": [argv, ...]}, the argument lists of the workload's
CLI calls. In this fresh interpreter the script times the numpy and rxfront
imports, runs every call through ``rxfront.cli.main`` once to warm up and
once timed, then wraps the public functions of each layer (in every module
namespace that holds them) and the functions of ``numpy.linalg`` in timing
wrappers and runs every call again. Spans (name, start, end, parent, thread)
are kept in memory and written to SPANS_OUT as JSON lines at the end; the
last line of stdout is a JSON object with the per-layer metrics, the names
of metrics whose functions no longer exist, and the calls' exit codes.

Nothing under src/ is edited: the wrappers are installed at run time only.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time

# Span name -> (module, attribute). Span names are "<layer>.<function>".
SPAN_TARGETS = {
    "cli.main": ("rxfront.cli", "main"),
    "cli.parse_scenario": ("rxfront.cli", "parse_scenario"),
    "cli.render_report": ("rxfront.cli", "render_report"),
    "core.load_impedance_csv": ("rxfront.core", "load_impedance_csv"),
    "core.validate_reciprocity": ("rxfront.core", "validate_reciprocity"),
    "core.validate_passivity": ("rxfront.core", "validate_passivity"),
    "arrays.terminated_voltages": ("rxfront.arrays", "terminated_voltages"),
    "arrays.sum_extracted_power": ("rxfront.arrays", "sum_extracted_power"),
    "arrays.coupling_offdiag_ratio": ("rxfront.arrays", "coupling_offdiag_ratio"),
    "arrays.perturbation_sum_powers": ("rxfront.arrays", "perturbation_sum_powers"),
    "arrays.make_synthetic_model": ("rxfront.arrays", "make_synthetic_model"),
    "link.output_snr": ("rxfront.link", "output_snr"),
    "link.optimize_load": ("rxfront.link", "optimize_load"),
    "kernels.snr_grid": ("rxfront.kernels", "snr_grid"),
}
# Every public function of these modules is one layer, "closed form".
CLOSED_FORM_MODULES = ("noisefig", "frontend", "mna", "matching", "shannon")
# Called per report cell: counted only, so the wrapper stays cheap and the
# formatting time stays in the render span.
COUNT_TARGETS = {"cli.fmt": ("rxfront.cli", "fmt")}
# Spans whose recorded work is the size of the returned array (grid cells).
WORK_IS_RESULT_SIZE = ("kernels.snr_grid",)

CLOSED_FORM = tuple(f"{name}." for name in CLOSED_FORM_MODULES)

# Per-layer metric -> (measure, span names; a name ending in "." is a prefix).
METRICS = {
    "cli.parse_s": ("self_s", ("cli.parse_scenario",)),
    "cli.render_s": ("self_s", ("cli.render_report",)),
    "cli.fmt_calls": ("count", ("cli.fmt",)),
    "cli.main_self_s": ("self_s", ("cli.main",)),
    "core.csv_load_s": ("self_s", ("core.load_impedance_csv",)),
    "core.validate_calls": ("calls", ("core.validate_reciprocity", "core.validate_passivity")),
    "core.validate_s": ("self_s", ("core.validate_reciprocity", "core.validate_passivity")),
    "arrays.solve_calls": ("calls", ("arrays.terminated_voltages", "arrays.sum_extracted_power",
                                     "arrays.coupling_offdiag_ratio", "arrays.perturbation_sum_powers")),
    "arrays.solve_s": ("self_s", ("arrays.terminated_voltages", "arrays.sum_extracted_power",
                                  "arrays.coupling_offdiag_ratio", "arrays.perturbation_sum_powers")),
    "arrays.model_s": ("self_s", ("arrays.make_synthetic_model",)),
    "linalg.solve_calls": ("calls", ("linalg.solve",)),
    "linalg.cond_calls": ("calls", ("linalg.cond",)),
    "linalg.inv_calls": ("calls", ("linalg.inv",)),
    "linalg.eigvalsh_calls": ("calls", ("linalg.eigvalsh",)),
    "linalg.s": ("self_s", ("linalg.",)),
    "link.output_snr_calls": ("calls", ("link.output_snr",)),
    "link.output_snr_s": ("self_s", ("link.output_snr",)),
    "link.optimize_load_s": ("self_s", ("link.optimize_load",)),
    "kernels.snr_grid_points": ("work", ("kernels.snr_grid",)),
    "kernels.snr_grid_s": ("self_s", ("kernels.snr_grid",)),
    "closed_form.calls": ("calls", CLOSED_FORM),
    "closed_form.s": ("self_s", CLOSED_FORM),
}
# Measured around the run, not from spans.
RUN_METRICS = ("import.rxfront_s", "import.numpy_s", "trace.overhead_s")


def _matches(name: str, keys: tuple) -> bool:
    return any(name == key or (key.endswith(".") and name.startswith(key)) for key in keys)


class Recorder:
    """Span recorder. A span is [name, start_ns, end_ns, parent span, thread, work].

    Each thread keeps its own stack of open spans. A span opened in a worker
    thread with nothing open in that thread is parented to the innermost
    span open in the main thread, which is blocked waiting for the workers.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, result_size: bool):
        spans = self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            record = [name, clock(), 0, parent, threading.get_ident(), 0]
            spans.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if result_size:
                record[5] = int(getattr(result, "size", 0))
            return result

        return wrapper

    def counter(self, name: str, fn):
        # itertools.count advances atomically, so counts from worker threads
        # are never lost.
        counter = self.counters[name] = itertools.count()
        tick = counter.__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name: str) -> int:
        counter = self.counters.get(name)
        return 0 if counter is None else next(counter)


def _replace_everywhere(fn, wrapper, namespaces) -> None:
    for namespace in namespaces:
        for key, value in list(vars(namespace).items()):
            if value is fn:
                setattr(namespace, key, wrapper)


def install(recorder: Recorder) -> set:
    """Wrap every target that exists; return the names of those wrapped."""
    import numpy.linalg

    namespaces = [m for n, m in sorted(sys.modules.items()) if n == "rxfront" or n.startswith("rxfront.")]
    targets = {}
    for name, (module_name, attr) in {**SPAN_TARGETS, **COUNT_TARGETS}.items():
        fn = getattr(sys.modules.get(module_name), attr, None)
        if callable(fn):
            targets[name] = fn
    for short in CLOSED_FORM_MODULES:
        module = sys.modules.get(f"rxfront.{short}")
        for attr, fn in sorted(vars(module).items() if module else ()):
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                targets[f"{short}.{attr}"] = fn
    for attr in sorted(numpy.linalg.__all__):
        fn = getattr(numpy.linalg, attr, None)
        if callable(fn) and not isinstance(fn, type) and attr != "test":
            targets[f"linalg.{attr}"] = fn

    for name, fn in targets.items():
        if name in COUNT_TARGETS:
            wrapper = recorder.counter(name, fn)
        else:
            wrapper = recorder.span(name, fn, name in WORK_IS_RESULT_SIZE)
        _replace_everywhere(fn, wrapper, namespaces + [numpy.linalg])
    return set(targets)


def self_times(spans: list) -> list:
    """Per span: duration minus the part of its interval its children cover."""
    children = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(id(span[3]), []).append((span[1], span[2]))
    out = []
    for span in spans:
        start, end = span[1], span[2]
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(id(span), ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start - covered) / 1e9)
    return out


def layer_metrics(recorder: Recorder, installed: set) -> tuple:
    """Per-layer metrics from the spans; a metric none of whose functions
    exists any more reads 0 and is listed as absent."""
    spans = recorder.spans
    selfs = self_times(spans)
    metrics, absent = {}, []
    for metric, (measure, keys) in METRICS.items():
        if not any(_matches(name, keys) for name in installed):
            absent.append(metric)
        if measure == "count":
            value = sum(recorder.count(k) for k in keys)
        else:
            picked = [i for i, span in enumerate(spans) if _matches(span[0], keys)]
            if measure == "calls":
                value = len(picked)
            elif measure == "work":
                value = sum(spans[i][5] for i in picked)
            else:
                value = sum(selfs[i] for i in picked)
        metrics[metric] = value
    return metrics, absent


def main() -> int:
    calls_path, spans_path = sys.argv[1:3]
    with open(calls_path) as handle:
        calls = json.load(handle)["calls"]

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own, before rxfront pulls it in)
    t1 = time.perf_counter()
    import rxfront.cli
    t2 = time.perf_counter()

    def run_all() -> tuple:
        start = time.perf_counter()
        codes = [rxfront.cli.main(list(argv)) for argv in calls]
        return time.perf_counter() - start, codes

    run_all()
    untraced_s, _ = run_all()
    recorder = Recorder()
    installed = install(recorder)
    traced_s, codes = run_all()

    metrics, absent = layer_metrics(recorder, installed)
    metrics["import.numpy_s"] = t1 - t0
    metrics["import.rxfront_s"] = t2 - t1
    metrics["trace.overhead_s"] = traced_s - untraced_s

    with open(spans_path, "w") as handle:
        index = {id(span): i for i, span in enumerate(recorder.spans)}
        for i, (name, start, end, parent, thread, work) in enumerate(recorder.spans):
            handle.write(json.dumps({
                "id": i, "name": name, "start_ns": start, "end_ns": end,
                "parent": None if parent is None else index[id(parent)],
                "thread": thread, "work": work,
            }) + "\n")
    print(json.dumps({"metrics": metrics, "absent": absent, "codes": codes,
                      "spans": len(recorder.spans)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
