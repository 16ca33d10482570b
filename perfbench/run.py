"""End-to-end benchmark of the rxfront CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout (the package need not be
installed): children run ``python -m rxfront.cli`` with ``src`` on
PYTHONPATH. Workloads, their inputs and their output checks are defined in
``perfbench/workloads.py``.

``--trace 0`` drives the CLI as a closed loop with one client: one child
process at a time, the next starting only after the previous one exits.
An operation is one workload pass (one CLI call, or nine for ``examples``).
After each operation the benchmark times a fixed reference child (REFERENCE
below, which never changes) and then a fresh ``python -c "import rxfront.cli"``,
the set-up cost every CLI call pays. Measured per operation:

    wall_s       wall time of the operation, spawn to exit, import included
    cpu_s        user + sys CPU of the operation's children (os.wait4 rusage)
    peak_rss_mb  largest ru_maxrss among the operation's children, MiB
    setup_s      wall time of the import probe
    wall_ratio   wall_s / mean wall time of the reference runs just before
                 and just after the operation
    cpu_ratio    the same for cpu_s

All are reported as medians over the run. The speed of a shared host drifts
by tens of percent over minutes, for any code, so seconds from two runs a
few minutes apart disagree by more than a useful regression bound. The
ratios cancel that drift, since the reference runs at the same moment on
the same host; they are what the gate uses, and wall_s and cpu_s are printed
and saved beside them.

``--trace 1`` instead runs ``perfbench/traced.py`` in a fresh interpreter per
pass, which times calls into each module from outside the program, and
reports the per-layer metrics (median times, counts that must repeat
exactly across passes).

Every operation's reports are checked against an oracle; an operation fails
on a nonzero exit, a traceback on stderr, or a failed check. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. The lines before it give every metric with its unit and sample
count, the error rate, and the environment (also saved with the samples
under .perfbench/results/).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

CHILD_TIMEOUT_S = 120.0
MIN_OPERATIONS = 3

# Metrics of a timed run; the gated ones (BENCHMARK.json) go in the last line.
TIMED_UNITS = {"wall_s": "s", "cpu_s": "s", "wall_ratio": "ratio", "cpu_ratio": "ratio",
               "peak_rss_mb": "MiB", "setup_s": "s"}
GATED = ("wall_ratio", "cpu_ratio", "peak_rss_mb", "setup_s")

# Fixed reference work, run as its own child between operations: start-up
# and numpy import, small dense solves, and interpreted loops, the same mix
# as a CLI call. Changing it changes every ratio ever recorded.
REFERENCE = """
import numpy as np
a = np.eye(16) * 4.0 + 0.1
b = np.ones(16)
for _ in range(800):
    np.linalg.solve(a, b)
s = 0
for i in range(330_000):
    s += i * i
d = {}
for i in range(55_000):
    d[str(i)] = float(i)
"""


class Child:
    """Outcome of one child process: wall time, rusage and captured output."""

    def __init__(self, argv: list, env: dict, stdout: Path, stderr: Path):
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stdout = stdout.read_text(errors="replace")
        self.stderr = stderr.read_text(errors="replace")

    def problem(self, what: str) -> str | None:
        if self.code != 0:
            return f"{what}: exit code {self.code}: {self.stderr.strip()[-300:]}"
        if "Traceback" in self.stderr:
            return f"{what}: traceback on stderr: {self.stderr.strip()[-300:]}"
        return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        blas = None
    try:
        from rxfront import kernels

        kernel_route = getattr(kernels, "ACTIVE", None)
    except ImportError:
        kernel_route = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "thread_vars": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "kernels_active": kernel_route,
        "commit": git_commit(),
        "seed": seed,
    }


class Verifier:
    """Checks reports; a report byte-identical to one already checked passes."""

    def __init__(self, operation):
        self.operation = operation
        self.passed = set()

    def problem(self, call) -> str | None:
        try:
            text = call.out.read_text()
        except OSError as exc:
            return f"{call.label}: no report ({exc})"
        digest = (call.label, hashlib.sha256(text.encode()).hexdigest())
        if digest in self.passed:
            return None
        problem = self.operation.check(call.label, text)
        if problem is None:
            self.passed.add(digest)
        return problem


def run_operation(operation, verifier: Verifier, env: dict, work: Path) -> dict:
    wall = cpu = rss = 0.0
    problems = []
    for call in operation.calls:
        if call.out.exists():
            call.out.unlink()
        child = Child([sys.executable, "-m", "rxfront.cli", *call.argv], env,
                      work / "stdout.txt", work / "stderr.txt")
        wall += child.wall_s
        cpu += child.cpu_s
        rss = max(rss, child.rss_mb)
        problems.append(child.problem(call.label) or verifier.problem(call))
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "problems": [p for p in problems if p]}


def probe(code: str, env: dict, work: Path) -> Child:
    """Time ``python -c code``; a probe that fails ends the run."""
    child = Child([sys.executable, "-c", code], env, work / "stdout.txt", work / "stderr.txt")
    problem = child.problem(f"python -c {code.strip().splitlines()[0]!r}")
    if problem:
        raise SystemExit(f"probe failed: {problem}")
    return child


def summarize(values: list) -> dict:
    out = {"value": statistics.median(values), "n": len(values)}
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def timed_run(operation, seconds: float, env: dict, work: Path) -> dict:
    verifier = Verifier(operation)
    # Warm the file cache and the bytecode cache; not measured, still checked.
    warm = run_operation(operation, verifier, env, work)
    probe("import rxfront.cli", env, work)
    samples = {name: [] for name in TIMED_UNITS}
    samples["reference_s"] = []
    before = probe(REFERENCE, env, work)
    problems = list(warm["problems"])
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < MIN_OPERATIONS or time.perf_counter() < deadline:
        result = run_operation(operation, verifier, env, work)
        after = probe(REFERENCE, env, work)
        attempted += 1
        if result["problems"]:
            failed += 1
            problems.extend(result["problems"])
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name].append(result[name])
        samples["wall_ratio"].append(2.0 * result["wall_s"] / (before.wall_s + after.wall_s))
        samples["cpu_ratio"].append(2.0 * result["cpu_s"] / (before.cpu_s + after.cpu_s))
        samples["reference_s"].append(after.wall_s)
        samples["setup_s"].append(probe("import rxfront.cli", env, work).wall_s)
        before = after
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems[:20],
        "metrics": {name: dict(summarize(samples[name]), unit=unit) for name, unit in TIMED_UNITS.items()},
        "reference_s": summarize(samples["reference_s"]),
        "samples": samples,
    }


def traced_run(operation, seconds: float, env: dict, work: Path) -> dict:
    from traced import METRICS, RUN_METRICS

    calls_path = work / "calls.json"
    calls_path.write_text(json.dumps({"calls": [call.argv for call in operation.calls]}))
    verifier = Verifier(operation)
    passes, problems, absent = [], [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        child = Child([sys.executable, str(HERE / "traced.py"), str(calls_path), str(work / "spans.jsonl")],
                      env, work / "stdout.txt", work / "stderr.txt")
        problem = child.problem("traced run")
        if problem is None:
            report = json.loads(child.stdout.strip().splitlines()[-1])
            if any(report["codes"]):
                problem = f"traced run: exit codes {report['codes']}"
            else:
                problem = next(filter(None, map(verifier.problem, operation.calls)), None)
        if problem:
            problems.append(problem)
            passes.append(None)
        else:
            passes.append(report["metrics"])
            absent = report["absent"]
    good = [p for p in passes if p is not None]
    failed = len(passes) - len(good)
    metrics = {}
    for name in (*METRICS, *RUN_METRICS):
        is_count = name.endswith(("calls", "points"))
        values = [p[name] for p in good]
        if is_count and len(set(values)) > 1:
            problems.append(f"{name}: counts differ between traced passes: {values}")
        value = values[0] if is_count and values else statistics.median(values) if values else 0
        metrics[name] = {"value": value, "n": len(values), "unit": "count" if is_count else "s"}
    if problems and not failed:
        failed = 1  # counts that do not repeat make the run's numbers untrustworthy
    return {
        "attempted": len(passes),
        "failed": failed,
        "correct": not problems,
        "problems": problems[:20],
        "metrics": metrics,
        "absent": absent,
        "samples": passes,
    }


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="End-to-end benchmark of the rxfront CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "rxfront" / "cli.py").is_file():
        print(f"rxfront sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    work = STATE / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        operation = WORKLOADS[args.workload](ROOT, work, args.seed)
        run = traced_run if args.trace else timed_run
        result = run(operation, args.seconds, env, work)
        if (work / "spans.jsonl").exists():
            (work / "spans.jsonl").replace(STATE / "results" / f"{name}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["env"] = environment(args.seed)
    result["workload"] = args.workload
    (STATE / "results" / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} operations, "
          f"{result['failed']} failed")
    for metric, stats in result["metrics"].items():
        extra = f", p90 {stats['p90']:.6g}" if "p90" in stats else ""
        print(f"  {metric:24s} {stats['value']:.6g} {stats['unit']}  (median, n={stats['n']}{extra})")
    print(f"  {'error_rate':24s} {result['failed'] / result['attempted']:.6g} ratio"
          f"  ({result['failed']} of {result['attempted']})")
    if "reference_s" in result:
        print(f"  {'reference_s':24s} {result['reference_s']['value']:.6g} s  (median, n={result['reference_s']['n']})")
    if result.get("absent"):
        print(f"  absent (function no longer exists): {', '.join(result['absent'])}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    reported = result["metrics"] if args.trace else {name: result["metrics"][name] for name in GATED}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": stats["value"], "unit": stats["unit"]}
            for metric, stats in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
