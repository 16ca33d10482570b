"""A seeded fuzzer for the closed-form reports: ``capacity``, ``link``,
``match`` and ``noisefig``.

Each run takes one of their shipped scenarios and sets one to three of its
numeric fields to draws of either sign whose magnitude is log-uniform from
1e-320 to 1e308 (sizes and ignored keys are left alone). The subcommand runs
in process with warnings as errors, and must exit 0 to 4 without a traceback.
At exit 0, every cell must be its exact value to 12 digits (tests/exact.py),
and every non-finite cell must be inf in a column its command lists in
``FLAGS``, or in one that the shipped report prints inf (an input's "inf");
``undefined``, a cell with no value, must be the exact reference's too. At
exit 3, some exact cell must lie beyond the largest float, or the run have
no exact value (a singular divider, an unbounded optimum). Two ratchets hold
the runs that break this, by case: ``WRONG`` (exit-0 cells that are not
exact, or non-finite outside a flag column) and ``REFUSED`` (exit-3 runs
whose exact cells are all in range). Both are empty.

The tier-1 run is 600 draws of one seed, about 1.5 s on a 2-CPU host. A
longer sweep runs by hand, one line per finding, for example eight seeds of
2,000 draws each (about 35 s):

    PYTHONPATH=src python tests/test_fuzz.py --runs 2000 1 2 3 4 5 6 7 8

No numpy is imported here: CI runs this file where numpy is not installed.
"""

import contextlib
import copy
import functools
import io
import json
import math
import random
import sys
import tempfile
import warnings
from pathlib import Path

import exact
from rxfront import cli
from rxfront.scenario import _load

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NAMES = ("capacity_demo", "link_crossover", "match_step_up", "noisefig_sweep")
DOCS = {name: json.loads((SCENARIOS / f"{name}.json").read_text()) for name in NAMES}
REFERENCE = SCENARIOS.parent / "perfbench" / "reference"
SKIPPED = {"count", "n_re", "n_im"}  # a size, and the keys the link parser ignores


def _numeric_paths(node, prefix=()):
    """The paths of the numeric leaves below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if type(child) in (int, float) and key not in SKIPPED:
            yield prefix + (key,)
        yield from _numeric_paths(child, prefix + (key,))


FIELDS = {name: list(_numeric_paths(doc)) for name, doc in DOCS.items()}

# One input the fuzz found before the exact fallback: g^2 = 2.5e-395
# underflowed to 0 and the report printed SNR 0, where the exact SNR is 1.45e-99.
PINNED = [("match_step_up", {("amplifier", "gain"): 5e-198, ("match", "amp_input_resistance_ohms"): 5.9e297})]

# By case, "<cell or stderr>" of each run that breaks the contract (module doc).
WRONG = {}
REFUSED = {}


def _draws(seed: int, runs: int) -> list:
    """``runs`` seeded edits: (scenario name, {path: value}) with one to three fields."""
    rng = random.Random(seed)
    edits = []
    for _ in range(runs):
        name = rng.choice(NAMES)
        paths = rng.sample(FIELDS[name], rng.randint(1, min(3, len(FIELDS[name]))))
        edits.append((name, {path: math.copysign(10.0 ** rng.uniform(-320.0, 308.0), rng.choice((-1, 1)))
                             for path in paths}))
    return edits


def _case(name: str, edit: dict) -> str:
    return f"{name}: " + ", ".join(f"{'.'.join(map(str, path))} = {value!r}" for path, value in edit.items())


def _run(work: Path, name: str, edit: dict) -> tuple:
    """The exit code, stderr, report and parsed data (None where there is
    none) of one edit, run in process."""
    doc = copy.deepcopy(DOCS[name])
    for path, value in edit.items():
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    scenario, report = work / "fuzz.json", work / "fuzz.csv"
    scenario.write_text(json.dumps(doc))
    report.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main([name.split("_")[0], "--scenario", str(scenario), "--out", str(report)])
    data = cli.parse_scenario(scenario).data if code in (0, 3) else None
    return code, err.getvalue(), report.read_text() if code == 0 else None, data


def _in_range(value, flag: bool) -> bool:
    """Whether an exact cell prints at exit 0: a text, a flag's inf, or a
    value whose nearest float is finite."""
    if isinstance(value, str):
        return True
    return flag if value.is_infinite() else math.isfinite(float(value))


@functools.cache
def _inf_columns(name: str) -> set:
    """The columns whose cells may print inf: FLAGS, and the shipped report's
    columns that print it."""
    header, *rows = (line.split(",") for line in (REFERENCE / f"{name}.csv").read_text().splitlines())
    shipped = {column for row in rows for column, cell in zip(header, row) if cell == "inf"}
    return shipped | set(_load(f"rxfront.commands.{name.split('_')[0]}").FLAGS)


def _check(name: str, code: int, err: str, report, data: dict) -> str:
    """What breaks the contract in one run's outcome, or ""."""
    command = name.split("_")[0]
    flags = _load(f"rxfront.commands.{command}").FLAGS
    assert code in (0, 1, 2, 3, 4) and err.count("\n") == (code != 0), (code, err)
    if code == 0:
        header, *rows = (line.split(",") for line in report.splitlines())
        for row in rows:
            for column, cell in zip(header, row):
                token = cell.rpartition("=")[2]
                if token in ("-inf", "nan") or token == "inf" and column not in _inf_columns(name):
                    return f"{column}: {cell}"
        wrong = exact.inexact_report(command, data, report)
        return "; ".join(f"{cell}: {value}" for cell, value in wrong.items())
    if code == 3:
        try:
            columns = exact.report_columns(command, data)
        except ArithmeticError:  # a singular divider, or an optimum beyond the float range or unbounded
            return ""
        if all(_in_range(value, column in flags) for column, values in columns.items() for value in values):
            return err.strip()
    return ""


def fuzz(seeds, runs: int) -> tuple:
    """The WRONG and REFUSED findings of the pinned inputs and ``runs``
    draws for each seed."""
    wrong, refused = {}, {}
    with tempfile.TemporaryDirectory() as work:
        edits = PINNED + [edit for seed in seeds for edit in _draws(seed, runs)]
        for name, edit in edits:
            code, err, report, data = _run(Path(work), name, edit)
            finding = _check(name, code, err, report, data)
            if finding:
                (wrong if code == 0 else refused)[_case(name, edit)] = finding
    return wrong, refused


def test_closed_form_reports_are_exact_on_random_extremes():
    wrong, refused = fuzz([1], 600)
    assert wrong == WRONG
    assert refused == REFUSED


if __name__ == "__main__":
    args = sys.argv[1:]
    runs = 2000
    if args[:1] == ["--runs"]:
        runs, args = int(args[1]), args[2:]
    found_wrong, found_refused = fuzz([int(seed) for seed in args] or [1], runs)
    for label, found in (("WRONG", found_wrong), ("REFUSED", found_refused)):
        for case, finding in found.items():
            print(f"{label} {case}: {finding}")
    print(f"{len(found_wrong)} wrong, {len(found_refused)} refused")
