"""The CLI's exit-code contract on malformed scenarios: 0-4, never a traceback.

An edit takes one shipped scenario and replaces one field (any object key or
list entry, at any depth) with a value from a pool of wrong types and extreme
numbers, or deletes it. Every edit goes through the parser; a Hypothesis
sample of them runs the subcommand with and without ``--dump-normalized``.

A size field that fits in int64 but would allocate terabytes (say
``n_re: 2**40``) is a parse error: each size is charged against
``core.MAX_ARRAY_BYTES``, and a parse-only test sets every size field to
``2**40`` and ``2**62``. Such sizes stay out of the pool all the same, so
that a size check that lets one through shows as a failed test rather than
as a run that exhausts memory.
"""

import copy
import json
import shutil
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxfront import cli
from rxfront.core import ParseError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DOCS = {path.stem: json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))}
DELETE = object()
POOL = [
    None, True, False, -3, 0, 10**400, 1e308, -1e308, 1e-300, "inf", "", [], {},
    [[{"re": 1.0}]], {"re": "inf"}, {"re": 0, "im": 0}, ["explicit"], {"kind": "explicit"},
    DELETE,
]


def _paths(node, prefix=()):
    """Every object key and list index below ``node``, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


EDITS = [(name, path) for name, doc in DOCS.items() for path in _paths(doc)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("contract")
    for referenced in ("coupled_pair.csv", "divider.cir"):
        shutil.copy(SCENARIOS / referenced, work)
    return work


def _write_edit(workdir, name, path, value) -> Path:
    doc = copy.deepcopy(DOCS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    scenario = workdir / f"{name}.json"
    scenario.write_text(json.dumps(doc))
    return scenario


def test_every_single_field_edit_normalizes_or_is_a_parse_error(workdir):
    # all edits x the whole pool, through the parser only (main() costs ~2 ms a call)
    for name, path in EDITS:
        for value in POOL:
            try:
                cli.parse_scenario(_write_edit(workdir, name, path, value))
            except ParseError:
                pass
            except Exception as exc:
                raise AssertionError(f"{name}: {path} = {value!r}") from exc


SIZE_FIELDS = [
    ("link_crossover", ("link", "optimize", "n_re")),
    ("link_crossover", ("link", "optimize", "n_im")),
    ("match_step_up", ("match", "ratio_sweep", "count")),
    ("array_synthetic", ("array", "synthetic", "n_tx")),
    ("array_synthetic", ("array", "synthetic", "n_rx")),
]


@pytest.mark.parametrize("value", [2**40, 2**62], ids=["2**40", "2**62"])
@pytest.mark.parametrize("name,path", SIZE_FIELDS, ids=[".".join(path[1:]) for _, path in SIZE_FIELDS])
def test_oversized_size_field_is_a_parse_error(workdir, name, path, value):
    with pytest.raises(ParseError, match="must be <=|byte limit"):
        cli.parse_scenario(_write_edit(workdir, name, path, value))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(edit=st.sampled_from(EDITS), value=st.sampled_from(POOL))
def test_single_field_edit_exits_0_to_4(workdir, edit, value):
    name, path = edit
    scenario = _write_edit(workdir, name, path, value)
    subcommand = name.split("_")[0]  # each example's subcommand is the first word of its name
    for extra in ([], ["--dump-normalized"]):
        argv = [subcommand, "--scenario", str(scenario), "--out", str(workdir / "report"), *extra]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(argv)
        assert code in (0, 1, 2, 3, 4), (edit, value, extra)
