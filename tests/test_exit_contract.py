"""The CLI's exit-code contract on malformed scenarios: 0-4, never a traceback.

An edit takes one shipped scenario and replaces one field (any object key or
list entry, at any depth) with a value from a pool of wrong types and extreme
numbers, or deletes it. Every edit goes through the parser, and through the
subcommand with and without ``--dump-normalized``. A file-level edit does the
same to one token or line of a file a scenario references (the impedance CSV
or the netlist), and runs the scenarios that read it.

A size field that fits in int64 but would allocate terabytes (say
``count: 2**40``) is a parse error: each size is charged against
``core.MAX_ARRAY_BYTES``, and a parse-only test sets every size field to
``2**40`` and ``2**62``. Such sizes stay out of the pools all the same, so
that a size check that lets one through shows as a failed test rather than
as a run that exhausts memory. The same holds for a netlist node index
such as 10**20, which is tested on the netlist parser alone.
"""

import copy
import json
import shutil
import warnings
from pathlib import Path

import pytest

from rxfront import cli, mna
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
    ("match_step_up", ("match", "ratio_sweep", "count")),
    ("array_synthetic", ("array", "synthetic", "n_tx")),
    ("array_synthetic", ("array", "synthetic", "n_rx")),
]


@pytest.mark.parametrize("value", [2**40, 2**62], ids=["2**40", "2**62"])
@pytest.mark.parametrize("name,path", SIZE_FIELDS, ids=[".".join(path[1:]) for _, path in SIZE_FIELDS])
def test_oversized_size_field_is_a_parse_error(workdir, name, path, value):
    with pytest.raises(ParseError, match="must be <=|byte limit"):
        cli.parse_scenario(_write_edit(workdir, name, path, value))


def test_grid_sizes_have_no_effect(workdir, tmp_path):
    # link.optimize.n_re/n_im size nothing since the load search is exact:
    # 2**62 of each parses and gives the shipped report
    doc = copy.deepcopy(DOCS["link_crossover"])
    doc["link"]["optimize"].update(n_re=2**62, n_im=2**62)
    scenario = workdir / "huge_grid.json"
    scenario.write_text(json.dumps(doc))
    assert cli.parse_scenario(scenario).data["link"]["optimize"]["n_re"] == 2**62
    reports = []
    for path in (scenario, SCENARIOS / "link_crossover.json"):
        out = tmp_path / f"{path.stem}.csv"
        assert cli.main(["link", "--scenario", str(path), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_single_field_edit_exits_0_to_4(workdir):
    # every edit x the whole pool through main(), with and without --dump-normalized
    for name, path in EDITS:
        subcommand = name.split("_")[0]  # each example's subcommand is the first word of its name
        for value in POOL:
            scenario = _write_edit(workdir, name, path, value)
            for extra in ([], ["--dump-normalized"]):
                argv = [subcommand, "--scenario", str(scenario), "--out", str(workdir / "report"), *extra]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = cli.main(argv)
                assert code in (0, 1, 2, 3, 4), (name, path, value, extra)


@pytest.mark.parametrize("index", [10**8, 10**20], ids=["1e8", "1e20"])
def test_huge_netlist_node_index_is_a_parse_error(index):
    # parse only, as for the size fields: the check must come before any allocation
    with pytest.raises(ParseError, match=f"skips {index - 2} node indices below {index}"):
        mna.parse_netlist(f"V1 1 0 1 0\nZ1 {index} 0 1 0\n")


# A file-level edit replaces one token of one line with a value from
# TOKEN_POOL or deletes it, or deletes or repeats one line. The pool holds no
# large integer: a port or node index is a size.
TOKEN_POOL = ["", "x", "-1", "0", "2", "0.5", "-1e300", "1e-300", "nan", "inf", "1+2j", DELETE]
FILE_READERS = {"coupled_pair.csv": (",", ["validate_pair", "array_pair"]),
                "divider.cir": (" ", ["frontend_netlist"])}


def _file_edits(text: str, sep: str):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        yield lines[:i] + lines[i + 1:]
        yield lines[:i + 1] + lines[i:]
        tokens = line.split(sep)
        for j in range(len(tokens)):
            for value in TOKEN_POOL:
                edited = tokens[:j] + ([] if value is DELETE else [value]) + tokens[j + 1:]
                yield lines[:i] + [sep.join(edited)] + lines[i + 1:]


@pytest.mark.parametrize("referenced", sorted(FILE_READERS))
def test_file_token_edit_exits_0_to_4(tmp_path, referenced):
    sep, names = FILE_READERS[referenced]
    for name in names:
        (tmp_path / f"{name}.json").write_text(json.dumps(DOCS[name]))
    target = tmp_path / referenced
    for lines in _file_edits((SCENARIOS / referenced).read_text(), sep):
        target.write_text("\n".join(lines) + "\n")
        for name in names:
            argv = [name.split("_")[0], "--scenario", str(tmp_path / f"{name}.json"),
                    "--out", str(tmp_path / "report")]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = cli.main(argv)
            assert code in (0, 1, 2, 3, 4), (referenced, lines, name)
