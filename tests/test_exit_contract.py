"""The CLI's exit-code contract on malformed scenarios: 0-4, never a traceback.

An edit takes one shipped scenario and replaces one field (any object key or
list entry, at any depth) with a value from a pool of wrong types and extreme
numbers, or deletes it. Every edit goes through the parser, and through the
subcommand with and without ``--dump-normalized``. In process, each edit the
parser accepts also goes through its command's two stages: ``build`` must
raise every input error, and ``solve`` only numerical errors and the checks
listed in SOLVE_TIME_CHECKS, without opening a file. A file-level edit does the
same to one token or line of a file a scenario references (the impedance CSV
or the netlist), and runs the scenarios that read it. Each case's exit code
and stderr line are pinned in tests/golden/exit_contract.json, which
``PYTHONPATH=src python tests/test_exit_contract.py`` rewrites, and every
exit-0 cell of the closed-form reports is checked against its exact value
(tests/exact.py).

A size field that fits in int64 but would allocate terabytes (say
``count: 2**40``) is a parse error: each size is charged against
``core.MAX_ARRAY_BYTES``, and a parse-only test sets every size field to
``2**40`` and ``2**62``. Such sizes stay out of the pools all the same, so
that a size check that lets one through shows as a failed test rather than
as a run that exhausts memory. The same holds for a netlist node index
such as 10**20, which is tested on the netlist parser alone.
"""

import contextlib
import copy
import csv
import functools
import importlib
import io
import json
import math
import re
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

import exact
from rxfront import cli, link, mna
from rxfront.commands.link import FLAGS as LINK_FLAGS
from rxfront.core import OPEN_CIRCUIT, NumericalError, ParseError, ToolkitError, ValidationError
from rxfront.scenario import render_report

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


# The input checks that a command's solve may raise, as a regex of the
# message: each is made inside a solver function that solve calls, and every
# other parse, validation and I/O error comes from build (rxfront.commands).
SOLVE_TIME_CHECKS = {
    "link": r"load '.*': z_l_ohms must have nonnegative real part",  # link._row_kernel, per load
    "frontend": r"r_c must be positive \(math\.inf allowed\)",  # frontend.solve_constant_current
    # arrays.termination_matrix, against the model's ports; no single-field edit reaches it
    "array": r"explicit load matrix (shape .* does not match .*|is not passive \(Re part not PSD\))",
}


@functools.cache
def _open_guard() -> list:
    """A list to hold the work directory while a solve runs: a file opened in
    it then fails the test. sys.addaudithook has no removal, so the hook,
    added once, stays for the process, idle while the list is empty."""
    solving = []

    def hook(event, args):
        if event == "open" and solving and str(args[0]).startswith(solving[0]):
            raise AssertionError(f"solve opened {args[0]}")
    sys.addaudithook(hook)
    return solving


def test_every_single_field_edit_normalizes_or_is_a_parse_error(workdir):
    # all edits x the whole pool through the parser, and each scenario it
    # accepts through its command's build, then solve: build raises every
    # input error, solve only numerical ones and SOLVE_TIME_CHECKS, and
    # solve opens no file (main() costs ~2 ms a call)
    solving, solve_time = _open_guard(), []
    for name, path in EDITS:
        command = name.split("_")[0]
        module = importlib.import_module(f"rxfront.commands.{command}")
        for value in POOL:
            case = _case(name, path, value)
            try:
                scenario = cli.parse_scenario(_write_edit(workdir, name, path, value))
            except ParseError:
                continue
            except Exception as exc:
                raise AssertionError(case) from exc
            try:
                model = module.build(scenario)
            except (ToolkitError, OSError, *cli._numerical_errors()):
                continue
            solving.append(str(workdir))
            try:
                module.solve(model)
            except cli._numerical_errors():
                pass
            except ValidationError as exc:
                assert re.fullmatch(SOLVE_TIME_CHECKS[command], str(exc)), case
                solve_time.append(command)
            finally:
                solving.clear()
    assert sorted(solve_time) == ["frontend"] * 3 + ["link"] * 4


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


def test_old_grid_size_keys_are_ignored(workdir, tmp_path):
    # link.optimize.n_re/n_im sized the grid that the exact load search
    # replaced; any value of them, or none, parses to the same data and gives
    # the shipped report
    shipped = (SCENARIOS.parent / "perfbench" / "reference" / "link_crossover.csv").read_bytes()
    for sizes in ({"n_re": 2**62, "n_im": 2**62}, {"n_re": "x", "n_im": "x"}, {}):
        doc = copy.deepcopy(DOCS["link_crossover"])
        optimize = doc["link"]["optimize"]
        for key in ("n_re", "n_im"):
            optimize.pop(key)
        optimize.update(sizes)
        scenario = workdir / "grid_sizes.json"
        scenario.write_text(json.dumps(doc))
        parsed = cli.parse_scenario(scenario).data["link"]["optimize"]
        assert "n_re" not in parsed and "n_im" not in parsed, sizes
        out = tmp_path / "grid_sizes.csv"
        assert cli.main(["link", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert out.read_bytes() == shipped, sizes


def test_single_field_edit_exits_0_to_4(workdir):
    # every edit x the whole pool through main() with --dump-normalized; the
    # runs without it are test_exit_0_nonfinite_cells_are_the_listed_ones
    for name, path in EDITS:
        subcommand = name.split("_")[0]  # each example's subcommand is the first word of its name
        for value in POOL:
            scenario = _write_edit(workdir, name, path, value)
            argv = [subcommand, "--scenario", str(scenario), "--out", str(workdir / "report"), "--dump-normalized"]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = cli.main(argv)
            assert code in (0, 1, 2, 3, 4), (name, path, value)


REFERENCE = SCENARIOS.parent / "perfbench" / "reference"
NONFINITE = {"inf", "-inf", "undefined"}


def _nonfinite_columns(report: str) -> set:
    """The columns of a CSV report that hold an inf or undefined cell, in a
    port list ("1;inf") or an annotation ("offdiag_ratio=inf") too."""
    header, *rows = csv.reader(io.StringIO(report))
    return {name for j, name in enumerate(header) for row in rows
            if any(part.rpartition("=")[2] in NONFINITE for part in row[j].split(";"))}


def _case(name, path, value) -> str:
    text = "delete" if value is DELETE else "10**400" if value == 10**400 else json.dumps(value)
    return f"{name}: {'.'.join(map(str, path))} = {text}"


GOLDEN = Path(__file__).resolve().parent / "golden" / "exit_contract.json"


def _outcome(argv, work) -> tuple:
    """main(argv) with warnings recorded: its exit code, its stderr as one
    golden entry ("<code> <stderr>", the work directory written <work>) and
    the messages of the warnings it raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    entry = f"{code} {err.getvalue()}".replace(str(work), "<work>").rstrip()
    return code, entry, sorted({str(w.message) for w in caught})


def _inexact_cells(command: str, scenario: Path, report: str) -> dict:
    """The cells of an exit-0 closed-form report that differ from their
    exact value rounded to 12 significant digits (tests/exact.py)."""
    return exact.inexact_report(command, cli.parse_scenario(scenario).data, report)


# Single-field edits whose exit-0 report prints a non-finite cell in a column
# that the shipped report prints finite, with those columns. An overflow
# printed as inf is a fault that should exit 3; each one mended leaves this
# list, and test_exit_0_nonfinite_cells_are_the_listed_ones fails until it
# does. Both left print the flag token of a zero source current, which is
# wrong: the exact current is not 0.
REMAINING_OVERFLOWS = {
    "frontend_buffer: frontend.opamp.z_id_ohms.re = 1e-300": "z_eff_im_ohms,z_eff_re_ohms",
    "frontend_buffer: frontend.opamp.r_out_ohms = 1e+308": "z_eff_im_ohms,z_eff_re_ohms",
}
# The same, where the non-finite cell is a documented result: no signal
# (Eb/N0 at zero power, a zero source current), no noise, or a label.
DOCUMENTED_FLAGS = {
    "capacity_demo: capacity.power = 0": "eb_n0",
    "frontend_buffer: frontend.source.v_oc_volts = {\"re\": 0, \"im\": 0}": "z_eff_im_ohms,z_eff_re_ohms",
    "frontend_buffer: frontend.source.v_oc_volts.re = 0": "z_eff_im_ohms,z_eff_re_ohms",
    "frontend_buffer: frontend.opamp.z_id_ohms = \"inf\"": "z_eff_im_ohms,z_eff_re_ohms",
    "frontend_buffer: frontend.opamp.z_id_ohms = delete": "z_eff_im_ohms,z_eff_re_ohms",
    "link_crossover: amplifier.n_na_v2_per_hz = 0": "snr",
    "noisefig_sweep: noisefig.r_s_ohms = 0": "noise_factor,noise_figure_db",
    **{f"link_crossover: link.loads.{i}.label = \"inf\"": "label" for i in range(4)},
}


# Exit-0 closed-form cells that differ from their exact value rounded to 12
# significant digits (_inexact_cells), by case, each "<column> row N" with
# "<cell>, exact <value>": a ratchet, as above.
INEXACT = {}


def _edit_survey(work: Path) -> tuple:
    """Every edit x the whole pool through main(), with warnings recorded:
    each case's golden entry, the warnings raised, the exit-0 reports'
    non-finite cells in columns the shipped report prints finite, and their
    closed-form cells that are not exact."""
    outcomes, warned, found, inexact = {}, {}, {}, {}
    report = work / "report"
    for name, path in EDITS:
        command = name.split("_")[0]  # each example's subcommand is the first word of its name
        shipped = (REFERENCE / f"{name}.csv").read_text()
        finite = set(shipped.partition("\n")[0].split(",")) - _nonfinite_columns(shipped)
        for value in POOL:
            case, scenario = _case(name, path, value), _write_edit(work, name, path, value)
            code, outcomes[case], caught = _outcome([command, "--scenario", str(scenario), "--out", str(report)], work)
            assert code in (0, 1, 2, 3, 4), case
            if caught:
                warned[case] = caught
            if code != 0:
                continue
            text = report.read_text()
            columns = sorted(_nonfinite_columns(text) & finite)
            if columns:
                found[case] = ",".join(columns)
            if command in exact.COMMANDS:
                wrong = _inexact_cells(command, scenario, text)
                if wrong:
                    inexact[case] = wrong
    return outcomes, warned, found, inexact


def test_exit_0_nonfinite_cells_are_the_listed_ones(workdir):
    # each edit exits 0 to 4 with its golden exit code and stderr line, no
    # edit may warn, the non-finite cells of the exit-0 reports must be
    # exactly the listed ones, and every closed-form cell of an exit-0
    # report is exact but for the listed ones
    outcomes, warned, found, inexact = _edit_survey(workdir)
    assert warned == {}
    assert found == {**REMAINING_OVERFLOWS, **DOCUMENTED_FLAGS}
    assert inexact == INEXACT
    golden = json.loads(GOLDEN.read_text())["edits"]
    assert {case: entry for case, entry in outcomes.items() if golden.get(case) != entry} == {}
    assert outcomes.keys() == golden.keys()


@pytest.mark.parametrize("r_in", [1e200, 1e-300, 1e308], ids=["1e200", "1e-300", "1e308"])
def test_match_input_resistance_against_the_exact_values(workdir, capsys, r_in):
    # each once exited 3: |r_in|^2 overflowed (1e200); r_in^2 underflowed to
    # 0, then n^2 s_voc to a subnormal (1e-300); n^2 Re z_r overflowed from
    # row 30, whose exact SNR is 124878802.001 (1e308). Each printed cell is
    # now its exact value to 12 digits
    scenario = _write_edit(workdir, "match_step_up", ("match", "amp_input_resistance_ohms"), r_in)
    report = workdir / "r_in.csv"
    assert cli.main(["match", "--scenario", str(scenario), "--out", str(report)]) == 0
    assert capsys.readouterr().err == ""
    text = report.read_text()
    assert text.count("\n") == 52 and _inexact_cells("match", scenario, text) == {}
    if r_in == 1e308:
        assert text.splitlines()[30] == "1.44543977075e+153,124878802.001,"


def test_noise_factor_beyond_the_float_range_names_its_row(workdir, capsys):
    # amp.gain 1e-300: 2kT g^2 underflows to 0, which the noise factor once
    # divided by; its exact value is outside the float range
    scenario = _write_edit(workdir, "noisefig_sweep", ("noisefig", "amp", "gain"), 1e-300)
    assert cli.main(["noisefig", "--scenario", str(scenario), "--out", str(workdir / "gain.csv")]) == 3
    assert capsys.readouterr().err == "numerical error: noise_factor row 1 is outside the float range\n"
    factor = exact.noisefig_columns(cli.parse_scenario(scenario).data)["noise_factor"][0]
    assert exact.printed(factor) == {"inf"} and factor > exact.dec(1) * 2**1024


# Edits that once printed inf or undefined at exit 0, or a numpy warning
# before their message: each exits with one stderr line, warnings as errors.
REFUSED = [
    *((("array_pair", ("array", "i_t_amperes", 0, part), sign * 1e308), 3, "numerical error: ")
      for part in ("re", "im") for sign in (1, -1)),
    (("array_synthetic", ("array", "synthetic", "frequencies_hz", 0), 1e-300), 3, "numerical error: "),
    (("array_synthetic", ("array", "synthetic", "frequencies_hz", 2), 1e308), 3, "numerical error: "),
    *((("array_synthetic", ("array", "synthetic", *path), 1e308), 3,
       "numerical error: the synthetic impedance matrix is outside the float range\n")
      for path in (("self_ohms", "re"), ("coupling_ohms",))),
    (("array_synthetic", ("array", "synthetic", "self_ohms", "im"), 1e308), 1, "validation error: "),
    (("array_synthetic", ("array", "synthetic", "self_ohms", "im"), -1e308), 1, "validation error: "),
]


@pytest.mark.parametrize("edit,code,prefix", REFUSED, ids=[_case(*edit) for edit, _, _ in REFUSED])
def test_overflowing_array_edit_exits_with_one_line(workdir, capsys, edit, code, prefix):
    scenario = _write_edit(workdir, *edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["array", "--scenario", str(scenario)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, captured.err


def test_float_range_rule_refuses_naming_column_and_row():
    inf, nan = math.inf, math.nan
    refused = [
        ({"power": [1.0, inf]}, (), "power row 2"),  # inf in an undeclared column
        ({"power": [1.0, 2.0, -inf]}, ("power",), "power row 3"),  # -inf is no flag
        ({"snr": [inf, nan]}, ("snr",), "snr row 2"),  # NaN in a declared column
        ({"eb_n0": [None, "x", 1.0, inf]}, (), "eb_n0 row 4"),  # a list the sum cannot add
        ({"big": [1e308, 1e308, nan]}, (), "big row 3"),  # a sum that overflows before the NaN
        ({"freq": [1.0, nan]}, ("freq",), "freq row 2"),
        ({"ports": [[1.0, 2.0], [3.0, 4.0], [5.0, inf]]}, (), "ports row 3"),  # a port column's row
        ({"label": ["a", "b"], "ports": [[1.0], [nan]], "snr": [inf, -inf]}, ("snr",), "ports row 2"),  # first column first
    ]
    for columns, flags, message in refused:
        for fmt_kind in ("csv", "text"):
            with pytest.raises(NumericalError, match=f"^{message} is outside the float range$"):
                render_report(columns, fmt_kind, "refused", flags)
    render_report({  # finite floats, +inf in a flag column, and cells that are not floats
        "snr": [inf, 1.0], "flag": [[inf, 2.0], [3.0, inf]], "big": [1e308, 1e308], "label": ["inf", "nan"],
        "eb_n0": [None, 1.0], "count": [10**400, 1], "ints": [1, 2],
    }, "csv", "cleared", ("snr", "flag"))
    assert render_report({"empty": []}, "csv", "empty", ()) == "empty\n"

    # link_crossover at amplifier.gain 1e308: the SNR formulas' quotients
    # overflow, which gives NaN, never the no-noise flag inf
    lnk = link.SingleLink(50.0, 10.0, 1e-12)
    amp = link.AmplifierNoiseModel(1e308, 1e-9, 290.0)
    snr = [link.output_snr(lnk, amp, OPEN_CIRCUIT), link.output_snr(lnk, amp, 50 + 0j)]
    with pytest.raises(NumericalError, match="^snr row 1 is outside the float range$"):
        render_report({"snr": snr}, "csv", "gain", LINK_FLAGS)


def _float_cells(column: list) -> list:
    """The float cells of a column, a port column's rows flattened."""
    return [x for value in column for x in (value if isinstance(value, list) else [value]) if isinstance(x, float)]


def test_exit_0_nonfinite_float_cells_lie_in_flag_columns(workdir):
    # the shipped scenarios and the ratchet's edits, through each command's
    # run: every column is a list, the rule lets them all through, and every
    # float it lets through that is not finite is +inf in a declared FLAGS column
    listed = {**REMAINING_OVERFLOWS, **DOCUMENTED_FLAGS}
    edits = [(name, path, value) for name, path in EDITS for value in POOL if _case(name, path, value) in listed]
    assert len(edits) == len(listed)
    flagged = set()
    for name, path, value in [(name, None, None) for name in DOCS] + edits:
        scenario = SCENARIOS / f"{name}.json" if path is None else _write_edit(workdir, name, path, value)
        module = importlib.import_module(f"rxfront.commands.{name.split('_')[0]}")
        columns, _ = module.solve(module.build(cli.parse_scenario(scenario)))
        assert all(type(cells) is list for cells in columns.values()), (name, path, value)
        render_report(columns, "csv", name, module.FLAGS)
        for column, cells in columns.items():
            nonfinite = {x for x in _float_cells(cells) if not math.isfinite(x)}
            if nonfinite:
                assert column in module.FLAGS and nonfinite == {math.inf}, (name, path, value, column)
                flagged.add(column)
    assert flagged == {"z_l_re_ohms", "z_l_im_ohms", "snr", "noise_factor", "noise_figure_db"}


def test_capacity_bound_outside_the_float_range_exits_3(tmp_path, capsys):
    # P / (N0 ln 2) = 2.885e308, one row per bandwidth: the bound is refused
    scenario = tmp_path / "huge_bound.json"
    scenario.write_text(json.dumps({"capacity": {"power": 1e308, "noise_density": 0.5, "bandwidths": [0.5]}}))
    assert cli.main(["capacity", "--scenario", str(scenario)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical error: capacity_bound_bits row 1 is outside the float range\n"


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
    """Each edit of a file's text: its name and the edited lines."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        yield f"line {i + 1} deleted", lines[:i] + lines[i + 1:]
        yield f"line {i + 1} repeated", lines[:i + 1] + lines[i:]
        tokens = line.split(sep)
        for j in range(len(tokens)):
            for value in TOKEN_POOL:
                edited = tokens[:j] + ([] if value is DELETE else [value]) + tokens[j + 1:]
                text = "delete" if value is DELETE else json.dumps(value)
                yield f"line {i + 1} token {j + 1} = {text}", lines[:i] + [sep.join(edited)] + lines[i + 1:]


def _file_survey(work: Path, referenced: str) -> dict:
    """Every edit of one referenced file, run by each scenario that reads
    it: the golden entry of each, as _edit_survey's."""
    sep, names = FILE_READERS[referenced]
    for name in names:
        (work / f"{name}.json").write_text(json.dumps(DOCS[name]))
    target, outcomes = work / referenced, {}
    for edit, lines in _file_edits((SCENARIOS / referenced).read_text(), sep):
        target.write_text("\n".join(lines) + "\n")
        for name in names:
            argv = [name.split("_")[0], "--scenario", str(work / f"{name}.json"), "--out", str(work / "report")]
            code, entry, _ = _outcome(argv, work)
            assert code in (0, 1, 2, 3, 4), (referenced, edit, name)
            outcomes[f"{name}: {referenced} {edit}"] = entry
    return outcomes


@pytest.mark.parametrize("referenced", sorted(FILE_READERS))
def test_file_token_edit_exits_0_to_4(tmp_path, referenced):
    # and with its golden exit code and stderr line
    outcomes = _file_survey(tmp_path, referenced)
    golden = {case: entry for case, entry in json.loads(GOLDEN.read_text())["files"].items()
              if case.partition(": ")[2].startswith(referenced + " ")}
    assert {case: entry for case, entry in outcomes.items() if golden.get(case) != entry} == {}
    assert outcomes.keys() == golden.keys()


if __name__ == "__main__":
    # Rewrite tests/golden/exit_contract.json from the code as it is:
    #   PYTHONPATH=src python tests/test_exit_contract.py
    # Review the diff it leaves: each changed entry is a changed exit code or message.
    golden = {}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for referenced in FILE_READERS:
            shutil.copy(SCENARIOS / referenced, work)
        golden["edits"] = _edit_survey(work)[0]
        golden["files"] = {}
        for referenced in sorted(FILE_READERS):
            with tempfile.TemporaryDirectory() as files:
                golden["files"].update(_file_survey(Path(files), referenced))
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n")
