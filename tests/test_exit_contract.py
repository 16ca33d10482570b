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
import csv
import io
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


REFERENCE = SCENARIOS.parent / "perfbench" / "reference"
NONFINITE = {"inf", "-inf", "undefined"}


def _nonfinite_columns(report: str) -> set:
    """The columns of a CSV report that hold an inf or undefined cell, in a
    port list ("1;inf") or an annotation ("offdiag_ratio=inf") too."""
    header, *rows = csv.reader(io.StringIO(report))
    return {name for j, name in enumerate(header) for row in rows
            if any(part.rpartition("=")[2] in NONFINITE for part in row[j].split(";"))}


def _case(name, path, value) -> str:
    return f"{name}: {'.'.join(map(str, path))} = {'delete' if value is DELETE else json.dumps(value)}"


# Single-field edits whose exit-0 report prints a non-finite cell in a column
# that the shipped report prints finite, with those columns. An overflow
# printed as inf is a fault that should exit 3; each one mended leaves this
# list, and test_exit_0_nonfinite_cells_are_the_listed_ones fails until it does.
REMAINING_OVERFLOWS = {
    "frontend_buffer: frontend.source.v_oc_volts.re = 1e+308": "p_extracted_w",
    "frontend_buffer: frontend.source.v_oc_volts.re = -1e+308": "p_extracted_w",
    "frontend_buffer: frontend.source.v_oc_volts.im = 1e+308": "p_extracted_w",
    "frontend_buffer: frontend.source.v_oc_volts.im = -1e+308": "p_extracted_w",
    "frontend_buffer: frontend.opamp.z_id_ohms.re = 1e+308": "z_eff_re_ohms",
    "frontend_buffer: frontend.opamp.z_id_ohms.re = 1e-300": "z_eff_im_ohms,z_eff_re_ohms",  # i_source 0: wrong
    "frontend_buffer: frontend.opamp.z_id_ohms.im = 1e+308": "z_eff_im_ohms",
    "frontend_buffer: frontend.opamp.z_id_ohms.im = -1e+308": "z_eff_im_ohms",
    "frontend_buffer: frontend.opamp.r_out_ohms = 1e+308": "z_eff_im_ohms,z_eff_re_ohms",  # i_source 0: wrong
    "frontend_buffer: frontend.constant_current.v_c_volts.re = 1e+308": "p_extracted_w",
    "frontend_buffer: frontend.constant_current.v_c_volts.re = -1e+308": "p_extracted_w",
    "frontend_buffer: frontend.constant_current.v_c_volts.im = 1e+308": "p_extracted_w",
    "frontend_buffer: frontend.constant_current.v_c_volts.im = -1e+308": "p_extracted_w",
    "frontend_buffer: frontend.gain_sweep.0 = 1e+308": "z_eff_re_ohms",
    "frontend_buffer: frontend.gain_sweep.1 = 1e+308": "z_eff_re_ohms",
    "frontend_buffer: frontend.gain_sweep.2 = 1e+308": "z_eff_re_ohms",
    "frontend_buffer: frontend.gain_sweep.3 = 1e+308": "z_eff_re_ohms",
    "link_crossover: link.s_it_a2_per_hz = 1e+308": "extracted_power_w_per_hz,snr",
    "link_crossover: amplifier.gain = 1e+308": "annotations,snr",
    "match_step_up: match.link.s_it_a2_per_hz = 1e+308": "snr",
    "match_step_up: amplifier.gain = 1e+308": "snr",
    "noisefig_sweep: noisefig.r_s_ohms = 1e+308": "friis_gain",
    "noisefig_sweep: noisefig.amp.gain = 1e+308": "friis_gain,output_snr",
    "noisefig_sweep: noisefig.amp.n_na_v2_per_hz = 1e+308": "noise_factor,noise_figure_db",
    **{f"noisefig_sweep: noisefig.r_l_sweep_ohms.{i} = 1e-300": "noise_factor,noise_figure_db" for i in range(6)},
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


def test_exit_0_nonfinite_cells_are_the_listed_ones(workdir):
    # every edit x the whole pool through main(), with warnings recorded: no
    # edit may warn, and the non-finite cells of the exit-0 reports must be
    # exactly the listed ones
    found, warned = {}, {}
    report = workdir / "report"
    for name, path in EDITS:
        shipped = (REFERENCE / f"{name}.csv").read_text()
        finite = set(shipped.partition("\n")[0].split(",")) - _nonfinite_columns(shipped)
        for value in POOL:
            scenario = _write_edit(workdir, name, path, value)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main([name.split("_")[0], "--scenario", str(scenario), "--out", str(report)])
            if caught:
                warned[_case(name, path, value)] = sorted({str(w.message) for w in caught})
            columns = sorted(_nonfinite_columns(report.read_text()) & finite) if code == 0 else []
            if columns:
                found[_case(name, path, value)] = ",".join(columns)
    assert warned == {}
    assert found == {**REMAINING_OVERFLOWS, **DOCUMENTED_FLAGS}


# Edits that once printed inf or undefined at exit 0, or a numpy warning
# before their message: each exits with one stderr line, warnings as errors.
REFUSED = [
    *((("array_pair", ("array", "i_t_amperes", 0, part), sign * 1e308), 3, "numerical error: ")
      for part in ("re", "im") for sign in (1, -1)),
    (("array_synthetic", ("array", "synthetic", "frequencies_hz", 0), 1e-300), 3, "numerical error: "),
    (("array_synthetic", ("array", "synthetic", "frequencies_hz", 2), 1e308), 3, "numerical error: "),
    (("array_synthetic", ("array", "synthetic", "self_ohms", "re"), 1e308), 3, "numerical error: "),
    (("array_synthetic", ("array", "synthetic", "coupling_ohms"), 1e308), 3, "numerical error: "),
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
