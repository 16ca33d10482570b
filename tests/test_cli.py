import csv
import gc
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import exact
import numpy as np
import pytest
from oracles import cells_ref, render_report_ref

from rxfront import cli
from rxfront import scenario as shared
from rxfront.commands import link as link_command
from rxfront.commands import match as match_command
from rxfront.core import NumericalError, ParseError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _child_env():
    """This environment, with the package's source directory on PYTHONPATH."""
    src = Path(cli.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fmt_tokens():
    assert cli.fmt(0.0) == "0"
    assert cli.fmt(-0.0) == "0"
    assert cli.fmt(math.inf) == "inf"
    assert cli.fmt(-math.inf) == "-inf"
    assert cli.fmt(math.nan) == "undefined"
    assert cli.fmt(None) == "undefined"
    assert cli.fmt(1.0 / 3.0) == "0.333333333333"  # 12 significant digits
    assert cli.fmt(1234567890123456.0) == "1.23456789012e+15"
    assert cli.fmt(50) == "50"
    assert cli.fmt("already") == "already"


def test_fmt_numpy_scalars_and_bools():
    assert cli.fmt(True) == "true" and cli.fmt(False) == "false"
    assert cli.fmt(np.int64(-3)) == "-3"
    assert cli.fmt(np.int8(0)) == "0"
    assert cli.fmt(np.True_) == "1" and cli.fmt(np.False_) == "0"  # numpy.bool_ is not an integer
    assert cli.fmt(np.float32(0.5)) == "0.5"


def test_capacity_stdout_csv(capsys):
    code, out, _ = run_cli(
        ["capacity", "--scenario", str(SCENARIOS / "capacity_demo.json")], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "bandwidth,capacity_bits,capacity_bound_bits,eb_n0"
    assert len(lines) == 8


def test_text_format_carries_same_fields(capsys):
    code, out, _ = run_cli(
        [
            "capacity",
            "--scenario",
            str(SCENARIOS / "capacity_demo.json"),
            "--format",
            "text",
        ],
        capsys,
    )
    assert code == 0
    assert out.startswith("report: capacity-demo capacity\n")
    assert "  bandwidth: 0.5" in out
    assert out.count("row ") == 7


def test_link_open_circuit_row_prints_literal_zero(capsys):
    code, out, _ = run_cli(
        ["link", "--scenario", str(SCENARIOS / "link_crossover.json")], capsys
    )
    assert code == 0
    open_row = [l for l in out.splitlines() if l.startswith("open,")][0]
    cells = open_row.split(",")
    assert cells[1] == "inf" and cells[2] == "inf"
    assert cells[4] == "0"  # open circuit extracts exactly nothing
    assert "oc_over_match=" in cells[6]


def test_array_open_circuit_power_is_literal_zero(capsys):
    code, out, _ = run_cli(
        ["array", "--scenario", str(SCENARIOS / "array_pair.json")], capsys
    )
    assert code == 0
    for line in out.splitlines():
        if ",open_circuit," in line:
            assert line.split(",")[2] == "0"


def test_array_rows_ordered_frequency_then_strategy(capsys):
    _, out, _ = run_cli(
        ["array", "--scenario", str(SCENARIOS / "array_pair.json")], capsys
    )
    rows = [l.split(",")[:2] for l in out.strip().splitlines()[1:]]
    freqs = [float(r[0]) for r in rows]
    assert freqs == sorted(freqs)
    strategies = [r[1] for r in rows[:3]]
    assert strategies == ["open_circuit", "per_antenna_conjugate", "full_conjugate"]


def test_noisefig_infinite_load_row(capsys):
    code, out, _ = run_cli(
        ["noisefig", "--scenario", str(SCENARIOS / "noisefig_sweep.json")], capsys
    )
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert last[0] == "inf"
    factors = [float(l.split(",")[3]) for l in out.strip().splitlines()[1:]]
    assert factors == sorted(factors, reverse=True)  # bigger r_l, lower F


def test_out_file_and_byte_identical_reruns(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for target in (a, b):
        code, _, _ = run_cli(
            [
                "match",
                "--scenario",
                str(SCENARIOS / "match_step_up.json"),
                "--out",
                str(target),
            ],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_parallel_jobs_byte_identical(tmp_path, capsys):
    outs = []
    for jobs in ("1", "4"):
        target = tmp_path / f"j{jobs}.csv"
        code, _, _ = run_cli(
            [
                "array",
                "--scenario",
                str(SCENARIOS / "array_synthetic.json"),
                "--jobs",
                jobs,
                "--out",
                str(target),
            ],
            capsys,
        )
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_dump_normalized_round_trip(tmp_path, capsys):
    dumped = tmp_path / "norm.json"
    code, _, _ = run_cli(
        [
            "link",
            "--scenario",
            str(SCENARIOS / "link_crossover.json"),
            "--dump-normalized",
            "--out",
            str(dumped),
        ],
        capsys,
    )
    assert code == 0
    first = json.loads(dumped.read_text())
    again = cli.parse_scenario(dumped)
    assert again.data == first
    assert again.kind == "link"


def test_dump_normalized_inserts_defaults(tmp_path, capsys):
    raw = tmp_path / "min.json"
    raw.write_text(json.dumps({
        "match": {
            "link": {"z_r_ohms": {"re": 100}, "z_rt_ohms": {"re": 10}, "s_it_a2_per_hz": 1e-12},
            "amp_input_resistance_ohms": 1e9,
        },
        "amplifier": {"gain": 10, "n_na_v2_per_hz": 1e-12, "temp_kelvin": 290},
    }))
    scenario = cli.parse_scenario(raw)
    assert scenario.data["match"]["ratio_sweep"] == {"count": 51, "span_decades": 2.0}
    assert scenario.data["match"]["cancel_reactance"] is True
    assert scenario.data["match"]["link"]["z_r_ohms"]["im"] == 0.0
    assert scenario.data["name"] == "min"


def test_scenario_kind_mismatch_exits_2(capsys):
    code, _, err = run_cli(
        ["capacity", "--scenario", str(SCENARIOS / "link_crossover.json")], capsys
    )
    assert code == 2
    assert "parse error" in err


def test_missing_file_exits_4(tmp_path, capsys):
    code, _, err = run_cli(
        ["link", "--scenario", str(tmp_path / "nope.json")], capsys
    )
    assert code == 4
    assert "i/o error" in err


@pytest.mark.parametrize("payload", [b'{"name": "\xff"}', b"[" * 100_000 + b"]" * 100_000],
                         ids=["not_utf8", "nested_too_deep"])
def test_unreadable_json_exits_2(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    code, _, err = run_cli(["link", "--scenario", str(bad)], capsys)
    assert code == 2
    assert "invalid JSON" in err


def test_referenced_csv_not_utf8_exits_2(tmp_path, capsys):
    (tmp_path / "pair.csv").write_bytes(b"freq_hz,row,col,re_ohms,im_ohms\n1e6,0,0,\xff,0\n")
    scen = tmp_path / "val.json"
    scen.write_text(json.dumps({"validate": {"impedance_csv": "pair.csv"}}))
    code, _, err = run_cli(["validate", "--scenario", str(scen)], capsys)
    assert code == 2
    assert err.startswith(f"parse error: {tmp_path / 'pair.csv'}: line 2: byte 0xff is not valid ")
    assert err.count("\n") == 1


def test_referenced_netlist_not_utf8_exits_2(tmp_path, capsys):
    netlist = (SCENARIOS / "divider.cir").read_bytes()
    lines = netlist.splitlines(keepends=True)
    lines[3] = lines[3].replace(b"1e5", b"1e\xe95")  # 1-based line 4
    (tmp_path / "bad.cir").write_bytes(b"".join(lines))
    scen = tmp_path / "fe.json"
    scen.write_text(json.dumps({"frontend": {"netlist": "bad.cir"}}))
    code, _, err = run_cli(["frontend", "--scenario", str(scen)], capsys)
    assert code == 2
    assert err.startswith(f"parse error: {tmp_path / 'bad.cir'}: line 4: byte 0xe9 is not valid ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("index", [10**12, 10**23], ids=["beyond_memory", "beyond_int64"])
def test_csv_port_index_beyond_the_size_limit_exits_2(tmp_path, capsys, index):
    (tmp_path / "pair.csv").write_text(f"freq_hz,row,col,re_ohms,im_ohms\n1e6,{index},0,1,0\n")
    scen = tmp_path / "val.json"
    scen.write_text(json.dumps({"validate": {"impedance_csv": "pair.csv"}}))
    code, _, err = run_cli(["validate", "--scenario", str(scen)], capsys)
    assert code == 2
    assert "byte matrix limit" in err


def test_header_only_csv_exits_2_with_one_stderr_line(tmp_path):
    (tmp_path / "empty.csv").write_text("freq_hz,row,col,re_ohms,im_ohms\n")
    scen = tmp_path / "val.json"
    scen.write_text(json.dumps({"validate": {"impedance_csv": "empty.csv"}}))
    proc = subprocess.run([sys.executable, "-m", "rxfront.cli", "validate", "--scenario", str(scen)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"parse error: {tmp_path / 'empty.csv'}: no data rows"]


def _edited(name: str, path: tuple, value) -> dict:
    """A shipped scenario with the field at ``path`` set to ``value``."""
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# Inputs for each exit code, run as a process: `python -m rxfront.cli` calls
# the run() that the installed `rxfront` script calls. Each scenario is a JSON
# document, a file's text, or None for a missing file
PROCESS_EXITS = {
    "negative_power": ("capacity", {"capacity": {"power": -1.0, "noise_density": 1.0, "bandwidths": [1.0]}},
                       1, "validation error: "),
    "not_json": ("link", "{not json", 2, "parse error: "),
    "link_z_rt_1e200": ("link", _edited("link_crossover", ("link", "z_rt_ohms", "re"), 1e200),
                        3, "numerical error: "),
    # a netlist that solves to -inf: its NaN residual ratio is refused, with no numpy warning
    "overflowing_netlist": ("frontend", {"frontend": {"netlist": "overflow.cir"}}, 3, "numerical error: "),
    # every open-circuit voltage is outside the float range
    "array_current_1e308": ("array", _edited("array_pair", ("array", "i_t_amperes", 0, "re"), 1e308),
                            3, "numerical error: "),
    # the capacity bound P/(N0 ln 2) = 2.9e308
    "capacity_bound_overflow": ("capacity", {"capacity": {"power": 1e308, "noise_density": 0.5,
                                                          "bandwidths": [0.5]}}, 3, "numerical error: "),
    # every SNR and the SNR ratio leave the float range
    "link_gain_1e308": ("link", _edited("link_crossover", ("amplifier", "gain"), 1e308), 3, "numerical error: "),
    "missing_file": ("link", None, 4, "i/o error: "),
    # P/(B*N0) = 2e308 overflows, but the capacity (512.08) and Eb/N0 (1.95e305) do not
    "capacity_huge_power": ("capacity", {"capacity": {"power": 1e308, "noise_density": 1.0, "bandwidths": [0.5]}},
                            0, None),
}


@pytest.mark.parametrize("sub, scenario, code, prefix", PROCESS_EXITS.values(), ids=PROCESS_EXITS)
def test_each_exit_code_from_a_process_prints_at_most_one_stderr_line(tmp_path, sub, scenario, code, prefix):
    (tmp_path / "overflow.cir").write_text("I1 1 0 1e308 0\nZ1 1 0 1e308 0\nZ2 1 0 1e308 0\n")
    (tmp_path / "coupled_pair.csv").write_bytes((SCENARIOS / "coupled_pair.csv").read_bytes())
    path = tmp_path / "scenario.json"
    if scenario is not None:
        path.write_text(scenario if isinstance(scenario, str) else json.dumps(scenario))
    proc = subprocess.run([sys.executable, "-m", "rxfront.cli", sub, "--scenario", str(path)],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(prefix), proc.stderr
    else:
        assert proc.stderr == ""
        cells = [cell for line in proc.stdout.splitlines() for cell in line.split(",")]
        assert not {"inf", "-inf", "undefined"} & set(cells), proc.stdout


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["link"], 2)], ids=["help", "link_without_scenario"])
def test_usage_line_comes_first_from_a_process(argv, code):
    proc = subprocess.run([sys.executable, "-m", "rxfront.cli", *argv], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == code
    lines = (proc.stderr if code else proc.stdout).splitlines()
    assert lines[0] == cli._USAGE.rstrip("\n")
    if code:  # no --scenario: the usage line, then one error line, on stderr alone
        assert proc.stdout == "" and len(lines) == 2 and lines[1].startswith("rxfront: error: ")
    else:
        assert proc.stderr == ""


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(["link", "--scenario", str(bad)], capsys)
    assert code == 2


def test_semantic_validation_exits_1(tmp_path, capsys):
    bad = tmp_path / "neg.json"
    bad.write_text(json.dumps({
        "capacity": {"power": -1.0, "noise_density": 1.0, "bandwidths": [1.0]},
    }))
    code, _, err = run_cli(["capacity", "--scenario", str(bad)], capsys)
    assert code == 1
    assert "validation error" in err


def test_singular_netlist_exits_3(tmp_path, capsys):
    (tmp_path / "bad.cir").write_text("V1 1 0 1 0\nZ1 2 2 10 0\n")
    scen = tmp_path / "fe.json"
    scen.write_text(json.dumps({"frontend": {"netlist": "bad.cir"}}))
    code, _, err = run_cli(["frontend", "--scenario", str(scen)], capsys)
    assert code == 3
    assert "numerical error" in err


def test_overflowing_netlist_exits_3_with_one_line(tmp_path, capsys):
    # the solution is -inf and the residual ratio NaN: refused, with no numpy warning
    (tmp_path / "bad.cir").write_text("I1 1 0 1e308 0\nZ1 1 0 1e308 0\nZ2 1 0 1e308 0\n")
    scen = tmp_path / "fe.json"
    scen.write_text(json.dumps({"frontend": {"netlist": "bad.cir"}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(["frontend", "--scenario", str(scen)], capsys)
    assert result == (3, "", "numerical error: solution residual nan exceeds 1e-10\n")
    assert caught == []


def test_validate_failure_exits_1_but_writes_report(tmp_path, capsys):
    csv_path = tmp_path / "active.csv"
    csv_path.write_text("\n".join([
        "freq_hz,row,col,re_ohms,im_ohms",
        "1e6,0,0,50,0",
        "1e6,0,1,60,0",
        "1e6,1,1,50,0",
    ]) + "\n")
    scen = tmp_path / "val.json"
    scen.write_text(json.dumps({"validate": {"impedance_csv": "active.csv"}}))
    report = tmp_path / "report.csv"
    code, _, err = run_cli(
        ["validate", "--scenario", str(scen), "--out", str(report)], capsys
    )
    assert code == 1
    assert "validation failed" in err
    text = report.read_text()
    assert "passivity" in text and "fail" in text


def test_validate_pass_exit_zero(capsys):
    code, out, _ = run_cli(
        ["validate", "--scenario", str(SCENARIOS / "validate_pair.json")], capsys
    )
    assert code == 0
    assert "fail" not in out


@pytest.mark.parametrize("tol", [0, -1e-9])
@pytest.mark.parametrize("csv_name", ["coupled_pair.csv", "missing.csv"])
def test_validate_checks_tol_before_reading_the_csv(tmp_path, capsys, csv_name, tol):
    # a missing CSV is not reached: the call exits 1, not with the i/o error's 4
    (tmp_path / "coupled_pair.csv").write_bytes((SCENARIOS / "coupled_pair.csv").read_bytes())
    scen = tmp_path / "val.json"
    scen.write_text(json.dumps({"validate": {"impedance_csv": csv_name, "tol": tol}}))
    code, out, err = run_cli(["validate", "--scenario", str(scen)], capsys)
    assert (code, out, err) == (1, "", "validation error: tol must be positive\n")


def test_frontend_netlist_report(capsys):
    code, out, _ = run_cli(
        ["frontend", "--scenario", str(SCENARIOS / "frontend_netlist.json")], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,name,value_re,value_im"
    kinds = {l.split(",")[0] for l in lines[1:]}
    assert kinds == {"node", "branch"}


def test_jobs_must_be_positive(capsys):
    code, _, _ = run_cli(
        ["capacity", "--scenario", str(SCENARIOS / "capacity_demo.json"), "--jobs", "0"],
        capsys,
    )
    assert code == 2


CAPACITY = str(SCENARIOS / "capacity_demo.json")
DEFAULT_ARGS = {"command": "capacity", "scenario": CAPACITY, "out": None, "format": "csv",
                "dump_normalized": False, "jobs": 1}
ACCEPTED = [  # argv, and what differs from DEFAULT_ARGS
    (["capacity", "--scenario", CAPACITY], {}),
    (["capacity", "--format", "text", "--jobs", "2", "--scenario", CAPACITY], {"format": "text", "jobs": 2}),
    (["capacity", "--scenario=" + CAPACITY, "--format=text", "--jobs=3"], {"format": "text", "jobs": 3}),
    (["capacity", "--scen", CAPACITY, "--form", "text", "--j=2"], {"format": "text", "jobs": 2}),
    (["capacity", "--scenario", "other.json", "--scenario", CAPACITY], {}),  # the last one wins
    (["capacity", "--dump-normalized", "--scenario", CAPACITY], {"dump_normalized": True}),
    (["capacity", "--scenario", CAPACITY, "--du"], {"dump_normalized": True}),
    (["capacity", "--scenario", CAPACITY, "--out", "-"], {"out": "-"}),
    (["capacity", "--scenario", CAPACITY, "--jobs=-1"], {"jobs": -1}),  # main refuses it: parse error
]


@pytest.mark.parametrize("argv, changed", ACCEPTED, ids=range(len(ACCEPTED)))
def test_argv_reader_accepts_what_argparse_accepted(argv, changed):
    assert cli._read_argv(argv) == {**DEFAULT_ARGS, **changed}


SUBCOMMAND_CHOICES = "'validate', 'capacity', 'link', 'noisefig', 'frontend', 'match', 'array'"
REFUSED = [  # argv, argparse's message
    ([], "the following arguments are required: command"),
    (["--scenario", CAPACITY], f"argument command: invalid choice: {CAPACITY!r} (choose from {SUBCOMMAND_CHOICES})"),
    (["capa", "--scenario", CAPACITY], f"argument command: invalid choice: 'capa' (choose from {SUBCOMMAND_CHOICES})"),
    (["capacity"], "the following arguments are required: --scenario"),
    (["capacity", "--out", "r.csv"], "the following arguments are required: --scenario"),
    (["capacity", "--bogus"], "the following arguments are required: --scenario"),  # before unknown ones
    (["capacity", "--scenario", CAPACITY, "--bogus"], "unrecognized arguments: --bogus"),
    (["--bogus", "capacity", "--scenario", CAPACITY, "extra"], "unrecognized arguments: --bogus extra"),
    (["capacity", "--scenario", CAPACITY, "--=x"],
     "ambiguous option: --=x could match --help, --scenario, --out, --format, --dump-normalized, --jobs"),
    (["--", "capacity", "--scenario", CAPACITY], f"argument command: invalid choice: '--' (choose from {SUBCOMMAND_CHOICES})"),
    (["capacity", "--scenario", CAPACITY, "--"], "unrecognized arguments: --"),
    (["--=x", "capacity", "--scenario", CAPACITY], "argument -h/--help: ignored explicit argument 'x'"),
    (["capacity", "--scenario", CAPACITY, "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'csv', 'text')"),
    (["capacity", "--scenario", CAPACITY, "--jobs", "two"], "argument --jobs: invalid int value: 'two'"),
    (["capacity", "--scenario", CAPACITY, "--jobs=1.5"], "argument --jobs: invalid int value: '1.5'"),
    (["capacity", "--scenario"], "argument --scenario: expected one argument"),
    (["capacity", "--scen", "--out", "r.csv"], "argument --scenario: expected one argument"),
    (["capacity", "--scenario", CAPACITY, "--jobs", "-1"], "argument --jobs: expected one argument"),
    (["capacity", "--scenario", CAPACITY, "--dump-normalized=yes"],
     "argument --dump-normalized: ignored explicit argument 'yes'"),
    (["capacity", "--scenario", CAPACITY, "--help=yes"], "argument -h/--help: ignored explicit argument 'yes'"),
]


@pytest.mark.parametrize("argv, message", REFUSED, ids=range(len(REFUSED)))
def test_argv_reader_refuses_what_argparse_refused(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exit_info.value.code, out) == (2, "")
    assert err.splitlines() == [cli._USAGE.rstrip("\n"), f"rxfront: error: {message}"]
    assert err.startswith("usage: rxfront ")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"], ["capacity", "-h"],
                                  ["capacity", "--scenario", CAPACITY, "--help", "--format", "xml"]])
def test_help_exits_0_with_the_usage_line_first(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exit_info.value.code, err) == (0, "")
    assert out.splitlines()[0] == cli._USAGE.rstrip("\n")
    assert "--scenario SCENARIO" in out and "Exit codes:" in out


def test_undefined_token_for_zero_power_ebn0(tmp_path, capsys):
    scen = tmp_path / "zp.json"
    scen.write_text(json.dumps({
        "capacity": {"power": 0.0, "noise_density": 1.0, "bandwidths": [1.0]},
    }))
    code, out, _ = run_cli(["capacity", "--scenario", str(scen)], capsys)
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[3] == "undefined"


def _array_csv_scenario(tmp_path, strategies, z_r_2mhz="0,30"):
    # 1 tx + 1 rx; the receive port is 50+30j at 1 MHz and z_r_2mhz at 2 MHz
    re, im = z_r_2mhz.split(",")
    (tmp_path / "pair.csv").write_text("\n".join([
        "freq_hz,row,col,re_ohms,im_ohms",
        "1e6,0,0,50,0", "1e6,0,1,0,5", "1e6,1,1,50,30",
        "2e6,0,0,50,0", "2e6,0,1,0,5", f"2e6,1,1,{re},{im}",
    ]) + "\n")
    scen = tmp_path / "array.json"
    scen.write_text(json.dumps({"array": {
        "impedance_csv": "pair.csv", "dims_m": 1, "dims_k": 1,
        "i_t_amperes": [{"re": 1.0}], "strategies": strategies,
    }}))
    return scen


def test_array_singular_termination_exits_3(tmp_path, capsys):
    # lossless z_r = 30j at 2 MHz against an explicit load of -30j
    explicit = {"kind": "explicit", "z_l_ohms": [[{"re": 0.0, "im": -30.0}]]}
    scen = _array_csv_scenario(tmp_path, ["open_circuit", explicit])
    code, _, err = run_cli(["array", "--scenario", str(scen)], capsys)
    assert code == 3
    assert "frequency index 1" in err


def test_array_explicit_row_that_is_a_number_exits_2(tmp_path, capsys):
    explicit = {"kind": "explicit", "z_l_ohms": [5]}
    scen = _array_csv_scenario(tmp_path, [explicit], "50,30")
    code, _, err = run_cli(["array", "--scenario", str(scen)], capsys)
    assert code == 2
    assert "z_l_ohms[] must be a non-empty list" in err


def test_array_ragged_explicit_rows_exit_2(tmp_path, capsys):
    cell = {"re": 75.0}
    explicit = {"kind": "explicit", "z_l_ohms": [[cell, cell], [cell]]}
    scen = _array_csv_scenario(tmp_path, [explicit], "50,30")
    code, _, err = run_cli(["array", "--scenario", str(scen)], capsys)
    assert code == 2
    assert "same length" in err


def test_negative_ratio_sweep_count_exits_2(tmp_path, capsys):
    scen = tmp_path / "match.json"
    scen.write_text(json.dumps({
        "match": {
            "link": {"z_r_ohms": {"re": 100}, "z_rt_ohms": {"re": 10}, "s_it_a2_per_hz": 1e-12},
            "amp_input_resistance_ohms": 1e9,
            "ratio_sweep": {"count": -3},
        },
        "amplifier": {"gain": 10, "n_na_v2_per_hz": 1e-12, "temp_kelvin": 290},
    }))
    code, _, err = run_cli(["match", "--scenario", str(scen)], capsys)
    assert code == 2
    assert "match.ratio_sweep.count must be >= 0" in err


@pytest.mark.parametrize("fmt_kind,want", [
    ("csv", "turns_ratio,snr,annotations\n"),
    ("text", "report: match-step-up match\n"),
])
def test_a_report_without_rows_is_its_header(tmp_path, capsys, fmt_kind, want):
    scen = _edited_example(tmp_path, "match_step_up", ("match", "ratio_sweep", "count"), 0)
    assert run_cli(["match", "--scenario", str(scen), "--format", fmt_kind], capsys) == (0, want, "")


@pytest.mark.parametrize("span,code,message", [
    # 10**312 turns the ratio into 1e161, whose square overflows: its SNR,
    # 1e-298 there, is exact, and underflows to 0 from 1e185
    (600, 0, ""),
    # 10**-350 underflows: the first turns ratio would be 0
    (700, 1, "validation error: match.ratio_sweep.span_decades 700 takes the turns ratio "
             "from its optimum 100000 to 0\n"),
    (1e300, 1, "validation error: match.ratio_sweep.span_decades 1e+300 takes the turns ratio "
               "from its optimum 100000 to 0\n"),
    # a negative span sweeps downward: 10**350 overflows at the first ratio
    (-700, 1, "validation error: match.ratio_sweep.span_decades -700 takes the turns ratio "
              "from its optimum 100000 to inf\n"),
], ids=["overflow_600", "underflow_700", "underflow_1e300", "overflow_minus_700"])
def test_match_sweep_beyond_the_float_range_names_its_field(tmp_path, capsys, span, code, message):
    scen = _edited_example(tmp_path, "match_step_up", ("match", "ratio_sweep", "span_decades"), span)
    got, out, err = run_cli(["match", "--scenario", str(scen)], capsys)
    if code:
        assert (got, out, err) == (code, "", message)
    else:
        assert (got, err) == (0, "") and exact.inexact_report("match", cli.parse_scenario(scen).data, out) == {}
        assert out.splitlines()[39:41] == ["1e+161,1e-298,", "1e+173,9.88131291682e-323,"]


# The optimum sqrt(r_in / Re z_r) is refused only where its exact value is
# not a positive normal float; (1e308, 1e-10) and (1e-300, 1e300), whose
# quotients leave the float range, once exited 1 here and now sweep 1e159
# and 1e-300 (test_match_optimum_past_the_float_range_never_reports_a_nonfinite_snr)
@pytest.mark.parametrize("r_in,re_z_r,message", [
    (1e308, 5e-324, "validation error: the optimal turns ratio sqrt(match.amp_input_resistance_ohms / "
                    "Re match.link.z_r_ohms) = sqrt(1e+308 / 4.94065645841e-324) is outside the normal floats\n"),
    (5e-324, 1e308, "validation error: the optimal turns ratio sqrt(match.amp_input_resistance_ohms / "
                    "Re match.link.z_r_ohms) = sqrt(4.94065645841e-324 / 1e+308) is outside the normal floats\n"),
], ids=["overflow", "underflow"])
def test_match_optimum_beyond_the_float_range_names_its_fields(tmp_path, capsys, r_in, re_z_r, message):
    scen = _edited_example(tmp_path, "match_step_up", ("match", "amp_input_resistance_ohms"), r_in)
    doc = json.loads(scen.read_text())
    doc["match"]["link"]["z_r_ohms"]["re"] = re_z_r
    scen.write_text(json.dumps(doc))
    got, out, err = run_cli(["match", "--scenario", str(scen)], capsys)
    assert (got, out, err) == (1, "", message)


@pytest.mark.parametrize("r_in,re_z_r", [(1e150, 1e-160), (1e308, 1e-10), (1e-300, 1e300), (1e-160, 1e150)],
                         ids=["overflow_1e310", "overflow_1e318", "underflow_1e-600", "underflow_1e-310"])
def test_match_optimum_past_the_float_range_never_reports_a_nonfinite_snr(tmp_path, capsys, r_in, re_z_r):
    # The quotient under the optimum's root leaves the float range where the
    # root itself does not; snr_with_transformer then squares the ratio
    # (n * n), which overflows. Where the exact SNRs are in range the report
    # prints them; else it exits 3
    scen = _edited_example(tmp_path, "match_step_up", ("match", "amp_input_resistance_ohms"), r_in)
    doc = json.loads(scen.read_text())
    doc["match"]["link"]["z_r_ohms"]["re"] = re_z_r
    scen.write_text(json.dumps(doc))
    got, out, _ = run_cli(["match", "--scenario", str(scen)], capsys)
    snrs = [row["snr"] for row in csv.DictReader(io.StringIO(out))]
    assert got != 0 or all(cell != "undefined" and math.isfinite(float(cell)) for cell in snrs), out
    assert got == 3 or exact.inexact_report("match", cli.parse_scenario(scen).data, out) == {}


@pytest.mark.parametrize("name,path,message", [
    # |z_rt|^2 s_it = 1e388: the SNRs are beyond the float range, first at a
    # candidate load of the optimum search, or at a report row
    ("link_crossover", ("link", "z_rt_ohms", "re"),
     "numerical error: output SNR at candidate load -100j is outside the float range\n"),
    ("link_crossover", ("link", "z_r_ohms", "re"), ""),
    ("noisefig_sweep", ("noisefig", "v_s_volts", "re"), "numerical error: output_snr row 1 is outside the float range\n"),
    ("match_step_up", ("match", "link", "z_rt_ohms", "re"), "numerical error: snr row 1 is outside the float range\n"),
    ("match_step_up", ("match", "amp_input_resistance_ohms"), ""),
], ids=["link_z_rt", "link_z_r", "noisefig_v_s", "match_z_rt", "match_r_in"])
def test_overflow_outside_a_load_prints_no_errno(tmp_path, capsys, name, path, message):
    # a square of 1e200 overflows a float, and float ** gives the
    # OverflowError an errno; no message shows it. Each cell is the exact
    # value, and one beyond the float range exits 3 naming where
    command = name.split("_")[0]
    scen = _edited_example(tmp_path, name, path, 1e200)
    got, out, err = run_cli([command, "--scenario", str(scen)], capsys)
    if message:
        assert (got, out, err) == (3, "", message)
    else:
        assert (got, err) == (0, "") and exact.inexact_report(command, cli.parse_scenario(scen).data, out) == {}


@pytest.mark.parametrize("sub,section", [
    ("validate", {"impedance_csv": ["a"]}),
    ("frontend", {"netlist": 5}),
])
def test_file_reference_must_be_a_string(tmp_path, capsys, sub, section):
    scen = tmp_path / "ref.json"
    scen.write_text(json.dumps({sub: section}))
    code, _, err = run_cli([sub, "--scenario", str(scen)], capsys)
    assert code == 2
    assert "must be a string" in err


def _edited_example(tmp_path, name, path, value):
    """Copy of scenarios/<name>.json with the field at ``path`` set to ``value``.

    The subcommand of every example is the first word of its name.
    """
    scen = tmp_path / f"{name}.json"
    scen.write_text(json.dumps(_edited(name, path, value)))
    return scen


@pytest.mark.parametrize("name,path,value", [
    # |z_rt|^2 s_it = 1e604: the exact SNRs are beyond the float range
    ("link_crossover", ("link", "z_rt_ohms", "re"), 1e308),
    # LinAlgError: eigenvalues of a 1e308 self-impedance do not converge
    ("array_synthetic", ("array", "synthetic", "self_ohms", "re"), 1e308),
], ids=["overflow", "linalg"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failures_exit_3(tmp_path, capsys, name, path, value):
    scen = _edited_example(tmp_path, name, path, value)
    code, _, err = run_cli([name.split("_")[0], "--scenario", str(scen)], capsys)
    assert code == 3
    assert "numerical error" in err


@pytest.mark.parametrize("z_cm", [{"re": 0, "im": 0}, {"re": 0}, {"re": -0.0, "im": -0.0}])
def test_zero_common_mode_impedance_is_a_validation_error(tmp_path, capsys, z_cm):
    # its admittance 1/z_cm once divided by zero at exit 3
    scen = _edited_example(tmp_path, "frontend_buffer", ("frontend", "opamp", "z_cm_ohms"), z_cm)
    got = run_cli(["frontend", "--scenario", str(scen)], capsys)
    assert got == (1, "", "validation error: finite z_cm must be nonzero\n")


@pytest.mark.parametrize("name,path,value,message", [
    ("array_synthetic", ("array",), None, "array must be an object"),
    ("capacity_demo", ("capacity", "power"), 10**400, "capacity.power must be finite"),
    ("validate_pair", ("validate", "dims_m"), 2**63, "validate.dims_m must fit in a 64-bit integer"),
    ("match_step_up", ("match", "ratio_sweep", "count"), 10**400, "must fit in a 64-bit integer"),
    ("link_crossover", ("link", "loads", 0, "label"), None, "link.loads[].label must be a string"),
    ("link_crossover", ("link", "loads", 0, "kind"), ["explicit"], "kind ['explicit'] unknown"),
    ("capacity_demo", ("name",), 7, "name must be a string"),
    ("array_synthetic", ("array", "synthetic", "seed"), -1, "seed must be >= 0"),
    ("array_synthetic", ("array", "i_t_amperes"), [{"re": 1}], "only for CSV models"),
    ("validate_pair", ("validate", "dims_k"), "1", "dims_k must be an integer"),
    ("array_pair", ("array", "strategies"), [{"kind": "explicit", "z_l_ohms": [[{"re": None}]]}],
     "scenario: array.strategies[].z_l_ohms[][].re must be a number"),
    ("link_crossover", ("link", "loads"), [{"kind": "explicit"}], "scenario: missing link.loads[].z_l_ohms"),
    ("link_crossover", ("link", "loads", 2, "z_l_ohms", "im"), "0",
     "scenario: link.loads[].z_l_ohms.im must be a number"),
    ("array_pair", ("array", "strategies"), [{"kind": "explicit", "z_l_ohms": [[{"re": 1}], []]}],
     "scenario: array.strategies[].z_l_ohms[] must be a non-empty list"),
    ("array_pair", ("array", "strategies"), [{"kind": "explicit", "z_l_ohms": [[{"re": 1}], [{"re": 1}] * 2]}],
     "scenario: array.strategies[].z_l_ohms rows must all have the same length"),
    ("link_crossover", ("link", "loads", 0, "kind"), "{0}", "scenario: link.loads[].kind '{0}' unknown"),
    ("link_crossover", ("link", "loads", 0, "kind"), {"{x}": 1}, "scenario: link.loads[].kind {'{x}': 1} unknown"),
], ids=["section_not_object", "number_beyond_float", "int_beyond_int64", "count_beyond_int64",
        "label_not_string", "kind_unhashable", "name_not_string", "negative_seed",
        "currents_for_synthetic", "dims_not_int", "nested_matrix_part", "missing_nested_key", "imaginary_part",
        "empty_matrix_row", "ragged_matrix_rows", "kind_repr_with_braces", "kind_dict_with_braces"])
def test_malformed_fields_exit_2(tmp_path, capsys, name, path, value, message):
    scen = _edited_example(tmp_path, name, path, value)
    for extra in ([], ["--dump-normalized"]):
        code, _, err = run_cli([name.split("_")[0], "--scenario", str(scen), *extra], capsys)
        assert code == 2
        assert message in err


def test_csv_cell_over_the_field_limit_exits_2(tmp_path, capsys):
    # the csv module refuses cells over 131,072 characters
    cell = "1" * 200_000
    (tmp_path / "pair.csv").write_text(f"freq_hz,row,col,re_ohms,im_ohms\n1e6,0,0,1,0\n1e6,1,1,{cell},0\n")
    scen = tmp_path / "val.json"
    scen.write_text(json.dumps({"validate": {"impedance_csv": "pair.csv"}}))
    code, _, err = run_cli(["validate", "--scenario", str(scen)], capsys)
    assert code == 2
    assert "pair.csv: line 3: field larger than field limit" in err


def _load(label, re, im):
    return {"label": label, "kind": "explicit", "z_l_ohms": {"re": re, "im": im}}


@pytest.mark.parametrize("loads,code,message", [
    ([_load("ok", 50, 0), _load("s", -5, -37), _load("n", -1, 0)], 3,
     "load 's': z_r_ohms + z_l_ohms = 0: divider is singular\n"),
    ([_load("ok", 50, 0), _load("n", -1, 0), _load("s", -5, -37)], 1,
     "load 'n': z_l_ohms must have nonnegative real part\n"),
    ([_load("ok", 50, 0), _load("s", -5, -37)], 3, "load 's': z_r_ohms + z_l_ohms"),  # singular and negative
    ([_load("ok", 50, 0), _load("n", -1, 0)], 1, "load 'n': z_l_ohms must have nonnegative real part\n"),
    # a load whose squares overflow prints its exact cells: n is the first bad load
    ([_load("ok", 50, 0), _load("big", 1e200, 0), _load("n", -1, 0)], 1,
     "load 'n': z_l_ohms must have nonnegative real part\n"),
], ids=["singular_first", "negative_first", "singular_and_negative", "negative", "overflow"])
def test_link_reports_the_first_bad_load(tmp_path, capsys, loads, code, message):
    scen = tmp_path / "link.json"
    scen.write_text(json.dumps({
        "link": {"z_r_ohms": {"re": 5, "im": 37}, "z_rt_ohms": {"re": 10}, "s_it_a2_per_hz": 1e-12,
                 "loads": loads},
        "amplifier": {"gain": 10, "n_na_v2_per_hz": 1e-9, "temp_kelvin": 290},
    }))
    got, _, err = run_cli(["link", "--scenario", str(scen)], capsys)
    assert got == code
    assert message in err


# Scenarios with an input error and a numerical one: one field set, one list
# entry appended. The input error wins, because each command's build checks
# every input before its solve computes. Each once exited 3, when an input
# was checked only as its own row or strategy ran.
TWO_FAULTS = {
    "link_huge_load_and_negative_box": (
        "link_crossover", ("link", "optimize", "r_max_ohms"), -1,
        ("link", "loads"), _load("huge", 1e308, 1e308), "search bounds must be nonnegative"),
    "noisefig_huge_v_s_and_negative_load": (
        "noisefig_sweep", ("noisefig", "v_s_volts", "re"), 1e200,
        ("noisefig", "r_l_sweep_ohms"), -1, "r_load_in must be positive (math.inf allowed)"),
    "array_huge_current_and_1x2_load": (
        "array_pair", ("array", "i_t_amperes", 0, "re"), 1e308,
        ("array", "strategies"), {"kind": "explicit", "z_l_ohms": [[{"re": 50, "im": 0}, {"re": 0, "im": 0}]]},
        "explicit load matrix must be square"),
}


@pytest.mark.parametrize("name,path,value,listed,appended,message", TWO_FAULTS.values(), ids=TWO_FAULTS)
def test_an_input_error_is_reported_before_a_numerical_one(tmp_path, capsys, name, path, value, listed, appended,
                                                          message):
    doc = _edited(name, path, value)
    entries = doc
    for key in listed:
        entries = entries[key]
    entries.append(appended)
    (tmp_path / "coupled_pair.csv").write_bytes((SCENARIOS / "coupled_pair.csv").read_bytes())
    scen = tmp_path / "two_faults.json"
    scen.write_text(json.dumps(doc))
    got = run_cli([name.split("_")[0], "--scenario", str(scen)], capsys)
    assert got == (1, "", f"validation error: {message}\n")


def test_the_traced_benchmark_finds_its_cli_targets():
    # perfbench/traced.py wraps these rxfront.cli functions by name, and
    # reports the metrics of a name it cannot find as absent without failing
    spec = importlib.util.spec_from_file_location("traced", SCENARIOS.parent / "perfbench" / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    targets = [attr for module, attr in {**traced.SPAN_TARGETS, **traced.COUNT_TARGETS}.values()
               if module == "rxfront.cli"]
    assert targets and all(callable(getattr(cli, attr, None)) for attr in targets), targets


LABELS = ["a,b", 'say "hi"', "two\nlines", "", " lead", "ünïcødé", "{}", "{0}", "plain"]


def _labelled_link(tmp_path, labels):
    scen = tmp_path / "labels.json"
    scen.write_text(json.dumps({
        "link": {"z_r_ohms": {"re": 50}, "z_rt_ohms": {"re": 10}, "s_it_a2_per_hz": 1e-12,
                 "loads": [_load(label, 50 + i, i) for i, label in enumerate(labels)]},
        "amplifier": {"gain": 10, "n_na_v2_per_hz": 1e-9, "temp_kelvin": 290},
    }))
    out = tmp_path / "labels.csv"
    assert cli.main(["link", "--scenario", str(scen), "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        return handle.read()


@pytest.mark.parametrize("labels", [LABELS, LABELS + ["cr\rinside", "crlf\r\n"]], ids=["no_cr", "with_cr"])
def test_csv_labels_round_trip_through_csv_reader(tmp_path, labels):
    text = _labelled_link(tmp_path, labels)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert [row[0] for row in rows[1:]] == labels
    assert {len(row) for row in rows} == {7}


def test_csv_bytes_match_csv_writer(tmp_path):
    # cells without a carriage return are written exactly as the csv module writes them
    text = _labelled_link(tmp_path, LABELS)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(csv.reader(io.StringIO(text, newline="")))
    assert buffer.getvalue() == text


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_enabled", "gc_disabled"])
@pytest.mark.parametrize("case", ["exit_0", "exit_2", "exit_3", "argparse_exit", "numpy_exit_0"])
def test_main_leaves_the_gc_state_as_it_found_it(tmp_path, capsys, enabled, case):
    # in process, main() neither leaves the collector off nor freezes the heap
    argv = {
        "exit_0": ["capacity", "--scenario", str(SCENARIOS / "capacity_demo.json")],
        "numpy_exit_0": ["validate", "--scenario", str(SCENARIOS / "validate_pair.json")],
        "exit_2": ["capacity", "--scenario", str(SCENARIOS / "link_crossover.json")],
        "exit_3": ["link", "--scenario",
                   str(_edited_example(tmp_path, "link_crossover", ("link", "z_rt_ohms", "re"), 1e308))],
        "argparse_exit": ["link"],  # --scenario is required
    }[case]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    try:
        if case == "argparse_exit":
            with pytest.raises(SystemExit):
                cli.main(argv)
        else:
            assert cli.main(argv) == int(case[-1])
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _stdio_env(unbuffered: str) -> dict:
    """The child environment, with PYTHONUNBUFFERED set to ``unbuffered`` ("" unsets it)."""
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": unbuffered} if unbuffered else env


def test_process_exit_flushes_a_large_report_to_a_pipe(tmp_path):
    # run() ends the process without the interpreter's teardown, after
    # flushing stdout: all of it, byte for byte what --out writes, with
    # stdout buffered or not. A 20,000-load sweep with a search box loads no
    # numpy, and its --dump-normalized output, whose loads are already in
    # normalized form, gives the same report
    rng = random.Random(20_000)
    loads = [{"label": "open", "kind": "open_circuit"}, {"label": "match", "kind": "conjugate_match"}]
    loads += [{"label": f"z{i:05d}", "kind": "explicit",
               "z_l_ohms": {"re": rng.uniform(0.0, 500.0), "im": rng.uniform(-500.0, 500.0)}}
              for i in range(20_000)]
    scenario = tmp_path / "sweep.json"
    scenario.write_text(json.dumps({
        "link": {"z_r_ohms": {"re": 5.0, "im": 37.0}, "z_rt_ohms": {"re": 10.0, "im": 0.0}, "s_it_a2_per_hz": 1e-12,
                 "loads": loads, "optimize": {"r_max_ohms": 500.0, "x_max_ohms": 500.0}},
        "amplifier": {"gain": 10, "n_na_v2_per_hz": 1e-9, "temp_kelvin": 290},
    }))
    out = tmp_path / "sweep.csv"
    argv = [sys.executable, "-m", "rxfront.cli", "link", "--scenario", str(scenario)]
    timed = subprocess.run([sys.executable, "-X", "importtime", *argv[1:], "--out", str(out)],
                           capture_output=True, text=True, env=_child_env(), timeout=120)
    assert timed.returncode == 0, timed.stderr
    assert "numpy" not in [line.rpartition("|")[2].strip() for line in timed.stderr.splitlines()]
    assert out.read_bytes().count(b"\n") == 20_004  # the header, one row per load and the optimal row
    for unbuffered in ("", "1"):
        piped = subprocess.run(argv, capture_output=True, env=_stdio_env(unbuffered), timeout=120)
        assert (piped.returncode, piped.stderr) == (0, b""), unbuffered
        assert piped.stdout == out.read_bytes(), unbuffered
    normalized = tmp_path / "normalized.json"
    assert subprocess.run([*argv, "--dump-normalized", "--out", str(normalized)], env=_child_env(),
                          timeout=120).returncode == 0
    again = subprocess.run([*argv[:-1], str(normalized)], capture_output=True, env=_child_env(), timeout=120)
    assert (again.returncode, again.stdout) == (0, out.read_bytes())


# The exit path run() replaced, as the reference for what a failed flush does:
# SystemExit, and the interpreter's own flush and report at shutdown.
SYSTEM_EXIT = "import gc, rxfront.cli\ncode = rxfront.cli.main()\ngc.freeze()\nraise SystemExit(code)"
HOOK = "import atexit, os\natexit.register(os.write, 2, b'hook ran\\n')\n"
STDOUT_HOOK = "import atexit, sys\natexit.register(sys.stdout.write, 'written at exit\\n')\n"
EXIT_CASES = [
    *[([sub, "--scenario", path], "", sink, unbuffered)
      for sub, path in (("capacity", CAPACITY), ("validate", str(SCENARIOS / "validate_pair.json")))
      for sink in ("dev_full", "closed_pipe") for unbuffered in ("", "1")],
    # the report goes to a file, and only a hook writes to stdout: the second flush fails
    *[(["capacity", "--scenario", CAPACITY, "--out", os.devnull], STDOUT_HOOK, sink, "")
      for sink in ("dev_full", "closed_pipe")],
]


def _exit_outcome(code: str, argv: list, sink: str, env: dict) -> tuple:
    """Exit code and stderr of a child running ``code`` on ``argv``, its
    stdout /dev/full or a pipe whose reading end is closed before it starts."""
    cmd = [sys.executable, "-c", code, *argv]
    if sink == "dev_full":
        with open("/dev/full", "w") as full:
            proc = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, env=env, timeout=120)
        return proc.returncode, proc.stderr.decode()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    return proc.wait(timeout=120), err.decode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, hooks, sink, unbuffered", EXIT_CASES, ids=[
    f"{argv[0]}{'-report_to_file' if hooks else ''}-{sink}-{'unbuffered' if unbuffered else 'buffered'}"
    for argv, hooks, sink, unbuffered in EXIT_CASES])
def test_a_failed_flush_at_exit_gives_the_interpreters_exit(argv, hooks, sink, unbuffered):
    env = _stdio_env(unbuffered)
    want = _exit_outcome(HOOK + hooks + SYSTEM_EXIT, argv, sink, env)
    got = _exit_outcome(HOOK + hooks + "import rxfront.cli\nrxfront.cli.run()", argv, sink, env)
    assert got == want
    assert want[0] in (4, 120)  # main's i/o error, or the interpreter's failed flush
    assert got[1].count("hook ran\n") == 1


@pytest.mark.parametrize("name, sub, code", [("validate_pair", "validate", 0), ("link_crossover", "capacity", 2)])
def test_atexit_hooks_run_on_the_process_exit_path(name, sub, code):
    # the `python -m rxfront.cli` path, with atexit hooks registered first;
    # they run once, last registered first, before buffered stdout is flushed
    child = """
import atexit, gc, os, runpy
atexit.register(lambda: print("frozen:", gc.get_freeze_count() > 0))
atexit.register(os.write, 1, b"hook ran\\n")
runpy.run_module("rxfront.cli", run_name="__main__", alter_sys=True)
"""
    proc = subprocess.run([sys.executable, "-c", child, sub, "--scenario", str(SCENARIOS / f"{name}.json")],
                          capture_output=True, text=True, env=_stdio_env(""), timeout=120)
    assert proc.returncode == code, proc.stderr
    report = (SCENARIOS.parent / "perfbench" / "reference" / f"{name}.csv").read_text() if code == 0 else ""
    assert proc.stdout == "hook ran\n" + report + "frozen: True\n"


EXAMPLES = [path.stem for path in sorted(SCENARIOS.glob("*.json"))]
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_SCENARIOS = sorted(path for path in GOLDEN.glob("*.json") if path.name != "exit_contract.json")


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_reports_match_the_benchmark_references(tmp_path, name):
    out = tmp_path / "report.csv"
    assert cli.main([name.split("_")[0], "--scenario", str(SCENARIOS / f"{name}.json"), "--out", str(out)]) == 0
    assert out.read_text() == (SCENARIOS.parent / "perfbench" / "reference" / f"{name}.csv").read_text()


@pytest.mark.parametrize("scenario", [SCENARIOS / f"{name}.json" for name in EXAMPLES]
                         + GOLDEN_SCENARIOS, ids=lambda path: path.stem)
def test_text_reports_match_goldens(tmp_path, scenario):
    out = tmp_path / "report.txt"
    argv = [scenario.stem.split("_")[0], "--scenario", str(scenario), "--format", "text", "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_text() == (GOLDEN / "text" / f"{scenario.stem}.txt").read_text()


@pytest.mark.parametrize("scenario", [SCENARIOS / f"{name}.json" for name in EXAMPLES]
                         + GOLDEN_SCENARIOS, ids=lambda path: path.stem)
def test_normalized_scenarios_match_goldens(tmp_path, scenario):
    # every default, key and value each field table gives, as --dump-normalized writes it
    out = tmp_path / "normalized.json"
    argv = [scenario.stem.split("_")[0], "--scenario", str(scenario), "--dump-normalized", "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == (GOLDEN / "normalized" / f"{scenario.stem}.json").read_bytes()


# The explicit-load check against the table walk. A corpus load is mostly a
# valid explicit load; the rest have one or more fields off. "1e999" stands
# for that literal in the file, which JSON reads as an infinite float.
BIG = "__1e999__"
MISSING = object()
NUMBERS = [0, 7, -3, 2.5, -0.0, 1e308, 5e-324, 2**53 + 1, 10**400, -(10**400), math.inf, -math.inf,
           math.nan, BIG]
NOT_NUMBERS = [True, False, None, "1", "inf", [], {}, [1.0]]
KINDS = ["explicit", "open_circuit", "conjugate_match", "Explicit", "", None, 1, True, ["explicit"], {}]
CORPUS_LABELS = ["", "a,b", "explicit", None, 5, True, ["x"], {}]
Z_NOT_OBJECTS = ["x", [], None, 1, [1.0, 2.0], True]


def _part(rng):
    roll = rng.random()
    if roll < 0.6:
        return rng.uniform(-1e3, 1e3)
    if roll < 0.75:
        return rng.randint(-1000, 1000)
    return rng.choice(NUMBERS + NOT_NUMBERS + [MISSING])


def _corpus_load(rng, i):
    if rng.random() < 0.02:
        return rng.choice([None, "explicit", 3, [], [{"kind": "explicit"}]])  # not an object
    load = {}
    if rng.random() < 0.97:
        load["kind"] = "explicit" if rng.random() < 0.75 else rng.choice(KINDS)
    label = f"z{i}" if rng.random() < 0.7 else rng.choice(CORPUS_LABELS + [MISSING])
    if label is not MISSING:
        load["label"] = label
    if rng.random() < 0.9:
        z = {}
        for part in ("re", "im"):
            value = _part(rng)
            if value is not MISSING:
                z[part] = value
        if rng.random() < 0.1:
            z["extra"] = rng.choice([1, "x", None])
        load["z_l_ohms"] = z
    elif rng.random() < 0.5:
        load["z_l_ohms"] = rng.choice(Z_NOT_OBJECTS)
    if rng.random() < 0.1:
        load[rng.choice(["extra", "labels", "z_l"])] = rng.choice([0, "x", None, {}])
    return load


def _walk_only(value):
    explicit = isinstance(value, dict) and value.get("kind") == "explicit"
    out = shared._walk(link_command._EXPLICIT_LOAD if explicit else link_command._LOAD, value)
    out.setdefault("label", out["kind"])
    return out


def _link_text(load_texts):
    return (
        '{"link": {"z_r_ohms": {"re": 5, "im": 37}, "z_rt_ohms": {"re": 10}, "s_it_a2_per_hz": 1e-12, '
        '"loads": [' + ", ".join(load_texts) + ']}, '
        '"amplifier": {"gain": 10, "n_na_v2_per_hz": 1e-9, "temp_kelvin": 290}}'
    )


def _is_normalized(load) -> bool:
    """Whether a load is already what the table walk makes of it: an explicit
    load with a string label and finite float parts, and no other key."""
    z = load.get("z_l_ohms") if type(load) is dict else None
    return (type(z) is dict and sorted(load) == ["kind", "label", "z_l_ohms"] and load["kind"] == "explicit"
            and type(load["label"]) is str and sorted(z) == ["im", "re"]
            and all(type(part) is float and math.isfinite(part) for part in z.values()))


def _dumped(monkeypatch, text):
    """The normalized scenario as --dump-normalized writes it, or the ParseError message."""
    # the scenario file is read from memory: one open() per load would dominate the test
    monkeypatch.setattr(shared, "open", lambda path: io.StringIO(text), raising=False)
    try:
        return json.dumps(cli.parse_scenario("scenario.json").data, indent=2, sort_keys=True)
    except ParseError as exc:
        return "ParseError: " + str(exc)


def _checked_and_walked(monkeypatch, text):
    """_dumped with the load check, then with the table walk alone."""
    checked = _dumped(monkeypatch, text)
    with monkeypatch.context() as patch:
        patch.setitem(link_command._LINK, "loads", (shared._list_of(_walk_only), link_command._LINK["loads"][1]))
        return checked, _dumped(patch, text)


def test_load_check_matches_the_table_walk(monkeypatch):
    rng = random.Random(20_002)
    texts = [json.dumps(_corpus_load(rng, i)).replace(f'"{BIG}"', "1e999") for i in range(20_000)]
    valid, invalid = [], []
    for text in texts:
        try:
            _walk_only(json.loads(text))
            valid.append(text)
        except shared._Invalid:
            invalid.append(text)
    assert len(valid) > 8_000 and len(invalid) > 8_000
    normalized = [text for text in valid if _is_normalized(json.loads(text))]
    assert len(normalized) > 2_500
    for text in valid:  # an already normalized load is returned as it is, any other one is copied
        load = json.loads(text)
        assert (link_command._load(load) is load) == _is_normalized(load), text

    for texts in (valid, normalized):
        checked, walked = (text.splitlines() for text in _checked_and_walked(monkeypatch, _link_text(texts)))
        assert not checked[0].startswith("ParseError") and len(checked) == len(walked)
        assert next((pair for pair in zip(checked, walked) if pair[0] != pair[1]), None) is None
    for text in invalid:
        checked, walked = _checked_and_walked(monkeypatch, _link_text([text]))
        assert checked.startswith("ParseError") and checked == walked, text


# Explicit loads one step from the normalized form, and whether the load
# check returns them as they are. JSON's -0 is the integer 0; -0.0 is a
# finite float, already normalized, and keeps its sign either way.
NEAR_NORMALIZED = {
    "normalized": ('{"label": "a", "kind": "explicit", "z_l_ohms": {"re": 50.0, "im": -1.5}}', True),
    "negative_zero_floats": ('{"label": "a", "kind": "explicit", "z_l_ohms": {"re": -0.0, "im": -0.0}}', True),
    "negative_zero_ints": ('{"label": "a", "kind": "explicit", "z_l_ohms": {"re": -0, "im": -0}}', False),
    "int_re": ('{"label": "a", "kind": "explicit", "z_l_ohms": {"re": 50, "im": -1.5}}', False),
    "int_im": ('{"label": "a", "kind": "explicit", "z_l_ohms": {"re": 50.0, "im": 2}}', False),
    "missing_im": ('{"label": "a", "kind": "explicit", "z_l_ohms": {"re": 50.0}}', False),
    "missing_label": ('{"kind": "explicit", "z_l_ohms": {"re": 50.0, "im": -1.5}}', False),
    "extra_load_key": ('{"label": "a", "kind": "explicit", "z_l_ohms": {"re": 50.0, "im": -1.5}, "x": 1}', False),
    "extra_part_key": ('{"label": "a", "kind": "explicit", "z_l_ohms": {"re": 50.0, "im": -1.5, "x": 1}}', False),
    "bool_part": ('{"label": "a", "kind": "explicit", "z_l_ohms": {"re": 50.0, "im": true}}', False),
    "infinite_part": ('{"label": "a", "kind": "explicit", "z_l_ohms": {"re": 1e999, "im": -1.5}}', False),
    "nan_part": ('{"label": "a", "kind": "explicit", "z_l_ohms": {"re": 50.0, "im": NaN}}', False),
}


@pytest.mark.parametrize("text,as_is", NEAR_NORMALIZED.values(), ids=NEAR_NORMALIZED)
def test_near_normalized_loads_match_the_table_walk(monkeypatch, text, as_is):
    checked, walked = _checked_and_walked(monkeypatch, _link_text([text]))
    assert checked == walked
    load = json.loads(text)
    try:
        assert (link_command._load(load) is load) == as_is
    except shared._Invalid:
        assert not as_is and checked.startswith("ParseError: scenario: link.loads[].z_l_ohms.")


EDGE_FLOATS = [0.0, -0.0, math.inf, 1.7e308, 5e-324, -5e-324, 1e16, 0.1 + 0.2, 1.0 / 3.0, -2.5e-300]
EDGE_COLUMNS = {
    "floats": EDGE_FLOATS,
    "ports": [[x, y] for x, y in zip(EDGE_FLOATS, reversed(EDGE_FLOATS))],
    "values": [None, True, False, -7, 3, 0.0, -0.0, math.inf, 0.1 + 0.2, "inf"],
    "text": ["a,b", 'say "hi"', "two\nlines", "cr\rin", "crlf\r\n", "", " lead", "%s", "%d %%", "plain"],
    "100%s": ["x"] * len(EDGE_FLOATS),
}
EDGE_FLAGS = ("floats", "ports", "values")
# Columns the float-range rule refuses, each with the row it names: a -inf,
# a NaN, and a NaN or -inf among other cells or in a port row.
REFUSED_EDGES = [
    ("floats", EDGE_FLOATS[:3] + [-math.inf] + EDGE_FLOATS[4:], 4),
    ("floats", EDGE_FLOATS[:-1] + [math.nan], 10),
    ("values", [None, True, False, -7, 3, 0.0, -0.0, math.nan, -math.inf, 0.1 + 0.2], 8),
    ("ports", [[1.0, 2.0], [3.0, -math.inf]] + EDGE_COLUMNS["ports"][2:], 2),
    ("ports", EDGE_COLUMNS["ports"][:6] + [[math.nan, 1.0]] + EDGE_COLUMNS["ports"][7:], 7),
]


def _refused_row(column: list, flag: bool):
    """The first row, counted from 1, that holds a float the rule refuses (a
    NaN, -inf, or +inf outside a flag column), cell by cell; None if none."""
    for row, value in enumerate(column, 1):
        for x in value if isinstance(value, list) else [value]:
            if isinstance(x, float) and (x != x or x == -math.inf or x == math.inf and not flag):
                return row
    return None


def assert_renders_cell_by_cell(column: list, flag: bool = True):
    """A one-column report renders as the cell-by-cell reference, or, where
    the column holds a float the rule refuses, raises naming its first row."""
    flags = ("c",) if flag else ()
    row = _refused_row(column, flag)
    for fmt_kind in ("csv", "text"):
        if row is None:
            assert cli.render_report({"c": column}, fmt_kind, "t", flags) == \
                render_report_ref({"c": column}, fmt_kind, "t"), column
        else:
            with pytest.raises(NumericalError, match=f"^c row {row} is outside the float range$"):
                cli.render_report({"c": column}, fmt_kind, "t", flags)


@pytest.mark.parametrize("fmt_kind", ["csv", "text"])
def test_report_matches_the_cell_by_cell_rendering(fmt_kind):
    got = cli.render_report(EDGE_COLUMNS, fmt_kind, "edge %s", EDGE_FLAGS)
    assert got == render_report_ref(EDGE_COLUMNS, fmt_kind, "edge %s")
    plain = {name: EDGE_COLUMNS[name] for name in ("floats", "ports", "values")}  # no string needs quotes
    assert cli.render_report(plain, fmt_kind, "plain", EDGE_FLAGS) == render_report_ref(plain, fmt_kind, "plain")
    for name, column, row in REFUSED_EDGES:
        with pytest.raises(NumericalError, match=f"^{name} row {row} is outside the float range$"):
            cli.render_report({**EDGE_COLUMNS, name: column}, fmt_kind, "edge %s", EDGE_FLAGS)
    with pytest.raises(NumericalError, match="^floats row 3 is outside the float range$"):  # +inf, not a flag
        cli.render_report(EDGE_COLUMNS, fmt_kind, "edge %s", ("ports", "values"))


MIXED_COLUMNS = [
    ["a", 1.5, None, True, "inf", "b"],
    [math.inf, "inf", False, -0.0, math.nan, np.float64(0.1), 7],
    [math.inf, "inf", False, -0.0, np.float64(0.1), 7],
    ["inf", "", "a,b", "%s"],
    [],
]


def test_cells_match_the_cell_by_cell_rendering():
    for column in [*EDGE_COLUMNS.values(), *MIXED_COLUMNS, *(column for _, column, _ in REFUSED_EDGES)]:
        for flag in (True, False):
            assert_renders_cell_by_cell(column, flag)


@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_port_cells_join_each_rows_cells(k):
    # a port column is a list of row lists: each row's cells joined with ";"
    for values in (EDGE_FLOATS, EDGE_FLOATS[:-1] + [math.nan], [1.0, -0.0, 2.5] * k):
        column = [values[i:i + k] for i in range(0, len(values), k)]
        for flag in (True, False):
            assert_renders_cell_by_cell(column, flag)
    column = [EDGE_FLOATS[i:i + k] for i in range(0, len(EDGE_FLOATS), k)]
    cells = cells_ref(EDGE_FLOATS)
    rows = cli.render_report({"v": column}, "csv", "ports", ("v",)).splitlines()[1:]
    assert rows == [";".join(cells[i:i + k]) for i in range(0, len(cells), k)]
    with pytest.raises(TypeError):  # the rows of a port column have one length
        cli.render_report({"v": [[1.0] * k, [2.0] * (k + 1)]}, "csv", "ports", ())


def test_float_lists_convert_like_float_arrays(monkeypatch):
    # a list of only floats takes %.12g and prints as a float array did; a
    # NaN is refused before any cell converts; any int or bool among the
    # floats sends the list through fmt
    float_lists = [EDGE_FLOATS, [-0.0], [1e16, 5e-324], [1.7e308, 1.7e308, math.inf]]
    mixed = [1.5, 2, True, -0.0, math.inf]
    for column in float_lists:
        assert_renders_cell_by_cell(column)
        assert cells_ref(column) == cells_ref(np.array(column))
    for column in (EDGE_FLOATS + [math.nan], [math.nan], mixed):
        assert_renders_cell_by_cell(column)
    calls, real = [], shared.fmt
    monkeypatch.setattr(shared, "fmt", lambda value: calls.append(value) or real(value))
    assert shared._spec("c", EDGE_FLOATS, True)[0] == "%.12g" and calls == []
    with pytest.raises(NumericalError, match="^c row 2 is outside the float range$"):
        shared._spec("c", [-0.0, math.nan], True)
    assert calls == []
    assert shared._spec("c", mixed, True)[0] == "%s" and calls == mixed


def test_cells_of_random_lists_are_their_fmt_cells():
    # the rule tests a column by its sum first: a NaN, both infinities and
    # sums that overflow to either infinity must all come out as the
    # cell-by-cell rule says, refused at the first bad row or printed as fmt's cells
    rng = random.Random(20_023)
    pool = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.7e308, -1.7e308, 5e-324, 1.0 / 3.0, 3, 0, True, False,
            "x", "inf", None]
    floats = [x for x in pool if type(x) is float]
    columns = [[math.inf, -math.inf], [1.7e308, 1.7e308, -math.inf], [-0.0, math.nan, 1.0], [1.7e308, 1.7e308],
               [-1.7e308, -1.7e308, math.inf]]
    for _ in range(3000):
        source = floats if rng.random() < 0.7 else pool
        column = [rng.choice(source + [rng.uniform(-1e3, 1e3)]) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.2:  # a port column, of rows of two cells
            column = [column[i:i + 2] for i in range(0, len(column) - 1, 2)]
        columns.append(column)
    for column in columns:
        for flag in (True, False):
            assert_renders_cell_by_cell(column, flag)


def test_string_columns_skip_fmt(monkeypatch):
    calls, real = [], shared.fmt
    monkeypatch.setattr(shared, "fmt", lambda value: calls.append(value) or real(value))
    cli.render_report({"c": ["inf", "x"]}, "csv", "t", ())
    assert calls == []
    cli.render_report({"c": ["x", None]}, "csv", "t", ())
    assert calls == ["x", None]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the child's VmSize from /proc")
def test_scenario_too_large_for_memory_exits_2(tmp_path):
    # The child caps its address space 32 MiB above what it holds after its
    # imports; the model's draw over 1.6 million port pairs (12.4 MiB per
    # index array), its (n, n) complex matrix, 50 MiB at n_rx 1800, and the
    # 6 frequencies' 311 MB stack do not fit.
    scen = tmp_path / "huge.json"
    scen.write_text(json.dumps({"array": {"synthetic": {
        "n_tx": 1, "n_rx": 1800, "self_ohms": {"re": 50.0, "im": 5.0}, "coupling_ohms": 1.0,
        "decay": 0.5, "frequencies_hz": [1e6 * (i + 1) for i in range(6)]}}}))
    child = """
import resource, sys
import rxfront.arrays, rxfront.cli
with open("/proc/self/status") as status:
    vm_kib = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = (vm_kib + 32 * 1024) * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
sys.exit(rxfront.cli.main(sys.argv[1:]))
"""
    proc = subprocess.run([sys.executable, "-c", child, "array", "--scenario", str(scen)],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "parse error: scenario too large for available memory\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("fmt_kind", ["csv", "text"])
def test_link_report_matches_the_cell_by_cell_rendering(tmp_path, fmt_kind):
    rng = np.random.default_rng(20_000)
    resist = rng.uniform(0.0, 500.0, 20_000)
    react = rng.uniform(-500.0, 500.0, 20_000)
    resist[::97] = 0.0  # zero power: "0" cells
    react[::89] = -0.0
    loads = [{"kind": "open_circuit"}, {"label": "match, conj", "kind": "conjugate_match"}] + [
        {"label": f"z{i}" if i % 1000 else f'z "{i}"', "kind": "explicit", "z_l_ohms": {"re": r, "im": x}}
        for i, (r, x) in enumerate(zip(resist.tolist(), react.tolist()))
    ]
    scenario = tmp_path / "sweep.json"
    scenario.write_text(json.dumps({
        "link": {"z_r_ohms": {"re": 5.0, "im": 37.0}, "z_rt_ohms": {"re": 10.0}, "s_it_a2_per_hz": 1e-12,
                 "loads": loads,
                 "optimize": {"r_max_ohms": 500.0, "x_max_ohms": 500.0}},
        "amplifier": {"gain": 10, "n_na_v2_per_hz": 1e-9, "temp_kelvin": 290},
    }))
    columns, _ = link_command.solve(link_command.build(cli.parse_scenario(scenario)))
    assert len(columns["label"]) == 20_003
    assert all(type(column) is list for column in columns.values())
    got = cli.render_report(columns, fmt_kind, "sweep link", link_command.FLAGS)
    assert got == render_report_ref(columns, fmt_kind, "sweep link")


@pytest.mark.parametrize("span", [0.0, 5e-324, 2.0, 1e300, 1.7e308])
def test_linspace_matches_numpy_bit_for_bit(span):
    # (0, 5e-324) has a step that underflows to 0: numpy's i / div * delta branch
    for start, stop in [(-span / 2.0, span / 2.0), (0.0, span), (span, 0.0), (-span, -0.0)]:
        for count in range(201):
            got = match_command._linspace(start, stop, count)
            assert all(type(x) is float for x in got)
            want = np.linspace(start, stop, count)
            assert np.array_equal(np.array(got, dtype=float).view(np.uint64), want.view(np.uint64)), (start, stop, count)
