import csv
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import cells_ref, render_report_ref

from rxfront import cli
from rxfront.core import ParseError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
    assert cli.fmt(np.uint64(2**64 - 1)) == "18446744073709551615"  # exact, not through a float
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
    assert "parse error" in err


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
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "rxfront.cli", "validate", "--scenario", str(scen)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"parse error: {tmp_path / 'empty.csv'}: no data rows"]


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


@pytest.mark.parametrize("span,code,message", [
    # 10**300 turns the ratio into 1e77, whose reflected impedance overflows a square
    (600, 3, "numerical error: turns_ratio 1e+77: Numerical result out of range\n"),
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
    assert (got, out, err) == (code, "", message)


@pytest.mark.parametrize("r_in,re_z_r,message", [
    (1e308, 1e-10, "validation error: match.amp_input_resistance_ohms / Re match.link.z_r_ohms = "
                   "1e+308 / 1e-10 is outside the float range, so the optimal turns ratio is inf\n"),
    (1e-300, 1e300, "validation error: match.amp_input_resistance_ohms / Re match.link.z_r_ohms = "
                    "1e-300 / 1e+300 is outside the float range, so the optimal turns ratio is 0\n"),
], ids=["overflow", "underflow"])
def test_match_optimum_beyond_the_float_range_names_its_fields(tmp_path, capsys, r_in, re_z_r, message):
    scen = _edited_example(tmp_path, "match_step_up", ("match", "amp_input_resistance_ohms"), r_in)
    doc = json.loads(scen.read_text())
    doc["match"]["link"]["z_r_ohms"]["re"] = re_z_r
    scen.write_text(json.dumps(doc))
    got, out, err = run_cli(["match", "--scenario", str(scen)], capsys)
    assert (got, out, err) == (1, "", message)


@pytest.mark.parametrize("name,path", [
    ("link_crossover", ("link", "z_rt_ohms", "re")),
    ("link_crossover", ("link", "z_r_ohms", "re")),
    ("noisefig_sweep", ("noisefig", "v_s_volts", "re")),
    ("match_step_up", ("match", "link", "z_rt_ohms", "re")),  # not a turns ratio's fault
    ("match_step_up", ("match", "amp_input_resistance_ohms")),
], ids=["link_z_rt", "link_z_r", "noisefig_v_s", "match_z_rt", "match_r_in"])
def test_overflow_outside_a_load_prints_no_errno(tmp_path, capsys, name, path):
    # a square of 1e200 overflows; float ** gives the OverflowError an errno,
    # and the message names the scenario field that was squared
    scen = _edited_example(tmp_path, name, path, 1e200)
    got, out, err = run_cli([name.split("_")[0], "--scenario", str(scen)], capsys)
    field = ".".join(key for key in path if key != "re")
    assert (got, out, err) == (3, "", f"numerical error: |{field}|^2 is outside the float range\n")


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
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    scen = tmp_path / f"{name}.json"
    scen.write_text(json.dumps(doc))
    return scen


@pytest.mark.parametrize("name,path,value", [
    # OverflowError: |z_rt|^2 overflows a float
    ("link_crossover", ("link", "z_rt_ohms", "re"), 1e308),
    # ZeroDivisionError: an op-amp common-mode impedance of zero
    ("frontend_buffer", ("frontend", "opamp", "z_cm_ohms"), {"re": 0}),
    # LinAlgError: eigenvalues of a 1e308 self-impedance do not converge
    ("array_synthetic", ("array", "synthetic", "self_ohms", "re"), 1e308),
], ids=["overflow", "zero_division", "linalg"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failures_exit_3(tmp_path, capsys, name, path, value):
    scen = _edited_example(tmp_path, name, path, value)
    code, _, err = run_cli([name.split("_")[0], "--scenario", str(scen)], capsys)
    assert code == 3
    assert "numerical error" in err


@pytest.mark.parametrize("name,path,value,message", [
    ("array_synthetic", ("array",), None, "array must be an object"),
    ("capacity_demo", ("capacity", "power"), 10**400, "capacity.power must be finite"),
    ("link_crossover", ("link", "optimize", "n_re"), 2**63, "n_re must fit in a 64-bit integer"),
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
    ([_load("ok", 50, 0), _load("big", 1e200, 0), _load("n", -1, 0)], 3,
     "load 'big': Numerical result out of range\n"),
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
@pytest.mark.parametrize("case", ["exit_0", "exit_2", "exit_3", "argparse_exit"])
def test_main_leaves_the_gc_state_as_it_found_it(tmp_path, capsys, enabled, case):
    argv = {
        "exit_0": ["capacity", "--scenario", str(SCENARIOS / "capacity_demo.json")],
        "exit_2": ["capacity", "--scenario", str(SCENARIOS / "link_crossover.json")],
        "exit_3": ["link", "--scenario",
                   str(_edited_example(tmp_path, "link_crossover", ("link", "z_rt_ohms", "re"), 1e308))],
        "argparse_exit": ["link"],  # --scenario is required
    }[case]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if case == "argparse_exit":
            with pytest.raises(SystemExit):
                cli.main(argv)
        else:
            assert cli.main(argv) == int(case[-1])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


EXAMPLES = [path.stem for path in sorted(SCENARIOS.glob("*.json"))]
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_reports_match_the_benchmark_references(tmp_path, name):
    out = tmp_path / "report.csv"
    assert cli.main([name.split("_")[0], "--scenario", str(SCENARIOS / f"{name}.json"), "--out", str(out)]) == 0
    assert out.read_text() == (SCENARIOS.parent / "perfbench" / "reference" / f"{name}.csv").read_text()


@pytest.mark.parametrize("scenario", [SCENARIOS / f"{name}.json" for name in EXAMPLES]
                         + sorted(GOLDEN.glob("*.json")), ids=lambda path: path.stem)
def test_text_reports_match_goldens(tmp_path, scenario):
    out = tmp_path / "report.txt"
    argv = [scenario.stem.split("_")[0], "--scenario", str(scenario), "--format", "text", "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_text() == (GOLDEN / "text" / f"{scenario.stem}.txt").read_text()


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
    out = cli._walk(cli._EXPLICIT_LOAD if explicit else cli._LOAD, value)
    out.setdefault("label", out["kind"])
    return out


def _link_text(load_texts):
    return (
        '{"link": {"z_r_ohms": {"re": 5, "im": 37}, "z_rt_ohms": {"re": 10}, "s_it_a2_per_hz": 1e-12, '
        '"loads": [' + ", ".join(load_texts) + ']}, '
        '"amplifier": {"gain": 10, "n_na_v2_per_hz": 1e-9, "temp_kelvin": 290}}'
    )


def test_load_check_matches_the_table_walk(monkeypatch):
    rng = random.Random(20_002)
    texts = [json.dumps(_corpus_load(rng, i)).replace(f'"{BIG}"', "1e999") for i in range(20_000)]
    valid, invalid = [], []
    for text in texts:
        try:
            _walk_only(json.loads(text))
            valid.append(text)
        except cli._Invalid:
            invalid.append(text)
    assert len(valid) > 8_000 and len(invalid) > 8_000
    walk = (cli._list_of(_walk_only), cli._LINK["loads"][1])

    def parsed(text):
        """The normalized scenario as --dump-normalized writes it, or the ParseError message."""
        # the scenario file is read from memory: one open() per load would dominate the test
        monkeypatch.setattr(cli, "open", lambda path: io.StringIO(text), raising=False)
        try:
            return json.dumps(cli.parse_scenario("scenario.json").data, indent=2, sort_keys=True)
        except ParseError as exc:
            return "ParseError: " + str(exc)

    def both(text):
        checked = parsed(text)
        with monkeypatch.context() as patch:
            patch.setitem(cli._LINK, "loads", walk)
            return checked, parsed(text)

    checked, walked = (text.splitlines() for text in both(_link_text(valid)))
    assert not checked[0].startswith("ParseError") and len(checked) == len(walked)
    assert next((pair for pair in zip(checked, walked) if pair[0] != pair[1]), None) is None
    for text in invalid:
        checked, walked = both(_link_text([text]))
        assert checked.startswith("ParseError") and checked == walked, text


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 0.1 + 0.2, 1.0 / 3.0, -2.5e-300]
EDGE_COLUMNS = {
    "finite": np.array(EDGE_FLOATS),
    "with_nan": np.array(EDGE_FLOATS[:-1] + [math.nan]),
    "values": [None, True, False, np.int64(-7), 3, 0.0, -0.0, math.nan, -math.inf, 0.1 + 0.2],
    "text": ["a,b", 'say "hi"', "two\nlines", "cr\rin", "crlf\r\n", "", " lead", "%s", "%d %%", "plain"],
    "100%s": ["x"] * len(EDGE_FLOATS),
}


@pytest.mark.parametrize("fmt_kind", ["csv", "text"])
def test_report_matches_the_cell_by_cell_rendering(fmt_kind):
    assert cli.render_report(EDGE_COLUMNS, fmt_kind, "edge %s") == render_report_ref(EDGE_COLUMNS, fmt_kind, "edge %s")
    plain = {name: EDGE_COLUMNS[name] for name in ("finite", "values")}  # no string needs quotes
    assert cli.render_report(plain, fmt_kind, "plain") == render_report_ref(plain, fmt_kind, "plain")


MIXED_COLUMNS = [
    ["a", 1.5, None, True, "inf", "b"],
    [math.inf, "inf", False, -0.0, math.nan, np.float64(0.1), 7],
    ["inf", "", "a,b", "%s"],
    [],
]


def test_cells_match_the_cell_by_cell_rendering():
    for column in [*EDGE_COLUMNS.values(), *MIXED_COLUMNS]:
        assert cli._cells(column) == cells_ref(column)


@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_port_cells_join_each_rows_cells(k):
    for name in ("finite", "with_nan"):
        cells = cells_ref(EDGE_COLUMNS[name])
        assert cli._port_cells(EDGE_COLUMNS[name], k) == [";".join(cells[i:i + k]) for i in range(0, len(cells), k)]


def test_float_lists_convert_like_float_arrays(monkeypatch):
    # a list of only floats and no NaN takes %.12g; a NaN, or any int or
    # bool among the floats, sends the list through fmt
    float_lists = [EDGE_FLOATS, EDGE_FLOATS + [math.nan], [math.nan], [-0.0], [1e16, 5e-324]]
    mixed = [1.5, 2, True, -0.0, math.inf]
    for column in float_lists:
        assert cli._cells(column) == cells_ref(column) == cells_ref(np.array(column))
    assert cli._cells(mixed) == cells_ref(mixed)
    calls, real = [], cli.fmt
    monkeypatch.setattr(cli, "fmt", lambda value: calls.append(value) or real(value))
    assert cli._spec(EDGE_FLOATS)[0] == "%.12g" and calls == []
    assert cli._spec([-0.0, math.nan])[0] == "%s" and len(calls) == 2
    assert cli._spec(mixed)[0] == "%s" and calls[2:] == mixed


def test_string_columns_skip_fmt(monkeypatch):
    calls, real = [], cli.fmt
    monkeypatch.setattr(cli, "fmt", lambda value: calls.append(value) or real(value))
    cli._cells(["inf", "x"])
    assert calls == []
    cli._cells(["x", None])
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
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", child, "array", "--scenario", str(scen)],
                          capture_output=True, text=True, env=env, timeout=120)
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
                 "optimize": {"r_max_ohms": 500.0, "x_max_ohms": 500.0, "n_re": 11, "n_im": 11}},
        "amplifier": {"gain": 10, "n_na_v2_per_hz": 1e-9, "temp_kelvin": 290},
    }))
    columns, _ = cli._run_link(cli.parse_scenario(scenario))
    assert len(columns["label"]) == 20_003
    assert cli.render_report(columns, fmt_kind, "sweep link") == render_report_ref(columns, fmt_kind, "sweep link")


@pytest.mark.parametrize("span", [0.0, 5e-324, 2.0, 1e300, 1.7e308])
def test_linspace_matches_numpy_bit_for_bit(span):
    # (0, 5e-324) has a step that underflows to 0: numpy's i / div * delta branch
    for start, stop in [(-span / 2.0, span / 2.0), (0.0, span), (span, 0.0), (-span, -0.0)]:
        for count in range(201):
            got = cli._linspace(start, stop, count)
            assert all(type(x) is float for x in got)
            want = np.linspace(start, stop, count)
            assert np.array_equal(np.array(got, dtype=float).view(np.uint64), want.view(np.uint64)), (start, stop, count)
