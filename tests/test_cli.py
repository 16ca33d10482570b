import json
import math
from pathlib import Path

import pytest

from rxfront import cli

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
