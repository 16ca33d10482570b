"""Command-line front door: scenario files in, deterministic reports out.

Scenario files are JSON with unit-suffixed keys (``re_ohms``, ``temp_kelvin``)
and the literal token ``"inf"`` wherever an infinite value is meaningful.
Reports are CSV (default) or indented text with numbers rendered to 12
significant digits; exact zeros print as ``0`` and non-finite values as
``inf`` / ``undefined``. Row order is fixed, so identical inputs give
byte-identical reports.

Exit codes: 0 success, 1 validation failure, 2 parse error, 3 numerical or
singular-circuit error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import arrays, frontend, matching, mna, noisefig, shannon
from . import link as link_mod
from .core import (
    MAX_ARRAY_BYTES,
    OPEN_CIRCUIT,
    ParseError,
    SingularCircuitError,
    TheveninSource,
    ToolkitError,
    ValidationError,
    load_impedance_csv,
    stack_bytes,
    validate_passivity,
    validate_reciprocity,
)

SUBCOMMANDS = ("validate", "capacity", "link", "noisefig", "frontend", "match", "array")


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: normalized payload plus the directory for file references."""

    name: str
    kind: str
    data: dict
    base_dir: Path


def fmt(value) -> str:
    """Render one report cell: 12 significant digits, inf/undefined tokens."""
    if isinstance(value, str):
        return value
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if math.isnan(x):
        return "undefined"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0:
        return "0"
    return f"{x:.12g}"


REQUIRED = object()  # field-table default: the key must be present
OPTIONAL = object()  # field-table default: an absent key stays absent


def _fail(message: str):
    raise ParseError(f"scenario: {message}")


def _num(value, context: str) -> float:
    if type(value) not in (int, float):  # JSON numbers; bool is not one
        _fail(f"{context} must be a number")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        _fail(f"{context} must be finite")
    return x


def _int(value, context: str, minimum: int = -(2**63), maximum: int = 2**63 - 1) -> int:
    if type(value) is not int:
        _fail(f"{context} must be an integer")
    if value < minimum:
        _fail(f"{context} must be >= {minimum}")
    if value >= 2**63:
        _fail(f"{context} must fit in a 64-bit integer")
    if value > maximum:
        _fail(f"{context} must be <= {maximum}")
    return value


_count = partial(_int, minimum=0)


# Bytes a size field is charged per entry, against MAX_ARRAY_BYTES.
_GRID_CELL_BYTES = 64  # the SNR grid kernel holds about seven float64 grids at once
_REPORT_ROW_BYTES = 1024  # one report row as Python objects and text (about 330 B measured)


def _check_size(context: str, nbytes: int) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        _fail(f"{context} asks for {nbytes} bytes, over the {MAX_ARRAY_BYTES}-byte limit")


def _cx(value, context: str) -> dict:
    if not isinstance(value, dict) or "re" not in value:
        _fail(f"{context} must be an object with re/im parts")
    return {"re": _num(value["re"], context + ".re"), "im": _num(value.get("im", 0), context + ".im")}


def _typed(kind, noun: str):
    def checker(value, context):
        if not isinstance(value, kind):
            _fail(f"{context} must be {noun}")
        return value
    return checker


_str, _bool = _typed(str, "a string"), _typed(bool, "true or false")


def _walk(table: dict, value, context: str) -> dict:
    """Check one object against its field table and return the normalized copy."""
    if not isinstance(value, dict):
        _fail(f"{context} must be an object")
    prefix = f"{context}." if context else ""
    out = {}
    for key, (check, default) in table.items():
        item = value.get(key, default)
        if item is REQUIRED:
            _fail(f"missing {prefix}{key}")
        if item is not OPTIONAL:
            out[key] = check(item, prefix + key)
    return out


def _obj(table: dict):
    return partial(_walk, table)


def _list_of(check):
    def checker(value, context):
        if not isinstance(value, list) or not value:
            _fail(f"{context} must be a non-empty list")
        item = f"{context}[]"
        return [check(v, item) for v in value]
    return checker


def _rows_of(check):
    """Non-empty list of equal-length, non-empty rows."""
    list_of_rows = _list_of(_list_of(check))

    def checker(value, context):
        rows = list_of_rows(value, context)
        if len({len(row) for row in rows}) != 1:
            _fail(f"{context} rows must all have the same length")
        return rows
    return checker


def _one_of(*choices):
    def checker(value, context):
        if not isinstance(value, str) or value not in choices:
            _fail(f"{context} {value!r} unknown")
        return value
    return checker


def _or_inf(check):
    """Values that may be infinite stay the literal token "inf" when normalized."""
    return lambda value, context: "inf" if value == "inf" else check(value, context)


# One field table per scenario object: key -> (checker, default | REQUIRED |
# OPTIONAL). A default is checked like a given value. The tables are the
# reference for the scenario format; all are built once, at import.
_cx_vector, _cx_matrix = _list_of(_cx), _rows_of(_cx)
_AMPLIFIER = {
    "gain": (_num, REQUIRED), "n_na_v2_per_hz": (_num, REQUIRED), "temp_kelvin": (_num, REQUIRED),
}
_LINK_FIELDS = {
    "z_r_ohms": (_cx, REQUIRED), "z_rt_ohms": (_cx, REQUIRED), "s_it_a2_per_hz": (_num, REQUIRED),
}
_DIMS = {"dims_m": (_int, REQUIRED), "dims_k": (_int, REQUIRED)}
_VALIDATE = {"impedance_csv": (_str, REQUIRED), "tol": (_num, 1e-9)}
_VALIDATE_DIMS = {**_VALIDATE, **_DIMS}


def _validate(value, context):
    dims = isinstance(value, dict) and ("dims_m" in value or "dims_k" in value)  # a pair or neither
    return _walk(_VALIDATE_DIMS if dims else _VALIDATE, value, context)


_CAPACITY = {
    "power": (_num, REQUIRED), "noise_density": (_num, REQUIRED),
    "bandwidths": (_list_of(_num), REQUIRED),
}
_LOAD = {
    "kind": (_one_of("open_circuit", "conjugate_match", "explicit"), REQUIRED),
    "label": (_str, OPTIONAL),
}
_EXPLICIT_LOAD = {**_LOAD, "z_l_ohms": (_cx, REQUIRED)}


def _load(value, context):
    explicit = isinstance(value, dict) and value.get("kind") == "explicit"
    out = _walk(_EXPLICIT_LOAD if explicit else _LOAD, value, context)
    out.setdefault("label", out["kind"])
    return out


_OPTIMIZE = {
    "r_max_ohms": (_num, REQUIRED), "x_max_ohms": (_num, REQUIRED),
    "n_re": (_int, REQUIRED), "n_im": (_int, REQUIRED), "include_open": (_bool, True),
}


def _optimize(value, context):
    out = _walk(_OPTIMIZE, value, context)
    _check_size(context, max(out["n_re"], 0) * max(out["n_im"], 0) * _GRID_CELL_BYTES)
    return out


_LINK = {
    **_LINK_FIELDS,
    "loads": (_list_of(_load), [{"kind": "open_circuit"}, {"kind": "conjugate_match"}]),
    "optimize": (_optimize, OPTIONAL),
}
_NOISEFIG = {
    "v_s_volts": (_cx, REQUIRED), "r_s_ohms": (_num, REQUIRED), "temp_kelvin": (_num, REQUIRED),
    "amp": (_obj({
        "gain": (_num, REQUIRED), "n_na_v2_per_hz": (_num, REQUIRED),
        "r_out_ohms": (_num, REQUIRED),
    }), REQUIRED),
    "r_l_sweep_ohms": (_list_of(_or_inf(_num)), REQUIRED),
}
_TOPOLOGIES = ("buffer", "constant_current", "inside_out")
_NETLIST = {"netlist": (_str, REQUIRED)}
_FRONTEND = {
    "source": (_obj({"v_oc_volts": (_cx, REQUIRED), "z_r_ohms": (_cx, REQUIRED)}), REQUIRED),
    "opamp": (_obj({
        "open_loop_gain": (_or_inf(_num), REQUIRED), "z_id_ohms": (_or_inf(_cx), "inf"),
        "z_cm_ohms": (_or_inf(_cx), "inf"), "r_out_ohms": (_num, 0.0),
    }), REQUIRED),
    "topologies": (_list_of(_one_of(*_TOPOLOGIES)), list(_TOPOLOGIES)),
    "gain_sweep": (_list_of(_num), OPTIONAL),
}
_CONSTANT_CURRENT = {"constant_current": (_obj({
    "v_c_volts": (_cx, REQUIRED), "r_c_ohms": (_or_inf(_num), REQUIRED),
}), REQUIRED)}


def _frontend(value, context):
    if isinstance(value, dict) and "netlist" in value:
        return _walk(_NETLIST, value, context)
    out = _walk(_FRONTEND, value, context)
    if "constant_current" in out["topologies"]:  # read only when that topology is listed
        out.update(_walk(_CONSTANT_CURRENT, value, context))
    return out


_MATCH = {
    "link": (_obj(_LINK_FIELDS), REQUIRED),
    "amp_input_resistance_ohms": (_num, REQUIRED),
    "cancel_reactance": (_bool, True),
    "ratio_sweep": (_obj({
        "count": (partial(_count, maximum=MAX_ARRAY_BYTES // _REPORT_ROW_BYTES), 51),
        "span_decades": (_num, 2.0),
    }), {}),
}
_STRATEGY_NAMES = ("open_circuit", "per_antenna_conjugate", "full_conjugate")
_strategy_name = _one_of(*_STRATEGY_NAMES)
_EXPLICIT_STRATEGY = {"kind": (_one_of("explicit"), REQUIRED), "z_l_ohms": (_cx_matrix, REQUIRED)}


def _strategy(value, context):
    if isinstance(value, str):
        return _strategy_name(value, context)
    return _walk(_EXPLICIT_STRATEGY, value, context)


def _currents(value, context):
    """One current vector for all frequencies, or one row per frequency."""
    rows = isinstance(value, list) and value and isinstance(value[0], list)
    return (_cx_matrix if rows else _cx_vector)(value, context)


_SYNTHETIC = {
    "n_tx": (_int, REQUIRED), "n_rx": (_int, REQUIRED), "self_ohms": (_cx, REQUIRED),
    "coupling_ohms": (_num, REQUIRED), "decay": (_num, REQUIRED),
    "frequencies_hz": (_list_of(_num), REQUIRED), "seed": (_count, 0),
}


def _synthetic(value, context):
    out = _walk(_SYNTHETIC, value, context)
    ports = max(out["n_tx"], 0) + max(out["n_rx"], 0)
    _check_size(context, stack_bytes(len(out["frequencies_hz"]), ports))
    return out


_STRATEGIES = {"strategies": (_list_of(_strategy), list(_STRATEGY_NAMES))}
_ARRAY_SYNTHETIC = {
    **_STRATEGIES,
    "synthetic": (_synthetic, REQUIRED),
    "i_t_amperes": (lambda value, context: _fail(f"{context} is only for CSV models"), OPTIONAL),
}
_ARRAY_CSV = {
    **_STRATEGIES, **_DIMS, "impedance_csv": (_str, REQUIRED), "i_t_amperes": (_currents, REQUIRED),
}


def _array(value, context):
    synthetic = isinstance(value, dict) and "synthetic" in value
    return _walk(_ARRAY_SYNTHETIC if synthetic else _ARRAY_CSV, value, context)


_SECTIONS = {
    "validate": _validate, "capacity": _obj(_CAPACITY), "link": _obj(_LINK),
    "noisefig": _obj(_NOISEFIG), "frontend": _frontend, "match": _obj(_MATCH), "array": _array,
}
_SCENARIOS = {kind: {"name": (_str, OPTIONAL), kind: (check, REQUIRED)}
              for kind, check in _SECTIONS.items()}
_SCENARIOS["link"]["amplifier"] = _SCENARIOS["match"]["amplifier"] = (_obj(_AMPLIFIER), REQUIRED)


def parse_scenario(path) -> Scenario:
    """Load, validate, and normalize a scenario file."""
    path = Path(path)
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        _fail("top level must be an object")
    present = [key for key in SUBCOMMANDS if key in raw]
    if len(present) != 1:
        _fail(f"expected exactly one of {'/'.join(SUBCOMMANDS)} sections, found {present or 'none'}")
    kind = present[0]
    data = _walk(_SCENARIOS[kind], raw, "")
    data.setdefault("name", path.stem)
    return Scenario(data["name"], kind, data, path.parent)


def _run_validate(scenario: Scenario):
    section = scenario.data["validate"]
    dims = None
    if "dims_m" in section:
        dims = (section["dims_m"], section["dims_k"])
    zms = load_impedance_csv(scenario.base_dir / section["impedance_csv"], dims)
    tol = section["tol"]
    rows = []
    ok = True
    for report in (validate_reciprocity(zms, tol), validate_passivity(zms, tol)):
        ok = ok and report.passed
        for fi, freq in enumerate(zms.grid):
            rows.append({
                "check": report.check,
                "freq_hz": freq,
                "deviation": report.deviations[fi],
                "tol": tol,
                "passed": "pass" if report.deviations[fi] <= tol else "fail",
            })
    fields = ["check", "freq_hz", "deviation", "tol", "passed"]
    return fields, rows, ok


def _run_capacity(scenario: Scenario):
    section = scenario.data["capacity"]
    power = section["power"]
    n0 = section["noise_density"]
    bound = shannon.capacity_bound(power, n0)

    def worker(bandwidth: float) -> dict:
        spec = shannon.AwgnChannelSpec(power, bandwidth, n0)
        cap = shannon.capacity(spec)
        return {
            "bandwidth": bandwidth,
            "capacity_bits": cap,
            "capacity_bound_bits": bound,
            "eb_n0": shannon.eb_n0(spec) if power > 0 else None,
        }

    rows = [worker(bandwidth) for bandwidth in section["bandwidths"]]
    return ["bandwidth", "capacity_bits", "capacity_bound_bits", "eb_n0"], rows, True


def _run_link(scenario: Scenario):
    section = scenario.data["link"]
    ampd = scenario.data["amplifier"]
    lnk = link_mod.SingleLink(
        _as_complex(section["z_r_ohms"]),
        _as_complex(section["z_rt_ohms"]),
        section["s_it_a2_per_hz"],
    )
    amp = link_mod.AmplifierNoiseModel(ampd["gain"], ampd["n_na_v2_per_hz"], ampd["temp_kelvin"])
    s_voc = link_mod._signal_voc_density(lnk)
    unit = TheveninSource(1.0, lnk.z_r)  # divider and power per unit V_oc, scaled by s_voc
    ratio = None
    if lnk.z_r.real > 0 and amp.n_na > 0:
        ratio = link_mod.snr_ratio_oc_over_match(lnk, amp)

    def describe(label: str, z_l) -> dict:
        if z_l is OPEN_CIRCUIT:
            row = {
                "label": label,
                "z_l_re_ohms": "inf",
                "z_l_im_ohms": "inf",
                "divider_mag": 1.0,
                "extracted_power_w_per_hz": 0.0,
                "snr": link_mod.output_snr(lnk, amp, OPEN_CIRCUIT),
                "annotations": "" if ratio is None else f"oc_over_match={fmt(ratio)}",
            }
            return row
        try:
            divider = link_mod.divided_voltage(unit, z_l)
        except SingularCircuitError as exc:
            raise SingularCircuitError(f"load {label!r}: {exc}") from exc
        return {
            "label": label,
            "z_l_re_ohms": z_l.real,
            "z_l_im_ohms": z_l.imag,
            "divider_mag": abs(divider),
            "extracted_power_w_per_hz": s_voc * link_mod.extracted_power(unit, z_l),
            "snr": link_mod.output_snr(lnk, amp, z_l),
            "annotations": "",
        }

    def worker(load: dict) -> dict:
        if load["kind"] == "open_circuit":
            return describe(load["label"], OPEN_CIRCUIT)
        if load["kind"] == "conjugate_match":
            return describe(load["label"], lnk.z_r.conjugate())
        return describe(load["label"], _as_complex(load["z_l_ohms"]))

    rows = [worker(load) for load in section["loads"]]
    if "optimize" in section:
        opt = section["optimize"]
        grid = link_mod.GridSpec(
            opt["r_max_ohms"], opt["x_max_ohms"], opt["n_re"], opt["n_im"], opt["include_open"]
        )
        best, _ = link_mod.optimize_load(lnk, amp, grid)
        rows.append(describe("optimal", OPEN_CIRCUIT if best is OPEN_CIRCUIT else complex(best)))
    fields = [
        "label", "z_l_re_ohms", "z_l_im_ohms", "divider_mag",
        "extracted_power_w_per_hz", "snr", "annotations",
    ]
    return fields, rows, True


def _run_noisefig(scenario: Scenario):
    section = scenario.data["noisefig"]
    gen = noisefig.SignalGenerator(
        _as_complex(section["v_s_volts"]), section["r_s_ohms"], section["temp_kelvin"]
    )
    ampd = section["amp"]

    def worker(r_l_token) -> dict:
        r_l = _to_float(r_l_token)
        amp = noisefig.VoltageAmplifierStage(
            ampd["gain"], ampd["n_na_v2_per_hz"], r_l, ampd["r_out_ohms"]
        )
        factor = noisefig.noise_factor(gen, amp)
        return {
            "r_l_ohms": r_l_token,
            "friis_gain": noisefig.friis_gain(gen, amp),
            "output_snr": noisefig.output_snr_friis(gen, amp),
            "noise_factor": factor,
            "noise_figure_db": 10.0 * math.log10(factor) if math.isfinite(factor) else math.inf,
            "annotations": "",
        }

    rows = [worker(r_l) for r_l in section["r_l_sweep_ohms"]]
    fields = ["r_l_ohms", "friis_gain", "output_snr", "noise_factor", "noise_figure_db", "annotations"]
    return fields, rows, True


def _to_float(canon) -> float:
    return math.inf if canon == "inf" else float(canon)


def _as_complex(canon) -> complex:
    return complex(canon["re"], canon["im"])


def _optional_cx(canon):
    return None if canon == "inf" else _as_complex(canon)


def _run_frontend(scenario: Scenario):
    section = scenario.data["frontend"]
    if "netlist" in section:
        text = (scenario.base_dir / section["netlist"]).read_text()
        solution = mna.mna_solve(mna.parse_netlist(text))
        rows = []
        for node in sorted(solution.node_voltages):
            value = solution.node_voltages[node]
            rows.append({"kind": "node", "name": str(node), "value_re": value.real, "value_im": value.imag})
        for el in solution.netlist.elements:
            if el.kind in ("V", "E"):
                value = solution.branch_currents[el.name]
                rows.append({"kind": "branch", "name": el.name, "value_re": value.real, "value_im": value.imag})
        return ["kind", "name", "value_re", "value_im"], rows, True

    source_d = section["source"]
    source = frontend.TheveninSource(
        _as_complex(source_d["v_oc_volts"]), _as_complex(source_d["z_r_ohms"])
    )
    opamp_d = section["opamp"]
    gains = section.get("gain_sweep", [_to_float(opamp_d["open_loop_gain"])])
    z_id = _optional_cx(opamp_d["z_id_ohms"])
    z_cm = _optional_cx(opamp_d["z_cm_ohms"])
    cc = section.get("constant_current")

    def worker(topo: str, a: float) -> dict:
        amp = frontend.OpAmpModel(a, z_id, z_cm, opamp_d["r_out_ohms"])
        if topo == "buffer":
            sol = frontend.solve_buffer(source, amp)
        elif topo == "inside_out":
            sol = frontend.solve_inside_out(source, amp)
        else:
            sol = frontend.solve_constant_current(
                source, amp, _as_complex(cc["v_c_volts"]), _to_float(cc["r_c_ohms"])
            )
        z_eff = sol.z_effective
        return {
            "topology": topo,
            "open_loop_gain": "inf" if math.isinf(a) else a,
            "v_out_re": sol.v_out.real,
            "v_out_im": sol.v_out.imag,
            "i_source_re": sol.i_source.real,
            "i_source_im": sol.i_source.imag,
            "z_eff_re_ohms": "inf" if z_eff is None else z_eff.real,
            "z_eff_im_ohms": "inf" if z_eff is None else z_eff.imag,
            "p_extracted_w": sol.p_extracted,
        }

    rows = [worker(topo, a) for topo in section["topologies"] for a in gains]
    fields = [
        "topology", "open_loop_gain", "v_out_re", "v_out_im", "i_source_re",
        "i_source_im", "z_eff_re_ohms", "z_eff_im_ohms", "p_extracted_w",
    ]
    return fields, rows, True


def _run_match(scenario: Scenario):
    section = scenario.data["match"]
    ampd = scenario.data["amplifier"]
    linkd = section["link"]
    lnk = link_mod.SingleLink(
        _as_complex(linkd["z_r_ohms"]), _as_complex(linkd["z_rt_ohms"]), linkd["s_it_a2_per_hz"]
    )
    amp = link_mod.AmplifierNoiseModel(ampd["gain"], ampd["n_na_v2_per_hz"], ampd["temp_kelvin"])
    r_in = section["amp_input_resistance_ohms"]
    cancel = section["cancel_reactance"]
    if lnk.z_r.real <= 0:
        raise ValidationError("match requires Re(z_r) > 0")
    best = matching.optimal_turns_ratio(r_in, lnk.z_r.real)
    sweep = section["ratio_sweep"]
    half = sweep["span_decades"] / 2.0
    exponents = np.linspace(-half, half, sweep["count"])

    def worker(exponent: float) -> dict:
        ratio = best * 10.0**exponent
        xf = matching.TransformerMatch(ratio, cancel)
        return {
            "turns_ratio": ratio,
            "snr": matching.snr_with_transformer(lnk, r_in, amp, xf),
            "annotations": "at_optimal" if exponent == 0 else "",
        }

    rows = [worker(float(e)) for e in exponents]
    return ["turns_ratio", "snr", "annotations"], rows, True


def _strategy_from_canon(canon) -> arrays.TerminationStrategy:
    if isinstance(canon, str):
        return arrays.TerminationStrategy(canon)
    z_l = [[_as_complex(v) for v in row] for row in canon["z_l_ohms"]]
    return arrays.TerminationStrategy.explicit(np.array(z_l, dtype=np.complex128))


def _strategy_label(canon) -> str:
    return canon if isinstance(canon, str) else "explicit"


def _run_array(scenario: Scenario):
    section = scenario.data["array"]
    if "synthetic" in section:
        syn = section["synthetic"]
        model = arrays.make_synthetic_model(
            syn["n_tx"], syn["n_rx"], _as_complex(syn["self_ohms"]),
            syn["coupling_ohms"], syn["decay"], syn["frequencies_hz"],
            rng=np.random.default_rng(syn["seed"]),
        )
    else:
        zms = load_impedance_csv(
            scenario.base_dir / section["impedance_csv"], (section["dims_m"], section["dims_k"])
        )
        i_t = section["i_t_amperes"]
        if isinstance(i_t[0], list):
            currents = np.array([[_as_complex(v) for v in row] for row in i_t])
        else:
            currents = np.array([_as_complex(v) for v in i_t])
        model = arrays.ArrayModel(zms, currents)
    solved = []
    for canon in section["strategies"]:
        strategy = _strategy_from_canon(canon)
        notes = ";time_reversal_caveat" if strategy.kind == "full_conjugate" else ""
        solved.append((_strategy_label(canon), notes, arrays.terminate_array(model, strategy)))
    rows = []
    for fi, freq in enumerate(model.zms.grid):
        for label, notes, result in solved:
            volts = result.voltages[fi]
            rows.append({
                "freq_hz": freq,
                "strategy": label,
                "sum_power_w": result.power[fi],
                "v_mag_volts": ";".join(fmt(abs(v)) for v in volts),
                "v_phase_rad": ";".join(fmt(math.atan2(v.imag, v.real)) for v in volts),
                "annotations": "offdiag_ratio=" + fmt(result.offdiag_ratio[fi]) + notes,
            })
    fields = ["freq_hz", "strategy", "sum_power_w", "v_mag_volts", "v_phase_rad", "annotations"]
    return fields, rows, True


_RUNNERS = {
    "validate": _run_validate,
    "capacity": _run_capacity,
    "link": _run_link,
    "noisefig": _run_noisefig,
    "frontend": _run_frontend,
    "match": _run_match,
    "array": _run_array,
}


def render_report(fieldnames: list, rows: list, fmt_kind: str, title: str) -> str:
    """Render rows as CSV or structured text; both carry identical fields."""
    if fmt_kind == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([fmt(row[name]) for name in fieldnames])
        return buffer.getvalue()
    lines = [f"report: {title}"]
    for index, row in enumerate(rows, start=1):
        lines.append(f"row {index}:")
        for name in fieldnames:
            lines.append(f"  {name}: {fmt(row[name])}")
    return "\n".join(lines) + "\n"


def _write_text(out_path, payload: str) -> None:
    if out_path is None:
        sys.stdout.write(payload)
        return
    with open(out_path, "w", newline="") as handle:
        handle.write(payload)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rxfront",
        description="Receiver front-end termination and noise analysis.",
        epilog="Exit codes: 0 success, 1 validation, 2 parse, 3 numerical/singular, 4 I/O.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} analysis for a scenario")
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "text"), default="csv")
        p.add_argument("--dump-normalized", action="store_true",
                       help="print the normalized scenario instead of running")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility (must be >= 1); has no effect")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ParseError("--jobs must be >= 1")
        scenario = parse_scenario(args.scenario)
        if scenario.kind != args.command:
            raise ParseError(
                f"scenario {scenario.name!r} carries a {scenario.kind!r} section, "
                f"not {args.command!r}"
            )
        if args.dump_normalized:
            _write_text(args.out, json.dumps(scenario.data, indent=2, sort_keys=True) + "\n")
            return 0
        fieldnames, rows, ok = _RUNNERS[args.command](scenario)
        title = f"{scenario.name} {args.command}"
        _write_text(args.out, render_report(fieldnames, rows, args.format, title))
        if not ok:
            print(f"{args.command}: validation failed", file=sys.stderr)
            return 1
        return 0
    except (ParseError, UnicodeDecodeError) as exc:  # a referenced CSV or netlist may not be UTF-8
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
