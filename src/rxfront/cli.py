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
from pathlib import Path

import numpy as np

from . import arrays, frontend, matching, mna, noisefig, shannon
from . import link as link_mod
from .core import (
    OPEN_CIRCUIT,
    NumericalError,
    ParseError,
    SingularCircuitError,
    TheveninSource,
    ToolkitError,
    ValidationError,
    load_impedance_csv,
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


def _fail(message: str):
    raise ParseError(f"scenario: {message}")


def _req(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict) or key not in mapping:
        _fail(f"missing {context}.{key}")
    return mapping[key]


def _num(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{context} must be a number")
    x = float(value)
    if not math.isfinite(x):
        _fail(f"{context} must be finite")
    return x


def _num_or_inf(value, context: str):
    """Numbers that may be infinite stay the literal token "inf" when normalized."""
    if value == "inf":
        return "inf"
    return _num(value, context)


def _to_float(canon) -> float:
    return math.inf if canon == "inf" else float(canon)


def _int(value, context: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{context} must be an integer")
    if minimum is not None and value < minimum:
        _fail(f"{context} must be >= {minimum}")
    return value


def _str(value, context: str) -> str:
    if not isinstance(value, str):
        _fail(f"{context} must be a string")
    return value


def _cx(value, context: str) -> dict:
    if not isinstance(value, dict) or "re" not in value:
        _fail(f"{context} must be an object with re/im parts")
    return {"re": _num(value["re"], f"{context}.re"), "im": _num(value.get("im", 0.0), f"{context}.im")}


def _cx_or_inf(value, context: str):
    if value == "inf":
        return "inf"
    return _cx(value, context)


def _as_complex(canon) -> complex:
    return complex(canon["re"], canon["im"])


def _bool(value, context: str) -> bool:
    if not isinstance(value, bool):
        _fail(f"{context} must be true or false")
    return value


def _nonempty_list(value, context: str) -> list:
    if not isinstance(value, list) or not value:
        _fail(f"{context} must be a non-empty list")
    return value


def _cx_rows(value, context: str) -> list:
    """Non-empty list of equal-length, non-empty rows of complex objects."""
    rows = [
        [_cx(v, f"{context}[][]") for v in _nonempty_list(row, f"{context}[]")]
        for row in _nonempty_list(value, context)
    ]
    if len({len(row) for row in rows}) != 1:
        _fail(f"{context} rows must all have the same length")
    return rows


def _amplifier(section, context: str) -> dict:
    return {
        "gain": _num(_req(section, "gain", context), f"{context}.gain"),
        "n_na_v2_per_hz": _num(_req(section, "n_na_v2_per_hz", context), f"{context}.n_na_v2_per_hz"),
        "temp_kelvin": _num(_req(section, "temp_kelvin", context), f"{context}.temp_kelvin"),
    }


def _link_fields(section, context: str) -> dict:
    return {
        "z_r_ohms": _cx(_req(section, "z_r_ohms", context), f"{context}.z_r_ohms"),
        "z_rt_ohms": _cx(_req(section, "z_rt_ohms", context), f"{context}.z_rt_ohms"),
        "s_it_a2_per_hz": _num(_req(section, "s_it_a2_per_hz", context), f"{context}.s_it_a2_per_hz"),
    }


def _normalize_validate(section) -> dict:
    out = {
        "impedance_csv": _str(_req(section, "impedance_csv", "validate"), "validate.impedance_csv"),
        "tol": _num(section.get("tol", 1e-9), "validate.tol"),
    }
    if "dims_m" in section or "dims_k" in section:
        out["dims_m"] = _int(_req(section, "dims_m", "validate"), "validate.dims_m")
        out["dims_k"] = _int(_req(section, "dims_k", "validate"), "validate.dims_k")
    return out


def _normalize_capacity(section) -> dict:
    return {
        "power": _num(_req(section, "power", "capacity"), "capacity.power"),
        "noise_density": _num(_req(section, "noise_density", "capacity"), "capacity.noise_density"),
        "bandwidths": [
            _num(b, "capacity.bandwidths[]")
            for b in _nonempty_list(_req(section, "bandwidths", "capacity"), "capacity.bandwidths")
        ],
    }


def _normalize_link(section) -> dict:
    out = _link_fields(section, "link")
    loads = section.get(
        "loads",
        [{"label": "open_circuit", "kind": "open_circuit"},
         {"label": "conjugate_match", "kind": "conjugate_match"}],
    )
    canon_loads = []
    for i, load in enumerate(_nonempty_list(loads, "link.loads")):
        kind = _req(load, "kind", f"link.loads[{i}]")
        if kind not in ("open_circuit", "conjugate_match", "explicit"):
            _fail(f"link.loads[{i}].kind {kind!r} unknown")
        canon = {"kind": kind, "label": str(load.get("label", kind))}
        if kind == "explicit":
            canon["z_l_ohms"] = _cx(_req(load, "z_l_ohms", f"link.loads[{i}]"), f"link.loads[{i}].z_l_ohms")
        canon_loads.append(canon)
    out["loads"] = canon_loads
    if "optimize" in section:
        opt = section["optimize"]
        out["optimize"] = {
            "r_max_ohms": _num(_req(opt, "r_max_ohms", "link.optimize"), "link.optimize.r_max_ohms"),
            "x_max_ohms": _num(_req(opt, "x_max_ohms", "link.optimize"), "link.optimize.x_max_ohms"),
            "n_re": _int(_req(opt, "n_re", "link.optimize"), "link.optimize.n_re"),
            "n_im": _int(_req(opt, "n_im", "link.optimize"), "link.optimize.n_im"),
            "include_open": _bool(opt.get("include_open", True), "link.optimize.include_open"),
        }
    return out


def _normalize_noisefig(section) -> dict:
    amp = _req(section, "amp", "noisefig")
    return {
        "v_s_volts": _cx(_req(section, "v_s_volts", "noisefig"), "noisefig.v_s_volts"),
        "r_s_ohms": _num(_req(section, "r_s_ohms", "noisefig"), "noisefig.r_s_ohms"),
        "temp_kelvin": _num(_req(section, "temp_kelvin", "noisefig"), "noisefig.temp_kelvin"),
        "amp": {
            "gain": _num(_req(amp, "gain", "noisefig.amp"), "noisefig.amp.gain"),
            "n_na_v2_per_hz": _num(_req(amp, "n_na_v2_per_hz", "noisefig.amp"), "noisefig.amp.n_na_v2_per_hz"),
            "r_out_ohms": _num(_req(amp, "r_out_ohms", "noisefig.amp"), "noisefig.amp.r_out_ohms"),
        },
        "r_l_sweep_ohms": [
            _num_or_inf(r, "noisefig.r_l_sweep_ohms[]")
            for r in _nonempty_list(
                _req(section, "r_l_sweep_ohms", "noisefig"), "noisefig.r_l_sweep_ohms"
            )
        ],
    }


def _normalize_frontend(section) -> dict:
    if "netlist" in section:
        return {"netlist": _str(section["netlist"], "frontend.netlist")}
    source = _req(section, "source", "frontend")
    opamp = _req(section, "opamp", "frontend")
    topologies = _nonempty_list(
        section.get("topologies", ["buffer", "constant_current", "inside_out"]),
        "frontend.topologies",
    )
    for topo in topologies:
        if topo not in ("buffer", "constant_current", "inside_out"):
            _fail(f"frontend.topologies entry {topo!r} unknown")
    out = {
        "source": {
            "v_oc_volts": _cx(_req(source, "v_oc_volts", "frontend.source"), "frontend.source.v_oc_volts"),
            "z_r_ohms": _cx(_req(source, "z_r_ohms", "frontend.source"), "frontend.source.z_r_ohms"),
        },
        "opamp": {
            "open_loop_gain": _num_or_inf(
                _req(opamp, "open_loop_gain", "frontend.opamp"), "frontend.opamp.open_loop_gain"
            ),
            "z_id_ohms": _cx_or_inf(opamp.get("z_id_ohms", "inf"), "frontend.opamp.z_id_ohms"),
            "z_cm_ohms": _cx_or_inf(opamp.get("z_cm_ohms", "inf"), "frontend.opamp.z_cm_ohms"),
            "r_out_ohms": _num(opamp.get("r_out_ohms", 0.0), "frontend.opamp.r_out_ohms"),
        },
        "topologies": list(topologies),
    }
    if "constant_current" in topologies:
        cc = _req(section, "constant_current", "frontend")
        out["constant_current"] = {
            "v_c_volts": _cx(_req(cc, "v_c_volts", "frontend.constant_current"), "frontend.constant_current.v_c_volts"),
            "r_c_ohms": _num_or_inf(_req(cc, "r_c_ohms", "frontend.constant_current"), "frontend.constant_current.r_c_ohms"),
        }
    if "gain_sweep" in section:
        out["gain_sweep"] = [
            _num(g, "frontend.gain_sweep[]")
            for g in _nonempty_list(section["gain_sweep"], "frontend.gain_sweep")
        ]
    return out


def _normalize_match(section) -> dict:
    sweep = section.get("ratio_sweep", {})
    return {
        "link": _link_fields(_req(section, "link", "match"), "match.link"),
        "amp_input_resistance_ohms": _num(
            _req(section, "amp_input_resistance_ohms", "match"), "match.amp_input_resistance_ohms"
        ),
        "cancel_reactance": _bool(section.get("cancel_reactance", True), "match.cancel_reactance"),
        "ratio_sweep": {
            "count": _int(sweep.get("count", 51), "match.ratio_sweep.count", minimum=0),
            "span_decades": _num(sweep.get("span_decades", 2.0), "match.ratio_sweep.span_decades"),
        },
    }


def _normalize_array(section) -> dict:
    out = {}
    if "synthetic" in section:
        syn = section["synthetic"]
        out["synthetic"] = {
            "n_tx": _int(_req(syn, "n_tx", "array.synthetic"), "array.synthetic.n_tx"),
            "n_rx": _int(_req(syn, "n_rx", "array.synthetic"), "array.synthetic.n_rx"),
            "self_ohms": _cx(_req(syn, "self_ohms", "array.synthetic"), "array.synthetic.self_ohms"),
            "coupling_ohms": _num(_req(syn, "coupling_ohms", "array.synthetic"), "array.synthetic.coupling_ohms"),
            "decay": _num(_req(syn, "decay", "array.synthetic"), "array.synthetic.decay"),
            "frequencies_hz": [
                _num(f, "array.synthetic.frequencies_hz[]")
                for f in _nonempty_list(
                    _req(syn, "frequencies_hz", "array.synthetic"), "array.synthetic.frequencies_hz"
                )
            ],
            "seed": _int(syn.get("seed", 0), "array.synthetic.seed"),
        }
    else:
        out["impedance_csv"] = _str(_req(section, "impedance_csv", "array"), "array.impedance_csv")
        out["dims_m"] = _int(_req(section, "dims_m", "array"), "array.dims_m")
        out["dims_k"] = _int(_req(section, "dims_k", "array"), "array.dims_k")
    if "i_t_amperes" in section:
        if "synthetic" in section:
            _fail("array.i_t_amperes is only for CSV models")
        items = _nonempty_list(section["i_t_amperes"], "array.i_t_amperes")
        if isinstance(items[0], list):
            out["i_t_amperes"] = _cx_rows(items, "array.i_t_amperes")
        else:
            out["i_t_amperes"] = [_cx(v, "array.i_t_amperes[]") for v in items]
    elif "synthetic" not in section:
        _fail("array needs i_t_amperes when loading from CSV")
    strategies = []
    for i, strat in enumerate(
        _nonempty_list(
            section.get("strategies", ["open_circuit", "per_antenna_conjugate", "full_conjugate"]),
            "array.strategies",
        )
    ):
        if isinstance(strat, str):
            if strat not in ("open_circuit", "per_antenna_conjugate", "full_conjugate"):
                _fail(f"array.strategies[{i}] {strat!r} unknown")
            strategies.append(strat)
        else:
            if _req(strat, "kind", f"array.strategies[{i}]") != "explicit":
                _fail(f"array.strategies[{i}].kind must be 'explicit'")
            strategies.append({
                "kind": "explicit",
                "z_l_ohms": _cx_rows(strat.get("z_l_ohms"), f"array.strategies[{i}].z_l_ohms"),
            })
    out["strategies"] = strategies
    return out


_NORMALIZERS = {
    "validate": _normalize_validate,
    "capacity": _normalize_capacity,
    "link": _normalize_link,
    "noisefig": _normalize_noisefig,
    "frontend": _normalize_frontend,
    "match": _normalize_match,
    "array": _normalize_array,
}

_NEEDS_AMPLIFIER = ("link", "match")


def parse_scenario(path) -> Scenario:
    """Load, validate, and normalize a scenario file."""
    path = Path(path)
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        _fail("top level must be an object")
    present = [key for key in SUBCOMMANDS if key in raw]
    if len(present) != 1:
        _fail(f"expected exactly one of {'/'.join(SUBCOMMANDS)} sections, found {present or 'none'}")
    kind = present[0]
    name = str(raw.get("name", path.stem))
    data = {"name": name, kind: _NORMALIZERS[kind](raw[kind])}
    if kind in _NEEDS_AMPLIFIER:
        data["amplifier"] = _amplifier(_req(raw, "amplifier", "scenario"), "amplifier")
    return Scenario(name, kind, data, path.parent)


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
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (SingularCircuitError, NumericalError) as exc:
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
