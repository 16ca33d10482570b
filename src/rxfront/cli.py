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

import atexit
import gc
import json
import math
import os
import sys
from functools import partial
from itertools import count
from pathlib import Path

from .core import (
    MAX_ARRAY_BYTES,
    OPEN_CIRCUIT,
    Frozen,
    ParseError,
    SingularCircuitError,
    ToolkitError,
    ValidationError,
    read_text,
    stack_bytes,
)

SUBCOMMANDS = ("validate", "capacity", "link", "noisefig", "frontend", "match", "array")


class Scenario(Frozen):
    """Parsed scenario: normalized payload plus the directory for file references."""

    _fields = ("name", "kind", "data", "base_dir")

    def __init__(self, name: str, kind: str, data: dict, base_dir: Path) -> None:
        self._store(name, kind, data, base_dir)


def fmt(value) -> str:
    """Render one report cell: 12 significant digits, inf/undefined tokens."""
    if isinstance(value, str):
        return value
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return "true" if value else "false"
    numpy = sys.modules.get("numpy")  # a run that never loaded numpy holds no numpy integer
    if isinstance(value, int) or (numpy is not None and isinstance(value, numpy.integer)):
        return str(int(value))  # numpy.bool_ is no numpy.integer: it prints as a float
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


class _Invalid(Exception):
    """A scenario field failed its check. The checkers know only the value;
    each enclosing level prepends its part of the field's path (".key",
    "[]", ".re") as the error propagates, so a valid field builds no string.
    The message is head + path (without its leading ".") + tail."""

    def __init__(self, tail: str, head: str = "", path: str = ""):
        super().__init__(tail)
        self.tail, self.head, self.path = tail, head, path


def _num(value) -> float:
    if type(value) not in (int, float):  # JSON numbers; bool is not one
        raise _Invalid(" must be a number")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise _Invalid(" must be finite")
    return x


def _int(value, minimum: int = -(2**63), maximum: int = 2**63 - 1) -> int:
    if type(value) is not int:
        raise _Invalid(" must be an integer")
    if value < minimum:
        raise _Invalid(f" must be >= {minimum}")
    if value >= 2**63:
        raise _Invalid(" must fit in a 64-bit integer")
    if value > maximum:
        raise _Invalid(f" must be <= {maximum}")
    return value


_count = partial(_int, minimum=0)


# Bytes a size field is charged per entry, against MAX_ARRAY_BYTES.
_REPORT_ROW_BYTES = 1024  # one report row as Python objects and text (about 330 B measured)


def _check_size(nbytes: int) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        raise _Invalid(f" asks for {nbytes} bytes, over the {MAX_ARRAY_BYTES}-byte limit")


def _cx(value) -> dict:
    if not isinstance(value, dict) or "re" not in value:
        raise _Invalid(" must be an object with re/im parts")
    part = ".re"
    try:
        re = _num(value["re"])
        part = ".im"
        return {"re": re, "im": _num(value.get("im", 0))}
    except _Invalid as exc:
        exc.path = part + exc.path
        raise


def _typed(kind, noun: str):
    def checker(value):
        if not isinstance(value, kind):
            raise _Invalid(" must be " + noun)
        return value
    return checker


_str, _bool = _typed(str, "a string"), _typed(bool, "true or false")


def _walk(table: dict, value) -> dict:
    """Check one object against its field table and return the normalized copy."""
    if not isinstance(value, dict):
        raise _Invalid(" must be an object")
    out = {}
    try:
        for key, (check, default) in table.items():
            item = value.get(key, default)
            if item is REQUIRED:
                raise _Invalid("", "missing ")
            if item is not OPTIONAL:
                out[key] = check(item)
    except _Invalid as exc:
        exc.path = "." + key + exc.path
        raise
    return out


def _obj(table: dict):
    return partial(_walk, table)


def _list_of(check):
    def checker(value):
        if not isinstance(value, list) or not value:
            raise _Invalid(" must be a non-empty list")
        try:
            return [check(v) for v in value]
        except _Invalid as exc:
            exc.path = "[]" + exc.path
            raise
    return checker


def _rows_of(check):
    """Non-empty list of equal-length, non-empty rows."""
    list_of_rows = _list_of(_list_of(check))

    def checker(value):
        rows = list_of_rows(value)
        if len({len(row) for row in rows}) != 1:
            raise _Invalid(" rows must all have the same length")
        return rows
    return checker


def _one_of(*choices):
    def checker(value):
        if not isinstance(value, str) or value not in choices:
            raise _Invalid(" " + repr(value) + " unknown")  # the repr may hold braces
        return value
    return checker


def _or_inf(check):
    """Values that may be infinite stay the literal token "inf" when normalized."""
    return lambda value: "inf" if value == "inf" else check(value)


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


def _validate(value):
    dims = isinstance(value, dict) and ("dims_m" in value or "dims_k" in value)  # a pair or neither
    return _walk(_VALIDATE_DIMS if dims else _VALIDATE, value)


_CAPACITY = {
    "power": (_num, REQUIRED), "noise_density": (_num, REQUIRED),
    "bandwidths": (_list_of(_num), REQUIRED),
}
_LOAD = {
    "kind": (_one_of("open_circuit", "conjugate_match", "explicit"), REQUIRED),
    "label": (_str, OPTIONAL),
}
_EXPLICIT_LOAD = {**_LOAD, "z_l_ohms": (_cx, REQUIRED)}


def _load(value):
    """One link load. A valid explicit load, nearly every load of a long
    sweep, is accepted in one step, with the result the table walk gives:
    the load itself if it is already that result (kind, label and z_l_ohms,
    whose re and im are finite floats, and no other key), else a copy.
    Every other load takes the walk, which alone builds error messages."""
    if type(value) is dict and value.get("kind") == "explicit":
        label, z = value.get("label", "explicit"), value.get("z_l_ohms")
        if type(label) is str and type(z) is dict:
            re, im = z.get("re"), z.get("im", 0)
            if (type(re) is type(im) is float and math.isfinite(re) and math.isfinite(im)
                    and len(z) == 2 and len(value) == 3 and "label" in value):
                return value
            if type(re) in (int, float) and type(im) in (int, float):  # bool is not a JSON number
                try:
                    re, im = float(re), float(im)
                except OverflowError:  # an integer beyond the float range
                    pass
                else:
                    if math.isfinite(re) and math.isfinite(im):
                        return {"kind": "explicit", "label": label, "z_l_ohms": {"re": re, "im": im}}
    explicit = isinstance(value, dict) and value.get("kind") == "explicit"
    out = _walk(_EXPLICIT_LOAD if explicit else _LOAD, value)
    out.setdefault("label", out["kind"])
    return out


_OPTIMIZE = {
    "r_max_ohms": (_num, REQUIRED), "x_max_ohms": (_num, REQUIRED), "include_open": (_bool, True),
}

_LINK = {
    **_LINK_FIELDS,
    "loads": (_list_of(_load), [{"kind": "open_circuit"}, {"kind": "conjugate_match"}]),
    "optimize": (_obj(_OPTIMIZE), OPTIONAL),
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


def _frontend(value):
    if isinstance(value, dict) and "netlist" in value:
        return _walk(_NETLIST, value)
    out = _walk(_FRONTEND, value)
    if "constant_current" in out["topologies"]:  # read only when that topology is listed
        out.update(_walk(_CONSTANT_CURRENT, value))
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


def _strategy(value):
    if isinstance(value, str):
        return _strategy_name(value)
    return _walk(_EXPLICIT_STRATEGY, value)


def _currents(value):
    """One current vector for all frequencies, or one row per frequency."""
    rows = isinstance(value, list) and value and isinstance(value[0], list)
    return (_cx_matrix if rows else _cx_vector)(value)


_SYNTHETIC = {
    "n_tx": (_int, REQUIRED), "n_rx": (_int, REQUIRED), "self_ohms": (_cx, REQUIRED),
    "coupling_ohms": (_num, REQUIRED), "decay": (_num, REQUIRED),
    "frequencies_hz": (_list_of(_num), REQUIRED), "seed": (_count, 0),
}


def _synthetic(value):
    out = _walk(_SYNTHETIC, value)
    ports = max(out["n_tx"], 0) + max(out["n_rx"], 0)
    _check_size(stack_bytes(len(out["frequencies_hz"]), ports))
    return out


def _csv_models_only(value):
    raise _Invalid(" is only for CSV models")


_STRATEGIES = {"strategies": (_list_of(_strategy), list(_STRATEGY_NAMES))}
_ARRAY_SYNTHETIC = {
    **_STRATEGIES,
    "synthetic": (_synthetic, REQUIRED),
    "i_t_amperes": (_csv_models_only, OPTIONAL),
}
_ARRAY_CSV = {
    **_STRATEGIES, **_DIMS, "impedance_csv": (_str, REQUIRED), "i_t_amperes": (_currents, REQUIRED),
}


def _array(value):
    synthetic = isinstance(value, dict) and "synthetic" in value
    return _walk(_ARRAY_SYNTHETIC if synthetic else _ARRAY_CSV, value)


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
        raise ParseError("scenario: top level must be an object")
    present = [key for key in SUBCOMMANDS if key in raw]
    if len(present) != 1:
        raise ParseError(
            f"scenario: expected exactly one of {'/'.join(SUBCOMMANDS)} sections, found {present or 'none'}"
        )
    kind = present[0]
    try:
        data = _walk(_SCENARIOS[kind], raw)
    except _Invalid as exc:
        raise ParseError(f"scenario: {exc.head}{exc.path[1:]}{exc.tail}") from None
    data.setdefault("name", path.stem)
    return Scenario(data["name"], kind, data, path.parent)


def _run_validate(scenario: Scenario):
    import numpy as np

    from .impedance import load_impedance_csv, validate_passivity, validate_reciprocity

    section = scenario.data["validate"]
    tol = section["tol"]
    if tol <= 0:  # the validators' own check, made before the CSV is read
        raise ValidationError("tol must be positive")
    dims = None
    if "dims_m" in section:
        dims = (section["dims_m"], section["dims_k"])
    zms = load_impedance_csv(scenario.base_dir / section["impedance_csv"], dims)
    reports = (validate_reciprocity(zms, tol), validate_passivity(zms, tol))
    deviations = [d for report in reports for d in report.deviations]
    columns = {
        "check": [report.check for report in reports for _ in zms.grid],
        "freq_hz": np.array(zms.grid.points * len(reports)),
        "deviation": np.array(deviations),
        "tol": np.full(len(deviations), tol),
        "passed": ["pass" if d <= tol else "fail" for d in deviations],
    }
    return columns, all(report.passed for report in reports)


def _run_capacity(scenario: Scenario):
    from . import shannon

    section = scenario.data["capacity"]
    power = section["power"]
    n0 = section["noise_density"]
    bound = shannon.capacity_bound(power, n0)

    def row(bandwidth: float) -> tuple:
        spec = shannon.AwgnChannelSpec(power, bandwidth, n0)
        return bandwidth, shannon.capacity(spec), bound, shannon.eb_n0(spec) if power > 0 else None

    rows = [row(bandwidth) for bandwidth in section["bandwidths"]]
    return _from_rows(("bandwidth", "capacity_bits", "capacity_bound_bits", "eb_n0"), rows), True


_ARITHMETIC_MESSAGES = {  # Python's own messages, without OverflowError's errno
    OverflowError: "Numerical result out of range",
    ZeroDivisionError: "float division by zero",
}
_LOAD_MESSAGES = {  # the message of one bad load's error, in the scenario's field names
    ValidationError: "z_l_ohms must have nonnegative real part",
    SingularCircuitError: "z_r_ohms + z_l_ohms = 0: divider is singular",
    **_ARITHMETIC_MESSAGES,
}


def _check_squares(*fields) -> None:
    """Raise an OverflowError naming the first (field, value) whose |value|^2,
    a square the formulas take of a scenario field itself, overflows."""
    for field, value in fields:
        try:
            value.real**2 + value.imag**2
        except OverflowError:
            raise OverflowError(f"|{field}|^2 is outside the float range") from None


def _run_link(scenario: Scenario):
    from . import link as link_mod

    section = scenario.data["link"]
    ampd = scenario.data["amplifier"]
    lnk = link_mod.SingleLink(
        _as_complex(section["z_r_ohms"]),
        _as_complex(section["z_rt_ohms"]),
        section["s_it_a2_per_hz"],
    )
    amp = link_mod.AmplifierNoiseModel(ampd["gain"], ampd["n_na_v2_per_hz"], ampd["temp_kelvin"])
    _check_squares(("link.z_rt_ohms", lnk.z_rt), ("link.z_r_ohms", lnk.z_r))  # s_voc, then the SNR
    ratio = None
    if lnk.z_r.real > 0 and amp.n_na > 0:
        ratio = link_mod.snr_ratio_oc_over_match(lnk, amp)
    note = "" if ratio is None else f"oc_over_match={fmt(ratio)}"
    # an open circuit's z_l prints inf
    open_cells = (math.inf, math.inf, 1.0, 0.0, link_mod.output_snr(lnk, amp, OPEN_CIRCUIT), note)
    match = lnk.z_r.conjugate()
    solve, loads, rows = link_mod._row_kernel(lnk, amp), section["loads"], []
    append = rows.append
    try:  # one pass: the first bad load raises, and it is loads[len(rows)]
        for load in loads:
            kind = load["kind"]
            if kind == "explicit":
                z = load["z_l_ohms"]
                re, im = z["re"], z["im"]
            elif kind == "open_circuit":
                append((load["label"], *open_cells))
                continue
            else:
                re, im = match.real, match.imag
            mag, power, snr = solve(re, im)
            append((load["label"], re, im, mag, power, snr, ""))
    except (ToolkitError, ArithmeticError) as exc:
        raise type(exc)(f"load {loads[len(rows)]['label']!r}: {_LOAD_MESSAGES[type(exc)]}") from exc
    if "optimize" in section:
        opt = section["optimize"]
        search = link_mod.SearchBox(opt["r_max_ohms"], opt["x_max_ohms"], opt["include_open"])
        best, _ = link_mod.optimize_load(lnk, amp, search)
        cells = open_cells if best is OPEN_CIRCUIT else (best.re, best.im, *solve(best.re, best.im), "")
        rows.append(("optimal", *cells))
    names = ("label", "z_l_re_ohms", "z_l_im_ohms", "divider_mag", "extracted_power_w_per_hz", "snr", "annotations")
    return _from_rows(names, rows), True


def _run_noisefig(scenario: Scenario):
    from . import noisefig

    section = scenario.data["noisefig"]
    gen = noisefig.SignalGenerator(
        _as_complex(section["v_s_volts"]), section["r_s_ohms"], section["temp_kelvin"]
    )
    ampd = section["amp"]

    def row(r_l_token) -> tuple:
        amp = noisefig.VoltageAmplifierStage(
            ampd["gain"], ampd["n_na_v2_per_hz"], _to_float(r_l_token), ampd["r_out_ohms"]
        )
        factor = noisefig.noise_factor(gen, amp)
        return (r_l_token, noisefig.friis_gain(gen, amp), noisefig.output_snr_friis(gen, amp), factor,
                10.0 * math.log10(factor) if math.isfinite(factor) else math.inf, "")

    try:
        rows = [row(r_l) for r_l in section["r_l_sweep_ohms"]]
    except OverflowError:  # output_snr_friis squares v_s, after a row's checks
        _check_squares(("noisefig.v_s_volts", gen.v_s))
        raise
    names = ("r_l_ohms", "friis_gain", "output_snr", "noise_factor", "noise_figure_db", "annotations")
    return _from_rows(names, rows), True


def _to_float(canon) -> float:
    return math.inf if canon == "inf" else float(canon)


def _as_complex(canon) -> complex:
    return complex(canon["re"], canon["im"])


def _optional_cx(canon):
    return None if canon == "inf" else _as_complex(canon)


def _run_frontend(scenario: Scenario):
    section = scenario.data["frontend"]
    if "netlist" in section:
        from . import mna

        text = read_text(scenario.base_dir / section["netlist"])
        solution = mna.mna_solve(mna.parse_netlist(text))
        rows = []
        for node in sorted(solution.node_voltages):
            value = solution.node_voltages[node]
            rows.append(("node", str(node), value.real, value.imag))
        for el in solution.netlist.elements:
            if el.kind in ("V", "E"):
                value = solution.branch_currents[el.name]
                rows.append(("branch", el.name, value.real, value.imag))
        return _from_rows(("kind", "name", "value_re", "value_im"), rows), True

    from . import frontend

    source_d = section["source"]
    source = frontend.TheveninSource(
        _as_complex(source_d["v_oc_volts"]), _as_complex(source_d["z_r_ohms"])
    )
    opamp_d = section["opamp"]
    gains = section.get("gain_sweep", [_to_float(opamp_d["open_loop_gain"])])
    z_id = _optional_cx(opamp_d["z_id_ohms"])
    z_cm = _optional_cx(opamp_d["z_cm_ohms"])
    cc = section.get("constant_current")

    def row(topo: str, a: float) -> tuple:
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
        return (
            topo, "inf" if math.isinf(a) else a, sol.v_out.real, sol.v_out.imag, sol.i_source.real,
            sol.i_source.imag, "inf" if z_eff is None else z_eff.real, "inf" if z_eff is None else z_eff.imag,
            sol.p_extracted,
        )

    rows = [row(topo, a) for topo in section["topologies"] for a in gains]
    names = (
        "topology", "open_loop_gain", "v_out_re", "v_out_im", "i_source_re",
        "i_source_im", "z_eff_re_ohms", "z_eff_im_ohms", "p_extracted_w",
    )
    return _from_rows(names, rows), True


def _linspace(start: float, stop: float, count: int) -> list:
    """np.linspace(start, stop, count) as Python floats, bit for bit: numpy's
    own formula, its branch for a step that underflows to 0 included."""
    delta, div = stop - start, count - 1
    if div <= 0:
        return [i * delta + start for i in range(count)]
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(div)]
    else:
        points = [i * step + start for i in range(div)]
    return points + [stop]


def _run_match(scenario: Scenario):
    from . import link as link_mod
    from . import matching

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
    if not 0.0 < best < math.inf:  # the quotient under its square root overflowed or underflowed
        raise ValidationError(
            f"match.amp_input_resistance_ohms / Re match.link.z_r_ohms = {fmt(r_in)} / "
            f"{fmt(lnk.z_r.real)} is outside the float range, so the optimal turns ratio is {fmt(best)}"
        )
    sweep = section["ratio_sweep"]
    span = sweep["span_decades"]
    exponents = _linspace(-span / 2.0, span / 2.0, sweep["count"])
    ratios = [_scaled(best, exponent) for exponent in exponents]
    for end in ratios[:1] + ratios[-1:]:  # monotone in the exponent: the ends bound the rest
        if not 0.0 < end < math.inf:
            raise ValidationError(
                f"match.ratio_sweep.span_decades {fmt(span)} takes the turns ratio from "
                f"its optimum {fmt(best)} to {fmt(end)}"
            )

    def row(exponent: float, ratio: float) -> tuple:
        xf = matching.TransformerMatch(ratio, cancel)
        try:
            snr = matching.snr_with_transformer(lnk, r_in, amp, xf)
        except tuple(_ARITHMETIC_MESSAGES) as exc:
            if type(exc) is OverflowError:  # the squares that no turns ratio changes come first
                _check_squares(("match.amp_input_resistance_ohms", r_in), ("match.link.z_rt_ohms", lnk.z_rt))
            raise type(exc)(f"turns_ratio {fmt(ratio)}: {_ARITHMETIC_MESSAGES[type(exc)]}") from exc
        return ratio, snr, "at_optimal" if exponent == 0 else ""

    rows = [row(e, ratio) for e, ratio in zip(exponents, ratios)]
    return _from_rows(("turns_ratio", "snr", "annotations"), rows), True


def _scaled(ratio: float, exponent: float) -> float:
    """ratio * 10**exponent, inf where the power overflows."""
    try:
        return ratio * 10.0**exponent
    except OverflowError:
        return math.inf


def _run_array(scenario: Scenario):
    import numpy as np

    from . import arrays
    from .impedance import load_impedance_csv

    section = scenario.data["array"]
    if "synthetic" in section:
        syn = section["synthetic"]
        model = arrays.make_synthetic_model(
            syn["n_tx"], syn["n_rx"], _as_complex(syn["self_ohms"]),
            syn["coupling_ohms"], syn["decay"], syn["frequencies_hz"],
            rng=syn["seed"],
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
    labels, notes, solved = [], [], []
    for canon in section["strategies"]:
        if isinstance(canon, str):
            label, strategy = canon, arrays.TerminationStrategy(canon)
        else:
            z_l = np.array([[_as_complex(v) for v in row] for row in canon["z_l_ohms"]], dtype=np.complex128)
            label, strategy = "explicit", arrays.TerminationStrategy("explicit", z_l)
        labels.append(label)
        notes.append(";time_reversal_caveat" if strategy.kind == "full_conjugate" else "")
        solved.append(arrays.terminate_array(model, strategy))

    def flat(field: str) -> np.ndarray:
        """One result field over the report rows, frequency-major then strategy (then port)."""
        return np.stack([getattr(result, field) for result in solved], axis=1).reshape(-1)

    n_freqs, n_rx = solved[0].voltages.shape
    volts = flat("voltages")
    re, im = volts.real, volts.imag
    phases = list(map(math.atan2, im.tolist(), re.tolist()))  # np.arctan2 can differ in the last bit
    columns = {
        "freq_hz": np.repeat(model.zms.grid.as_array(), len(solved)),
        "strategy": labels * n_freqs,
        "sum_power_w": flat("power"),
        "v_mag_volts": _port_cells(np.hypot(re, im), n_rx),  # abs() of each voltage, to the last bit
        "v_phase_rad": _port_cells(np.array(phases), n_rx),
        "annotations": [f"offdiag_ratio={cell}{note}"
                        for cell, note in zip(_cells(flat("offdiag_ratio")), notes * n_freqs)],
    }
    return columns, True


_RUNNERS = {
    "validate": _run_validate,
    "capacity": _run_capacity,
    "link": _run_link,
    "noisefig": _run_noisefig,
    "frontend": _run_frontend,
    "match": _run_match,
    "array": _run_array,
}


def _from_rows(names: tuple, rows: list) -> dict:
    """Report columns from the rows of a runner that computes one row at a
    time, each row a tuple of cells in the order of ``names``. No rows
    gives empty columns, which render as the header alone."""
    return dict(zip(names, map(list, zip(*rows)))) if rows else {name: [] for name in names}


def _spec(column) -> tuple:
    """One column's %-conversion and the values it converts. Floats convert
    with %.12g after + 0.0 turns -0.0 into 0: %.12g then prints 0 and ±inf as
    fmt does. That holds for a float array, or a list of only floats, that
    holds no NaN. A list of str is its own cells; any other list, or a
    float array holding a NaN, is its fmt cells. Cells convert with %s."""
    if isinstance(column, list):
        types = set(map(type, column))
        if types == {str}:
            return "%s", column
        if types != {float} or any(map(math.isnan, column)):
            return "%s", list(map(fmt, column))
        return "%.12g", [x + 0.0 for x in column] if 0.0 in column else column  # 0.0 in: -0.0 too
    if (column != column).any():
        return "%s", list(map(fmt, column.tolist()))
    return "%.12g", (column + 0.0).tolist()


def _cells(column) -> list:
    """One column's report cells."""
    spec, values = _spec(column)
    return values if spec == "%s" else list(map(spec.__mod__, values))


def _port_cells(column, k: int) -> list:
    """A flat port column's cells, each row's k joined with ";" by one %-template."""
    spec, values = _spec(column)
    return list(map(";".join([spec] * k).__mod__, zip(*[iter(values)] * k)))


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _quoted(cells: list) -> list:
    """String cells as CSV writes them (RFC 4180): a cell that holds a comma,
    a quote or a line break goes in double quotes, with inner quotes doubled.
    One search over the joined column tells whether any cell does."""
    if not _needs_quotes("".join(cells)):
        return cells
    return ['"' + cell.replace('"', '""') + '"' if _needs_quotes(cell) else cell for cell in cells]


def render_report(columns: dict, fmt_kind: str, title: str) -> str:
    """Render report columns (name -> list of values or float array) as CSV
    or structured text; both carry identical fields. Each report has one
    %-template that renders every row."""
    names = list(columns)
    specs, values = zip(*map(_spec, columns.values()))
    if fmt_kind == "csv":  # float cells never need quoting; %s cells may hold strings
        values = [_quoted(column) if spec == "%s" else column for spec, column in zip(specs, values)]
        row = ",".join(specs) + "\n"
        return ",".join(names) + "\n" + "".join(map(row.__mod__, zip(*values)))
    row = "row %d:\n" + "".join(f"  {name.replace('%', '%%')}: {spec}\n" for name, spec in zip(names, specs))
    return f"report: {title}\n" + "".join(map(row.__mod__, zip(count(1), *values)))


def _write_text(out_path, payload: str) -> None:
    if out_path is None:
        sys.stdout.write(payload)
        return
    with open(out_path, "w", newline="") as handle:
        handle.write(payload)


_USAGE = ("usage: rxfront [-h] {" + ",".join(SUBCOMMANDS) + "} --scenario SCENARIO [--out OUT]"
          " [--format {csv,text}] [--dump-normalized] [--jobs JOBS]\n")
_HELP = _USAGE + """
Receiver front-end termination and noise analysis: run one subcommand's
analysis for a scenario file.

options:
  -h, --help           show this help message and exit
  --scenario SCENARIO  path to a scenario JSON file
  --out OUT            output file (default: stdout)
  --format {csv,text}  report format (default: csv)
  --dump-normalized    print the normalized scenario instead of running
  --jobs JOBS          accepted for compatibility (must be >= 1); has no effect

Exit codes: 0 success, 1 validation, 2 parse, 3 numerical/singular, 4 I/O.
"""
# Option -> its key in the parsed arguments. Before the subcommand only help is known.
_OPTIONS = {"-h": "help", "--help": "help", "--scenario": "scenario", "--out": "out",
            "--format": "format", "--dump-normalized": "dump_normalized", "--jobs": "jobs"}
_TOP_OPTIONS = {"-h": "help", "--help": "help"}
_FLAGS = {"help": "-h/--help", "dump_normalized": "--dump-normalized"}  # the options that take no value


def _refuse(message: str):
    """Exit 2 with the usage line and an error line on stderr, as argparse does."""
    sys.stderr.write(f"{_USAGE}rxfront: error: {message}\n")
    raise SystemExit(2)


def _read_argv(argv: list) -> dict:
    """The subcommand and options of a command line, read as argparse read
    them: options in any order, ``--opt=value``, a unique prefix of a long
    option, the last of a repeated option wins. -h/--help prints the help
    and exits 0; a malformed line exits 2 with argparse's message. Unknown
    options and extra words are reported after the required ones are."""
    args = {"command": None, "scenario": None, "out": None, "format": "csv", "dump_normalized": False, "jobs": 1}
    unknown = []
    rest = iter(argv)
    for arg in rest:
        if not arg.startswith("-") or arg in ("-", "--"):  # a word; "--" ends no options here
            if args["command"] is not None:
                unknown.append(arg)
            elif arg in SUBCOMMANDS:
                args["command"] = arg
            else:
                choices = ", ".join(map(repr, SUBCOMMANDS))
                _refuse(f"argument command: invalid choice: {arg!r} (choose from {choices})")
            continue
        name, attached, value = arg.partition("=")
        known = _OPTIONS if args["command"] else _TOP_OPTIONS
        matches = [name] if name in known else [o for o in known if name.startswith("--") and o.startswith(name)]
        if len(matches) > 1:
            _refuse(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if not matches:
            unknown.append(arg)
            continue
        key = known[matches[0]]
        if key in _FLAGS:
            if attached:
                _refuse(f"argument {_FLAGS[key]}: ignored explicit argument {value!r}")
            if key == "help":
                sys.stdout.write(_HELP)
                raise SystemExit(0)
            args[key] = True
            continue
        if not attached:
            value = next(rest, None)
            if value is None or value.startswith("-") and value != "-":
                _refuse(f"argument {matches[0]}: expected one argument")
        if key == "format" and value not in ("csv", "text"):
            _refuse(f"argument --format: invalid choice: {value!r} (choose from 'csv', 'text')")
        if key == "jobs":
            try:
                value = int(value)
            except ValueError:
                _refuse(f"argument --jobs: invalid int value: {value!r}")
        args[key] = value
    if args["command"] is None:
        _refuse("the following arguments are required: command")
    if args["scenario"] is None:
        _refuse("the following arguments are required: --scenario")
    if unknown:
        _refuse("unrecognized arguments: " + " ".join(unknown))
    return args


def _numerical_errors() -> tuple:
    """ArithmeticError, and numpy's LinAlgError once numpy is loaded (a run
    that never loaded it cannot raise it, and need not import it to say so)."""
    numpy = sys.modules.get("numpy")
    return (ArithmeticError,) if numpy is None else (ArithmeticError, numpy.linalg.LinAlgError)


# When numpy loads, OpenBLAS starts one worker thread per CPU, and each worker
# spins waiting for work that the matrices of a CLI call (order 24 or less in
# the shipped scenarios) never give it: about 100 ms of CPU per call on a
# 2-CPU host. OpenBLAS (pthreads and OpenMP builds) and MKL read
# OMP_NUM_THREADS when their own variable is unset.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    gc_enabled = gc.isenabled()
    gc.disable()  # the scenario tree and the report columns hold no reference cycles
    # BLAS reads its thread count once, when numpy loads, so the setting is
    # undone on return; a loaded numpy and a thread count the user set are kept
    one_blas_thread = "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREAD_VARIABLES)
    if one_blas_thread:
        os.environ["OMP_NUM_THREADS"] = "1"
    try:
        return _main(argv)
    finally:
        if one_blas_thread:
            os.environ.pop("OMP_NUM_THREADS", None)
        if gc_enabled:
            gc.enable()


def _main(argv) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    command, out = args["command"], args["out"]
    try:
        if args["jobs"] < 1:
            raise ParseError("--jobs must be >= 1")
        scenario = parse_scenario(args["scenario"])
        if scenario.kind != command:
            raise ParseError(
                f"scenario {scenario.name!r} carries a {scenario.kind!r} section, "
                f"not {command!r}"
            )
        if args["dump_normalized"]:
            _write_text(out, json.dumps(scenario.data, indent=2, sort_keys=True) + "\n")
            return 0
        columns, ok = _RUNNERS[command](scenario)
        title = f"{scenario.name} {command}"
        _write_text(out, render_report(columns, args["format"], title))
        if not ok:
            print(f"{command}: validation failed", file=sys.stderr)
            return 1
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _numerical_errors() as exc:
        if type(exc) is OverflowError and len(exc.args) == 2:  # float ** gives (errno, message)
            exc = _ARITHMETIC_MESSAGES[OverflowError]
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
    except MemoryError:  # a size within the limits that this host still cannot hold
        print("parse error: scenario too large for available memory", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry point of `rxfront` and `python -m rxfront.cli`: run
    main() on sys.argv and exit with its code.

    The process ends without the interpreter's teardown, which clears every
    module and runs full garbage collections over every tracked object (even
    with the collector disabled): about 3-6 ms a call. As the interpreter
    would, it runs the atexit hooks and then flushes stdout and stderr; then
    os._exit ends it. The CLI starts no thread that teardown would wait for.
    A flush that fails (a closed pipe, a full disk) falls back to
    SystemExit, so the interpreter reports it and sets the exit code as it
    always has; gc.freeze() keeps the heap out of the collections that
    fallback still runs.
    """
    code = main()
    gc.freeze()
    atexit._run_exitfuncs()
    try:
        _flush()
    except (OSError, ValueError):  # ValueError: a stream closed under us
        raise SystemExit(code)
    os._exit(code)


def _flush() -> None:
    """Flush stdout and stderr; either is None in a process started without it."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


if __name__ == "__main__":
    run()
