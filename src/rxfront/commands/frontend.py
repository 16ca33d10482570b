"""``frontend``: op-amp receiver front ends at each open-loop gain, or a
netlist's node voltages and source currents."""

from __future__ import annotations

import math

from ..core import read_text
from ..scenario import (
    OPTIONAL,
    REQUIRED,
    Scenario,
    _as_complex,
    _cx,
    _from_rows,
    _list_of,
    _num,
    _obj,
    _one_of,
    _or_inf,
    _str,
    _to_float,
    _walk,
)

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


FIELDS = {"frontend": (_frontend, REQUIRED)}
FLAGS = ()


def _optional_cx(canon):
    return None if canon == "inf" else _as_complex(canon)


def build(scenario: Scenario):
    section = scenario.data["frontend"]
    if "netlist" in section:
        from .. import mna

        return mna.parse_netlist(read_text(scenario.base_dir / section["netlist"]))

    from .. import frontend

    source_d = section["source"]
    source = frontend.TheveninSource(
        _as_complex(source_d["v_oc_volts"]), _as_complex(source_d["z_r_ohms"])
    )
    opamp_d = section["opamp"]
    z_id = _optional_cx(opamp_d["z_id_ohms"])
    z_cm = _optional_cx(opamp_d["z_cm_ohms"])
    gains = section.get("gain_sweep", [_to_float(opamp_d["open_loop_gain"])])
    amps = [frontend.OpAmpModel(a, z_id, z_cm, opamp_d["r_out_ohms"]) for a in gains]
    cc = section.get("constant_current")
    stage = None if cc is None else (_as_complex(cc["v_c_volts"]), _to_float(cc["r_c_ohms"]))
    return source, section["topologies"], amps, stage


def solve(model):
    if not isinstance(model, tuple):  # a netlist
        from .. import mna

        solution = mna.mna_solve(model)
        rows = []
        for node in sorted(solution.node_voltages):
            value = solution.node_voltages[node]
            rows.append(("node", str(node), value.real, value.imag))
        for el in solution.netlist.elements:
            if el.kind in ("V", "E"):
                value = solution.branch_currents[el.name]
                rows.append(("branch", el.name, value.real, value.imag))
        return _from_rows(("kind", "name", "value_re", "value_im"), rows), True

    from .. import frontend

    source, topologies, amps, stage = model

    def row(topo: str, amp) -> tuple:
        if topo == "buffer":
            sol = frontend.solve_buffer(source, amp)
        elif topo == "inside_out":
            sol = frontend.solve_inside_out(source, amp)
        else:
            sol = frontend.solve_constant_current(source, amp, *stage)
        a, z_eff = amp.open_loop_gain, sol.z_effective
        return (
            topo, "inf" if math.isinf(a) else a, sol.v_out.real, sol.v_out.imag, sol.i_source.real,
            sol.i_source.imag, "inf" if z_eff is None else z_eff.real, "inf" if z_eff is None else z_eff.imag,
            sol.p_extracted,
        )

    rows = [row(topo, amp) for topo in topologies for amp in amps]
    names = (
        "topology", "open_loop_gain", "v_out_re", "v_out_im", "i_source_re",
        "i_source_im", "z_eff_re_ohms", "z_eff_im_ohms", "p_extracted_w",
    )
    return _from_rows(names, rows), True
