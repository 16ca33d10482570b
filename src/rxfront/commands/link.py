"""``link``: divided voltage, extracted power and output SNR of one receive
link for each load, and the best load in a search box."""

from __future__ import annotations

import math
from functools import cache

from ..core import OPEN_CIRCUIT, SingularCircuitError, ToolkitError, ValidationError
from ..scenario import (
    _AMPLIFIER,
    _LINK_FIELDS,
    OPTIONAL,
    REQUIRED,
    Scenario,
    _as_complex,
    _bool,
    _cx,
    _from_rows,
    _list_of,
    _num,
    _obj,
    _one_of,
    _str,
    _walk,
    fmt,
)

_LOAD = {
    "kind": (_one_of("open_circuit", "conjugate_match", "explicit"), REQUIRED),
    "label": (_str, OPTIONAL),
}
_EXPLICIT_LOAD = {**_LOAD, "z_l_ohms": (_cx, REQUIRED)}


def _load(value):
    """One link load. A normalized explicit load (kind, label and z_l_ohms,
    whose re and im are finite floats, and no other key), nearly every load
    of a long sweep, is already what the table walk returns, and is returned
    as it is. Every other load takes the walk, which alone builds error
    messages."""
    if type(value) is dict and value.get("kind") == "explicit" and len(value) == 3:
        z = value.get("z_l_ohms")
        if type(value.get("label")) is str and type(z) is dict and len(z) == 2:
            re, im = z.get("re"), z.get("im")
            if type(re) is type(im) is float and math.isfinite(re) and math.isfinite(im):
                return value
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
FIELDS = {"link": (_obj(_LINK), REQUIRED), "amplifier": (_obj(_AMPLIFIER), REQUIRED)}
FLAGS = ("z_l_re_ohms", "z_l_im_ohms", "snr")  # inf: an open circuit's load, an SNR without noise

_LOAD_MESSAGES = {  # the message of one bad load's error, in the scenario's field names
    ValidationError: "z_l_ohms must have nonnegative real part",
    SingularCircuitError: "z_r_ohms + z_l_ohms = 0: divider is singular",
}


def build(scenario: Scenario):
    from .. import link as link_mod

    section = scenario.data["link"]
    ampd = scenario.data["amplifier"]
    lnk = link_mod.SingleLink(
        _as_complex(section["z_r_ohms"]),
        _as_complex(section["z_rt_ohms"]),
        section["s_it_a2_per_hz"],
    )
    amp = link_mod.AmplifierNoiseModel(ampd["gain"], ampd["n_na_v2_per_hz"], ampd["temp_kelvin"])
    opt = section.get("optimize")
    search = None if opt is None else link_mod.SearchBox(opt["r_max_ohms"], opt["x_max_ohms"], opt["include_open"])
    return lnk, amp, section["loads"], search


def solve(model):
    from .. import link as link_mod

    lnk, amp, loads, search = model

    @cache
    def open_cells() -> tuple:
        """An open circuit's cells after its label, for the rows that print
        them: its z_l prints inf. The ratio's formula refuses a ratio that
        is not finite, so the note formats only one that is."""
        note = ""
        if lnk.z_r.real > 0 and amp.n_na > 0:
            note = f"oc_over_match={fmt(link_mod.snr_ratio_oc_over_match(lnk, amp))}"
        return math.inf, math.inf, 1.0, 0.0, link_mod.output_snr(lnk, amp, OPEN_CIRCUIT), note

    match = lnk.z_r.conjugate()
    kernel, rows = link_mod._row_kernel(lnk, amp), []
    append = rows.append
    try:  # one pass: the first bad load raises, and it is loads[len(rows)]
        for load in loads:
            kind = load["kind"]
            if kind == "explicit":
                z = load["z_l_ohms"]
                re, im = z["re"], z["im"]
            elif kind == "open_circuit":
                append((load["label"], *open_cells()))
                continue
            else:
                re, im = match.real, match.imag
            mag, power, snr = kernel(re, im)
            append((load["label"], re, im, mag, power, snr, ""))
    except ToolkitError as exc:
        message = _LOAD_MESSAGES.get(type(exc), exc)  # the open-circuit ratio's own message
        raise type(exc)(f"load {loads[len(rows)]['label']!r}: {message}") from exc
    if search is not None:
        best, _ = link_mod.optimize_load(lnk, amp, search)
        cells = open_cells() if best is OPEN_CIRCUIT else (best.re, best.im, *kernel(best.re, best.im), "")
        rows.append(("optimal", *cells))
    names = ("label", "z_l_re_ohms", "z_l_im_ohms", "divider_mag", "extracted_power_w_per_hz", "snr", "annotations")
    return _from_rows(names, rows), True
