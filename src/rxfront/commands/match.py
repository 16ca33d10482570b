"""``match``: output SNR through an ideal transformer, over a sweep of turns
ratios around the optimum."""

from __future__ import annotations

import math
from functools import partial

from ..core import MAX_ARRAY_BYTES, TINY, ValidationError
from ..scenario import (
    _AMPLIFIER,
    _LINK_FIELDS,
    REQUIRED,
    Scenario,
    _as_complex,
    _bool,
    _count,
    _from_rows,
    _num,
    _obj,
    fmt,
)

# Bytes the sweep's count is charged per entry, against MAX_ARRAY_BYTES.
_REPORT_ROW_BYTES = 1024  # one report row as Python objects and text (about 330 B measured)

_MATCH = {
    "link": (_obj(_LINK_FIELDS), REQUIRED),
    "amp_input_resistance_ohms": (_num, REQUIRED),
    "cancel_reactance": (_bool, True),
    "ratio_sweep": (_obj({
        "count": (partial(_count, maximum=MAX_ARRAY_BYTES // _REPORT_ROW_BYTES), 51),
        "span_decades": (_num, 2.0),
    }), {}),
}
FIELDS = {"match": (_obj(_MATCH), REQUIRED), "amplifier": (_obj(_AMPLIFIER), REQUIRED)}
FLAGS = ("snr",)  # inf: an SNR without noise


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


def build(scenario: Scenario):
    from .. import link as link_mod
    from .. import matching

    section = scenario.data["match"]
    ampd = scenario.data["amplifier"]
    linkd = section["link"]
    lnk = link_mod.SingleLink(
        _as_complex(linkd["z_r_ohms"]), _as_complex(linkd["z_rt_ohms"]), linkd["s_it_a2_per_hz"]
    )
    amp = link_mod.AmplifierNoiseModel(ampd["gain"], ampd["n_na_v2_per_hz"], ampd["temp_kelvin"])
    r_in = section["amp_input_resistance_ohms"]
    if lnk.z_r.real <= 0:
        raise ValidationError("match requires Re(z_r) > 0")
    best = matching.optimal_turns_ratio(r_in, lnk.z_r.real)
    if not TINY <= best < math.inf:  # NaN: beyond the largest float
        raise ValidationError(
            f"the optimal turns ratio sqrt(match.amp_input_resistance_ohms / Re match.link.z_r_ohms) = "
            f"sqrt({fmt(r_in)} / {fmt(lnk.z_r.real)}) is outside the normal floats"
        )
    sweep = section["ratio_sweep"]
    span = sweep["span_decades"]
    exponents = _linspace(-span / 2.0, span / 2.0, sweep["count"])
    ratios = [_scaled(best, exponent) for exponent in exponents]
    for end in ratios[:1] + ratios[-1:]:  # monotone in the exponent: the ends bound the rest
        if not TINY <= end < math.inf:
            raise ValidationError(
                f"match.ratio_sweep.span_decades {fmt(span)} takes the turns ratio from "
                f"its optimum {fmt(best)} to {fmt(end)}"
            )
    return lnk, amp, r_in, section["cancel_reactance"], exponents, ratios


def solve(model):
    from .. import matching

    lnk, amp, r_in, cancel, exponents, ratios = model
    rows = [(ratio, matching.snr_with_transformer(lnk, r_in, amp, matching.TransformerMatch(ratio, cancel)),
             "at_optimal" if e == 0 else "") for e, ratio in zip(exponents, ratios)]
    return _from_rows(("turns_ratio", "snr", "annotations"), rows), True


def _scaled(ratio: float, exponent: float) -> float:
    """ratio * 10**exponent, inf where the power overflows."""
    try:
        return ratio * 10.0**exponent
    except OverflowError:
        return math.inf
