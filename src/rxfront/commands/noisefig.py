"""``noisefig``: Friis gain, output SNR and noise factor of one amplifier
stage over a sweep of its input resistance."""

from __future__ import annotations

import math

from ..scenario import (
    REQUIRED,
    Scenario,
    _as_complex,
    _cx,
    _from_rows,
    _list_of,
    _num,
    _obj,
    _or_inf,
    _to_float,
)

_NOISEFIG = {
    "v_s_volts": (_cx, REQUIRED), "r_s_ohms": (_num, REQUIRED), "temp_kelvin": (_num, REQUIRED),
    "amp": (_obj({
        "gain": (_num, REQUIRED), "n_na_v2_per_hz": (_num, REQUIRED),
        "r_out_ohms": (_num, REQUIRED),
    }), REQUIRED),
    "r_l_sweep_ohms": (_list_of(_or_inf(_num)), REQUIRED),
}
FIELDS = {"noisefig": (_obj(_NOISEFIG), REQUIRED)}
FLAGS = ("output_snr", "noise_factor", "noise_figure_db")  # inf: no noise, a noiseless source


def build(scenario: Scenario):
    from .. import noisefig

    section = scenario.data["noisefig"]
    gen = noisefig.SignalGenerator(
        _as_complex(section["v_s_volts"]), section["r_s_ohms"], section["temp_kelvin"]
    )
    ampd = section["amp"]
    stages = [noisefig.VoltageAmplifierStage(ampd["gain"], ampd["n_na_v2_per_hz"], _to_float(r_l), ampd["r_out_ohms"])
              for r_l in section["r_l_sweep_ohms"]]
    return gen, stages


def solve(model):
    from .. import noisefig

    gen, stages = model

    def row(amp) -> tuple:
        r_l = amp.r_load_in
        return ("inf" if math.isinf(r_l) else r_l, noisefig.friis_gain(gen, amp), noisefig.output_snr_friis(gen, amp),
                *noisefig._factor_and_figure(gen, amp), "")

    rows = [row(amp) for amp in stages]
    names = ("r_l_ohms", "friis_gain", "output_snr", "noise_factor", "noise_figure_db", "annotations")
    return _from_rows(names, rows), True
