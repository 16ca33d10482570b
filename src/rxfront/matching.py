"""Ideal-transformer matching between an antenna and a high-impedance amplifier.

The transformer is lossless: it scales the open-circuit voltage by the turns
ratio n and the source impedance by n^2, optionally after cancelling the
source reactance with an ideal series element at the analysis frequency.

Noise model: the reflected source resistance is the thermal source at the
amplifier's environment temperature, and its Johnson noise reaches the
amplifier through the same divider as the signal. The amplifier input
resistor is treated as noiseless (its contribution is part of n_na). With a
noiseless amplifier the output SNR is then independent of the turns ratio,
and with amplifier noise present the SNR peaks exactly at the square root of
the impedance ratio.
"""

from __future__ import annotations

import math

from .core import INF, TINY, Frozen, TheveninSource, ValidationError, divider_snr, filtered
from .link import AmplifierNoiseModel, SingleLink, _signal


class TransformerMatch(Frozen):
    """Secondary-to-primary turns ratio, plus optional exact reactance
    cancellation ahead of the transformer."""

    _fields = ("turns_ratio", "cancel_reactance")

    def __init__(self, turns_ratio: float, cancel_reactance: bool = False) -> None:
        if not math.isfinite(turns_ratio) or turns_ratio <= 0:
            raise ValidationError("turns_ratio must be finite and positive")
        self._store(turns_ratio, cancel_reactance)


@filtered
def optimal_turns_ratio(ar, r_in: float, re_z_r: float):
    """Turns ratio sqrt(r_in / re_z_r) that presents r_in as re_z_r to the
    source; NaN beyond the largest float (core.filtered)."""
    if not math.isfinite(r_in) or r_in <= 0:
        raise ValidationError("r_in must be finite and positive")
    if not math.isfinite(re_z_r) or re_z_r <= 0:
        raise ValidationError("re_z_r must be finite and positive")
    ratio = r_in / re_z_r
    return TINY <= ratio < INF, ar.sqrt(ratio)


def reflected_source(source: TheveninSource, xf: TransformerMatch) -> TheveninSource:
    """Secondary-side Thevenin equivalent: (n * v_oc, n^2 * z_series).

    With cancel_reactance set, the series impedance is reduced to its real
    part before reflection.
    """
    n = xf.turns_ratio
    z = complex(source.z_series.real, 0.0) if xf.cancel_reactance else source.z_series
    return TheveninSource(n * source.v_oc, (n * n) * z)


@filtered
def snr_with_transformer(
    ar,
    link: SingleLink,
    amp_input_resistance: float,
    amp: AmplifierNoiseModel,
    xf: TransformerMatch,
):
    """Amplifier-output SNR with the transformer between antenna and
    amplifier: inf without noise, NaN where it leaves the float range.

    The reflected source (n^2 s_voc, n^2 z_r) drives the input resistance
    r_in, and only the reflected antenna resistance is a noise source
    (core.divider_snr).
    """
    if not math.isfinite(amp_input_resistance) or amp_input_resistance <= 0:
        raise ValidationError("amp_input_resistance must be finite and positive")
    n2 = xf.turns_ratio * xf.turns_ratio
    abs2, s_voc = _signal(link)
    r_s, x_s = n2 * link.z_r.real, 0 if xf.cancel_reactance else n2 * link.z_r.imag
    ok, _, snr, _ = divider_snr(n2 * s_voc, r_s, x_s, amp.gain * amp.gain, amp.n_na, 2 * ar.k * amp.temperature,
                                True, False)(amp_input_resistance, 0)
    return ok and TINY <= min(n2, abs2, s_voc, r_s), snr
