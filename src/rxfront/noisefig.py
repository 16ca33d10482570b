"""Friis noise-factor calculus for a voltage amplifier driven by a resistive source.

The amplifier input load resistor may be the distinguished value ``math.inf``;
infinite-load formulas are dedicated exact paths, never a large-number limit.
A zero source resistance is accepted as the noiseless-source limit and makes
the available signal power, input SNR, and noise factor flagged infinities.
"""

from __future__ import annotations

import math

from .core import BOLTZMANN, INF, TINY, Frozen, ValidationError, as_complex, divider_snr, filtered


class SignalGenerator(Frozen):
    """Ideal voltage source v_s behind a physical resistance r_s at temperature T."""

    _fields = ("v_s", "r_s", "temperature")

    def __init__(self, v_s: complex, r_s: float, temperature: float) -> None:
        v_s = as_complex(v_s, "v_s")
        if not math.isfinite(r_s) or r_s < 0:
            raise ValidationError("r_s must be finite and nonnegative")
        if not math.isfinite(temperature) or temperature <= 0:
            raise ValidationError("temperature must be finite and positive")
        self._store(v_s, r_s, temperature)


class VoltageAmplifierStage(Frozen):
    """Infinite-input-impedance voltage amplifier with an input load resistor.

    r_load_in is the resistor shunting the amplifier input (math.inf for the
    unloaded input); r_out is the output resistance; n_na is the two-sided
    output-referred noise density in V^2/Hz.
    """

    _fields = ("gain", "n_na", "r_load_in", "r_out")

    def __init__(self, gain: float, n_na: float, r_load_in: float, r_out: float) -> None:
        if not math.isfinite(gain) or gain <= 0:
            raise ValidationError("gain must be finite and positive")
        if not math.isfinite(n_na) or n_na < 0:
            raise ValidationError("n_na must be finite and nonnegative")
        if math.isnan(r_load_in) or r_load_in <= 0:
            raise ValidationError("r_load_in must be positive (math.inf allowed)")
        if not math.isfinite(r_out) or r_out <= 0:
            raise ValidationError("r_out must be finite and positive")
        self._store(gain, n_na, r_load_in, r_out)


def _v2(gen: SignalGenerator) -> float:
    return gen.v_s.real**2 + gen.v_s.imag**2


def available_signal_power(gen: SignalGenerator) -> float:
    """Available source power |v_s|^2 / (4 r_s) in watts."""
    v2 = _v2(gen)
    if gen.r_s == 0:
        return math.inf if v2 > 0 else 0.0
    return v2 / (4.0 * gen.r_s)


def available_noise_power(gen: SignalGenerator) -> float:
    """Available thermal noise density kT/2 in W/Hz, independent of r_s."""
    return BOLTZMANN * gen.temperature / 2.0


def input_snr(gen: SignalGenerator) -> float:
    """Available-power SNR at the source, |v_s|^2 / (2kT r_s)."""
    v2 = _v2(gen)
    if gen.r_s == 0:
        return math.inf if v2 > 0 else 0.0
    return v2 / (2.0 * BOLTZMANN * gen.temperature * gen.r_s)


@filtered
def friis_gain(ar, gen: SignalGenerator, amp: VoltageAmplifierStage):
    """Available-power gain (g^2 r_s / r_out) * (r_l / (r_s + r_l))^2."""
    g2, r_l = amp.gain * amp.gain, amp.r_load_in
    w = 1 if r_l == INF else r_l / (gen.r_s + r_l)
    source = g2 * gen.r_s
    per_out = source / amp.r_out
    loaded = per_out * w
    gain = loaded * w
    return TINY <= min(g2, w, source, per_out, loaded, gain) and gain < INF, gain


@filtered
def output_snr_friis(ar, gen: SignalGenerator, amp: VoltageAmplifierStage):
    """Amplifier-output SNR; independent of r_out by construction. Without
    noise it is inf; where it leaves the float range it is NaN.

    The loaded input divider scales the signal by r_l/(r_s + r_l), and both
    resistances are noise sources, r_s*r_l/(r_s + r_l) in all
    (core.divider_snr).
    """
    ok, _, snr, _ = divider_snr(_v2(gen), gen.r_s, 0, amp.gain * amp.gain, amp.n_na, 2 * ar.k * gen.temperature,
                                True, True)(amp.r_load_in, 0)
    return ok, snr


def noise_factor(gen: SignalGenerator, amp: VoltageAmplifierStage) -> float:
    """Noise factor F = input SNR / output SNR; always >= 1, independent of
    r_out. A noiseless source (r_s = 0) gives inf; an F outside the float
    range is NaN."""
    return _factor_and_figure(gen, amp)[0]


@filtered
def _factor_and_figure(ar, gen: SignalGenerator, amp: VoltageAmplifierStage):
    """The noise factor F and the noise figure 10 log10 F in dB, both from
    the excess x = F - 1 = a + b + a b, a sum of nonnegative terms: with
    F = (1 + a)(1 + b), a = r_s / r_l (0 for an open input) and
    b = r_na (1/r_s + 1/r_l), where r_na = n_na / (2kT g^2) is the input
    resistance of equal Johnson noise. The figure is 10 log1p(x) / ln 10,
    accurate also where F is near 1. A noiseless source (r_s = 0) gives
    inf and inf, or 1 and 0 without amplifier noise, as does an open input
    without it."""
    r_s, r_l, n_na = gen.r_s, amp.r_load_in, amp.n_na
    if r_s == 0 or n_na == 0 and r_l == INF:
        return True, (1.0, 0.0) if n_na == 0 else (INF, INF)
    g2, kt = amp.gain * amp.gain, 2 * ar.k * gen.temperature
    r_na = n_na / (kt * g2)
    open_input = r_l == INF
    a, conductance = (0, 1 / r_s) if open_input else (r_s / r_l, 1 / r_s + 1 / r_l)
    b = r_na * conductance
    x = a + b + a * b
    low = min(g2, kt, kt * g2, r_na, 1 / r_s, b, *(() if open_input else (a, 1 / r_l, a * b)))
    return TINY <= low and x < INF, (1 + x, 10 * ar.log1p(x) / ar.ln10)


def optimal_rs_for_noise_factor(amp: VoltageAmplifierStage, temperature: float) -> float:
    """Source resistance minimizing F at fixed finite r_load_in.

    Closed form r_l * sqrt(n_na / (2kT r_l g^2 + n_na)); the attained minimum
    F is obtained by evaluating noise_factor there, never from a transcribed
    expression.
    """
    if math.isinf(amp.r_load_in):
        raise ValidationError("optimal r_s requires a finite r_load_in")
    if not math.isfinite(temperature) or temperature <= 0:
        raise ValidationError("temperature must be finite and positive")
    if amp.n_na == 0:
        return 0.0
    return _optimal_rs(amp, temperature)


@filtered
def _optimal_rs(ar, amp: VoltageAmplifierStage, temperature: float):
    """r_l sqrt(n_na / (2kT r_l g^2 + n_na)) for n_na > 0."""
    g2, kt = amp.gain * amp.gain, 2 * ar.k * temperature
    loaded = kt * amp.r_load_in
    johnson = loaded * g2
    q = amp.n_na / (johnson + amp.n_na)
    r_s = ar.scaled_sqrt(amp.r_load_in, q)
    return TINY <= min(g2, kt, loaded, johnson, q, r_s) and r_s < INF, r_s
