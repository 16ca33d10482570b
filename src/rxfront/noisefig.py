"""Friis noise-factor calculus for a voltage amplifier driven by a resistive source.

The amplifier input load resistor may be the distinguished value ``math.inf``;
infinite-load formulas are dedicated exact paths, never a large-number limit.
A zero source resistance is accepted as the noiseless-source limit and makes
the available signal power, input SNR, and noise factor flagged infinities.
"""

from __future__ import annotations

import math

from .core import BOLTZMANN, Frozen, ValidationError, as_complex


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


def friis_gain(gen: SignalGenerator, amp: VoltageAmplifierStage) -> float:
    """Available-power gain (g^2 r_s / r_out) * (r_l / (r_s + r_l))^2."""
    g2 = amp.gain * amp.gain
    if math.isinf(amp.r_load_in):
        return g2 * gen.r_s / amp.r_out
    w = amp.r_load_in / (gen.r_s + amp.r_load_in)
    return g2 * gen.r_s / amp.r_out * w * w


def output_snr_friis(gen: SignalGenerator, amp: VoltageAmplifierStage) -> float:
    """Amplifier-output SNR; independent of r_out by construction.

    The loaded input divider scales the signal by r_l/(r_s + r_l) and the
    thermal noise source is the parallel resistance r_s*r_l/(r_s + r_l).
    """
    g2 = amp.gain * amp.gain
    v2 = _v2(gen)
    two_kt = 2.0 * BOLTZMANN * gen.temperature
    if math.isinf(amp.r_load_in):
        den = two_kt * gen.r_s * g2 + amp.n_na
        if den == 0:
            return math.inf
        return g2 * v2 / den
    w = amp.r_load_in / (gen.r_s + amp.r_load_in)
    r_par = gen.r_s * w  # r_s*r_l/(r_s + r_l) without the product r_s*r_l, which can overflow or underflow
    den = two_kt * g2 * r_par + amp.n_na
    if den == 0:
        return math.inf
    return g2 * v2 * w * w / den


def noise_factor(gen: SignalGenerator, amp: VoltageAmplifierStage) -> float:
    """Noise factor F = input SNR / output SNR; always >= 1, independent of r_out."""
    g2 = amp.gain * amp.gain
    two_kt = 2.0 * BOLTZMANN * gen.temperature
    if math.isinf(amp.r_load_in):
        if amp.n_na == 0:
            return 1.0
        if gen.r_s == 0:
            return math.inf
        return 1.0 + amp.n_na / (two_kt * gen.r_s * g2)
    base = (gen.r_s + amp.r_load_in) / amp.r_load_in
    if amp.n_na == 0:
        return base
    if gen.r_s == 0:
        return math.inf
    spread = 1.0 / gen.r_s + 1.0 / amp.r_load_in  # (r_s + r_l)/(r_s*r_l), again without r_s*r_l
    return base * (1.0 + amp.n_na / (two_kt * g2) * spread)


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
    two_kt = 2.0 * BOLTZMANN * temperature
    g2 = amp.gain * amp.gain
    return amp.r_load_in * math.sqrt(amp.n_na / (two_kt * amp.r_load_in * g2 + amp.n_na))
