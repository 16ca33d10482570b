"""Dimensionless AWGN channel utilities: capacity, its wideband bound, and Eb/N0.

All quantities here are deliberately unitless. Power, bandwidth, and noise
density are abstract channel parameters; attaching physical units is a
presentation concern handled elsewhere.
"""

from __future__ import annotations

import math

from .core import Frozen, ValidationError

LN2 = math.log(2.0)


class AwgnChannelSpec(Frozen):
    """Band-limited AWGN channel: average power P, bandwidth B, noise density N0."""

    _fields = ("power", "bandwidth", "noise_density")

    def __init__(self, power: float, bandwidth: float, noise_density: float) -> None:
        for name, value in zip(self._fields, (power, bandwidth, noise_density)):
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if power < 0:
            raise ValidationError("power must be nonnegative")
        if bandwidth <= 0:
            raise ValidationError("bandwidth must be positive")
        if noise_density <= 0:
            raise ValidationError("noise_density must be positive")
        self._store(power, bandwidth, noise_density)


def capacity(spec: AwgnChannelSpec) -> float:
    """Capacity B*log2(1 + P/(B*N0)) in bits per unit time."""
    snr = spec.power / (spec.bandwidth * spec.noise_density)
    # log1p keeps the wideband tail accurate and monotone where snr ~ eps
    return spec.bandwidth * math.log1p(snr) / LN2


def capacity_bound(power: float, noise_density: float) -> float:
    """Infinite-bandwidth capacity P/(N0*ln 2); upper bound for every finite B."""
    if power < 0:
        raise ValidationError("power must be nonnegative")
    if noise_density <= 0:
        raise ValidationError("noise_density must be positive")
    return power / (noise_density * LN2)


def eb_n0(spec: AwgnChannelSpec) -> float:
    """Energy per bit over noise density, (P/C)/N0; exceeds ln 2 for finite B."""
    if spec.power == 0:
        raise ValidationError("Eb/N0 is undefined at zero power")
    return spec.power / (capacity(spec) * spec.noise_density)
