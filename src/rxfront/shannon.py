"""Dimensionless AWGN channel utilities: capacity, its wideband bound, and Eb/N0.

All quantities here are deliberately unitless. Power, bandwidth, and noise
density are abstract channel parameters; attaching physical units is a
presentation concern handled elsewhere.
"""

from __future__ import annotations

import math

from .core import INF, TINY, Frozen, ValidationError, filtered


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


@filtered
def capacity(ar, spec: AwgnChannelSpec):
    """Capacity B*log2(1 + P/(B*N0)) in bits per unit time; log1p keeps the
    wideband tail accurate and monotone where P/(B*N0) ~ eps."""
    if spec.power == 0:
        return True, 0.0
    noise = spec.bandwidth * spec.noise_density
    snr = spec.power / noise
    nats = spec.bandwidth * ar.log1p(snr)
    bits = nats / ar.ln2
    return TINY <= min(noise, snr, nats, bits) and bits < INF, bits


_capacity = capacity.formula  # which eb_n0 builds on


@filtered
def capacity_bound(ar, power: float, noise_density: float):
    """Infinite-bandwidth capacity P/(N0*ln 2); upper bound for every finite B."""
    if power < 0:
        raise ValidationError("power must be nonnegative")
    if noise_density <= 0:
        raise ValidationError("noise_density must be positive")
    scale = noise_density * ar.ln2
    bound = power / scale
    return TINY <= min(scale, bound) and bound < INF, bound


@filtered
def eb_n0(ar, spec: AwgnChannelSpec):
    """Energy per bit over noise density, (P/C)/N0; exceeds ln 2 for finite B."""
    if spec.power == 0:
        raise ValidationError("Eb/N0 is undefined at zero power")
    ok, bits = _capacity(ar, spec)
    per_bit = bits * spec.noise_density
    ratio = spec.power / per_bit
    return ok and TINY <= per_bit and TINY <= ratio < INF, ratio
