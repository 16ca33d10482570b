"""Dimensionless AWGN channel utilities: capacity, its wideband bound, and Eb/N0.

All quantities here are deliberately unitless. Power, bandwidth, and noise
density are abstract channel parameters; attaching physical units is a
presentation concern handled elsewhere.
"""

from __future__ import annotations

import math

from .core import Frozen, ValidationError

LN2 = math.log(2.0)
_TINY = 2.0**-1022  # the smallest normal float


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


def _normal_snr(spec: AwgnChannelSpec):
    """P/(B*N0) where it and B*N0 are normal floats, or P is 0; else None."""
    noise = spec.bandwidth * spec.noise_density
    snr = spec.power / noise if _TINY <= noise < math.inf else 0.0
    return snr if _TINY <= snr < math.inf or spec.power == 0 else None


def _split_snr(spec: AwgnChannelSpec) -> tuple:
    """P/(B*N0) = m * 2**e, m in (1/2, 4), from the three exponents: neither
    B*N0 nor the quotient is formed, so neither can leave the float range."""
    (m_p, e_p), (m_b, e_b), (m_n, e_n) = map(math.frexp, (spec.power, spec.bandwidth, spec.noise_density))
    return m_p / (m_b * m_n), e_p - e_b - e_n


def capacity(spec: AwgnChannelSpec) -> float:
    """Capacity B*log2(1 + P/(B*N0)) in bits per unit time, also where B*N0
    or the quotient is not a normal float."""
    snr = _normal_snr(spec)
    if snr is not None:
        # log1p keeps the wideband tail accurate and monotone where snr ~ eps
        return spec.bandwidth * math.log1p(snr) / LN2
    m, e = _split_snr(spec)
    if e > 1000:  # log2(1 + snr) = log2(snr) + log2(1 + 1/snr), and 1/snr < 2**-1000
        return spec.bandwidth * (math.log2(m) + e)
    if e < -1000:  # log2(1 + snr) = snr (1 - snr/2 + ...) / ln 2: the wideband limit
        return spec.power / spec.noise_density / LN2
    return spec.bandwidth * math.log1p(math.ldexp(m, e)) / LN2


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
    if _normal_snr(spec) is not None:
        return spec.power / (capacity(spec) * spec.noise_density)
    m, e = _split_snr(spec)  # Eb/N0 = snr / log2(1 + snr), as in capacity
    if e > 1000:  # OverflowError where Eb/N0 itself is outside the float range
        return math.ldexp(m / (math.log2(m) + e), e)
    if e < -1000:
        return LN2
    snr = math.ldexp(m, e)
    return snr * LN2 / math.log1p(snr)
