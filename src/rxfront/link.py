"""Single transmit/receive pair: extracted power, voltage division, output SNR.

The load termination is either a finite complex impedance or the
distinguished ``OPEN_CIRCUIT`` marker, which selects exact open-circuit
formulas instead of a large-impedance approximation. All spectral densities
are two-sided; thermal noise of a resistance R is 2kTR, not 4kTR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (
    BOLTZMANN,
    OPEN_CIRCUIT,
    ComplexImpedance,
    NumericalError,
    SingularCircuitError,
    TheveninSource,
    ValidationError,
    as_complex,
    johnson_density,
)


@dataclass(frozen=True)
class SingleLink:
    """Receiver self-impedance z_r, transfer impedance z_rt, and transmit
    current density s_it (two-sided, A^2/Hz)."""

    z_r: complex
    z_rt: complex
    s_it: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "z_r", as_complex(self.z_r, "z_r"))
        object.__setattr__(self, "z_rt", as_complex(self.z_rt, "z_rt"))
        if self.z_r.real < 0:
            raise ValidationError("z_r must have nonnegative real part")
        if not math.isfinite(self.s_it) or self.s_it < 0:
            raise ValidationError("s_it must be finite and nonnegative")


@dataclass(frozen=True)
class AmplifierNoiseModel:
    """Voltage gain g, output-referred noise density n_na (two-sided, V^2/Hz),
    and environment temperature in kelvin."""

    gain: float
    n_na: float
    temperature: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.gain) or self.gain <= 0:
            raise ValidationError("gain must be finite and positive")
        if not math.isfinite(self.n_na) or self.n_na < 0:
            raise ValidationError("n_na must be finite and nonnegative")
        if not math.isfinite(self.temperature) or self.temperature <= 0:
            raise ValidationError("temperature must be finite and positive")


@dataclass(frozen=True)
class GridSpec:
    """Load search grid: Re in [0, r_max] (n_re points), Im in [-x_max, x_max]
    (n_im points), optionally including the open-circuit candidate."""

    r_max: float
    x_max: float
    n_re: int
    n_im: int
    include_open: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_max) and math.isfinite(self.x_max)):
            raise ValidationError("grid bounds must be finite")
        if self.r_max < 0 or self.x_max < 0:
            raise ValidationError("grid bounds must be nonnegative")
        if self.n_re < 0 or self.n_im < 0:
            raise ValidationError("grid sizes must be nonnegative")


def _signal_voc_density(link: SingleLink) -> float:
    """Open-circuit signal voltage density |z_rt|^2 * s_it in V^2/Hz."""
    return (link.z_rt.real**2 + link.z_rt.imag**2) * link.s_it


def extracted_power(source: TheveninSource, z_in) -> float:
    """Average power delivered into z_in, in watts; OPEN_CIRCUIT yields 0."""
    if z_in is OPEN_CIRCUIT:
        return 0.0
    z = as_complex(z_in, "z_in")
    if z.real < 0:
        raise ValidationError("z_in must have nonnegative real part")
    den = source.z_series + z
    if den == 0:
        raise SingularCircuitError("z_series + z_in = 0: divider is singular")
    v2 = source.v_oc.real**2 + source.v_oc.imag**2
    return v2 * z.real / (2.0 * (den.real**2 + den.imag**2))


def max_available_power(source: TheveninSource) -> float:
    """Conjugate-match power |v_oc|^2 / (8 Re z_series), in watts."""
    if source.z_series.real <= 0:
        raise NumericalError("available power is unbounded for a lossless source")
    v2 = source.v_oc.real**2 + source.v_oc.imag**2
    return v2 / (8.0 * source.z_series.real)


def divided_voltage(source: TheveninSource, z_in) -> complex:
    """Load-node voltage v_oc * z_in / (z_series + z_in); OPEN_CIRCUIT yields v_oc."""
    if z_in is OPEN_CIRCUIT:
        return source.v_oc
    z = as_complex(z_in, "z_in")
    den = source.z_series + z
    if den == 0:
        raise SingularCircuitError("z_series + z_in = 0: divider is singular")
    return source.v_oc * z / den


def output_snr(link: SingleLink, amp: AmplifierNoiseModel, z_l) -> float:
    """Amplifier-output SNR for load z_l; exact open-circuit path for OPEN_CIRCUIT.

    Signal and the load's Johnson noise both pass through the divider formed
    with z_r; amplifier noise n_na adds at the output. Zero total noise gives
    math.inf (flagged result), not an exception.
    """
    g2 = amp.gain * amp.gain
    s_voc = _signal_voc_density(link)
    if z_l is OPEN_CIRCUIT:
        if amp.n_na == 0:
            return math.inf
        return g2 * s_voc / amp.n_na
    z = as_complex(z_l, "z_l")
    if z.real < 0:
        raise ValidationError("z_l must have nonnegative real part")
    den = link.z_r + z
    if den == 0:
        raise SingularCircuitError("z_r + z_l = 0: divider is singular")
    d2 = den.real**2 + den.imag**2
    w2 = (z.real**2 + z.imag**2) / d2
    u2 = (link.z_r.real**2 + link.z_r.imag**2) / d2
    noise = amp.n_na + g2 * u2 * johnson_density(amp.temperature, z.real)
    if noise == 0:
        return math.inf
    return g2 * w2 * s_voc / noise


def snr_matched(link: SingleLink, amp: AmplifierNoiseModel) -> float:
    """Output SNR under the conjugate match z_l = conj(z_r)."""
    if link.z_r.real <= 0:
        raise ValidationError("conjugate match is degenerate for Re(z_r) = 0")
    return output_snr(link, amp, link.z_r.conjugate())


def snr_ratio_oc_over_match(link: SingleLink, amp: AmplifierNoiseModel) -> float:
    """Closed-form ratio of open-circuit SNR to conjugate-matched SNR.

    Equals 4 |Re z_r / z_r|^2 plus the Johnson-to-amplifier noise ratio
    g^2 * 2kT * Re z_r / n_na.
    """
    zr = link.z_r
    if zr.real <= 0:
        raise ValidationError("ratio is degenerate for Re(z_r) = 0")
    if amp.n_na == 0:
        raise NumericalError("ratio diverges for zero amplifier noise")
    mag2 = zr.real**2 + zr.imag**2
    g2 = amp.gain * amp.gain
    return 4.0 * zr.real**2 / mag2 + g2 * johnson_density(amp.temperature, zr.real) / amp.n_na


def optimize_load(link: SingleLink, amp: AmplifierNoiseModel, search: GridSpec) -> tuple:
    """Exhaustive SNR maximization over the load grid plus OPEN_CIRCUIT.

    Returns (load, snr) where load is a ComplexImpedance or OPEN_CIRCUIT.
    Ties break toward larger |z_l|, then toward OPEN_CIRCUIT. The grid is
    scored by the batch kernel; the winner is re-evaluated with output_snr.
    """
    has_grid = search.n_re > 0 and search.n_im > 0
    if not has_grid and not search.include_open:
        raise ValidationError("search grid is empty and open circuit is excluded")
    best_finite = None
    if has_grid:
        re_vals = np.linspace(0.0, search.r_max, search.n_re)
        im_vals = np.linspace(-search.x_max, search.x_max, search.n_im)
        scores = kernels.snr_grid(
            re_vals,
            im_vals,
            link.z_r.real,
            link.z_r.imag,
            _signal_voc_density(link),
            amp.gain * amp.gain,
            amp.n_na,
            2.0 * BOLTZMANN * amp.temperature,
        )
        top = scores.max()
        if top > -math.inf:
            ii, jj = np.nonzero(scores == top)
            abs2 = re_vals[ii] ** 2 + im_vals[jj] ** 2
            pick = int(np.argmax(abs2))
            z_best = ComplexImpedance(float(re_vals[ii[pick]]), float(im_vals[jj[pick]]))
            best_finite = (z_best, output_snr(link, amp, z_best))
    if search.include_open:
        snr_oc = output_snr(link, amp, OPEN_CIRCUIT)
        if best_finite is None or snr_oc >= best_finite[1]:
            return OPEN_CIRCUIT, snr_oc
    if best_finite is None:
        raise NumericalError("every grid candidate is singular")
    return best_finite
