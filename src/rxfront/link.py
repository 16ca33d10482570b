"""Single transmit/receive pair: extracted power, voltage division, output SNR.

The load termination is either a finite complex impedance or the
distinguished ``OPEN_CIRCUIT`` marker, which selects exact open-circuit
formulas instead of a large-impedance approximation. All spectral densities
are two-sided; thermal noise of a resistance R is 2kTR, not 4kTR.

``divided_voltage``, ``extracted_power`` and ``output_snr`` also take an
array of finite loads and return an array. Each element has the bits the
one-load call gives: squares use the C library's ``pow``, as Python's
``x**2`` does, and complex division is spelled out as CPython performs it.
A bad load raises the error the one-load call raises, for the first bad
load in load order; the error's ``index`` is that load's position in the
flattened array.

``optimize_load`` finds the exact SNR-optimal load in a box of passive
loads from its corners and the stationary points along its edges.
"""

from __future__ import annotations

import errno
import math
from dataclasses import dataclass

import numpy as np

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
class SearchBox:
    """Passive loads searched for the best SNR: Re in [0, r_max] and Im in
    [-x_max, x_max], optionally with the open-circuit candidate."""

    r_max: float
    x_max: float
    include_open: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_max) and math.isfinite(self.x_max)):
            raise ValidationError("search bounds must be finite")
        if self.r_max < 0 or self.x_max < 0:
            raise ValidationError("search bounds must be nonnegative")


def _signal_voc_density(link: SingleLink) -> float:
    """Open-circuit signal voltage density |z_rt|^2 * s_it in V^2/Hz."""
    return (link.z_rt.real**2 + link.z_rt.imag**2) * link.s_it


def _loads(z_in, name: str) -> tuple:
    """(loads as complex128, whether one scalar load came in)."""
    if np.ndim(z_in) == 0:
        return np.complex128(as_complex(z_in, name)), True
    z = np.asarray(z_in, dtype=np.complex128)
    if not np.isfinite(z).all():
        raise ValidationError(f"{name} must be finite")
    return z, False


def _square(x) -> tuple:
    """x**2 as Python floats compute it, with the C library's pow (which can
    differ from x*x in the last bit), and where it overflowed from a finite
    x, which Python raises."""
    sq = np.float_power(x, 2.0)
    return sq, np.isinf(sq) & np.isfinite(x)


def _denominator(z_series: complex, re, im) -> tuple:
    """|z_series + z|^2 for the loads re + j*im (float arrays that broadcast),
    where z_series + z = 0 (singular), and where a square overflowed."""
    den_re, den_im = z_series.real + re, z_series.imag + im
    (re2, over_re), (im2, over_im) = _square(den_re), _square(den_im)
    return re2 + im2, (den_re == 0.0) & (den_im == 0.0), over_re | over_im


def _quotient(a_re, a_im, b_re, b_im) -> tuple:
    """Real and imaginary parts of a / b (b nonzero) as CPython divides
    complex numbers: Smith's method, scaling by the larger of |b.real| and
    |b.imag|. numpy's own complex division can differ in the last bit."""
    by_re = np.abs(b_re) >= np.abs(b_im)
    ratio = np.where(by_re, b_im / b_re, b_re / b_im)
    denom = np.where(by_re, b_re + b_im * ratio, b_re * ratio + b_im)
    re = np.where(by_re, a_re + a_im * ratio, a_re * ratio + a_im) / denom
    im = np.where(by_re, a_im - a_re * ratio, a_im * ratio - a_re) / denom
    return re, im


def _first_failure(*checks) -> None:
    """Raise the error of the first load, in load order, that fails a check.

    Checks are (mask, error) pairs in the order the formula meets them for
    one load, so a load that fails two raises the earlier one.
    """
    hits = [(int(np.argmax(mask)), rank) for rank, (mask, _) in enumerate(checks) if np.any(mask)]
    if hits:
        index, rank = min(hits)
        error = checks[rank][1]
        error.index = index
        raise error


def _float_errors(over, d2) -> tuple:
    """The checks Python float arithmetic makes itself: a square that
    overflows, and a division by |z_series + z|^2 = 0 (an underflow)."""
    return (
        (over, OverflowError(errno.ERANGE, "Numerical result out of range")),
        (d2 == 0.0, ZeroDivisionError("float division by zero")),
    )


def extracted_power(source: TheveninSource, z_in):
    """Average power delivered into z_in, in watts; OPEN_CIRCUIT yields 0.

    z_in may be an array of loads; see the module docstring.
    """
    if z_in is OPEN_CIRCUIT:
        return 0.0
    z, scalar = _loads(z_in, "z_in")
    with np.errstate(all="ignore"):
        d2, singular, over = _denominator(source.z_series, z.real, z.imag)
        _first_failure(
            (z.real < 0.0, ValidationError("z_in must have nonnegative real part")),
            (singular, SingularCircuitError("z_series + z_in = 0: divider is singular")),
            *_float_errors(over, d2),
        )
        v2 = source.v_oc.real**2 + source.v_oc.imag**2
        power = v2 * z.real / (2.0 * d2)
    return float(power) if scalar else power


def max_available_power(source: TheveninSource) -> float:
    """Conjugate-match power |v_oc|^2 / (8 Re z_series), in watts."""
    if source.z_series.real <= 0:
        raise NumericalError("available power is unbounded for a lossless source")
    v2 = source.v_oc.real**2 + source.v_oc.imag**2
    return v2 / (8.0 * source.z_series.real)


def divided_voltage(source: TheveninSource, z_in):
    """Load-node voltage v_oc * z_in / (z_series + z_in); OPEN_CIRCUIT yields v_oc.

    z_in may be an array of loads; see the module docstring.
    """
    if z_in is OPEN_CIRCUIT:
        return source.v_oc
    z, scalar = _loads(z_in, "z_in")
    v, zs = source.v_oc, source.z_series
    den_re, den_im = zs.real + z.real, zs.imag + z.imag
    _first_failure(
        ((den_re == 0.0) & (den_im == 0.0), SingularCircuitError("z_series + z_in = 0: divider is singular")),
    )
    with np.errstate(all="ignore"):
        re, im = _quotient(v.real * z.real - v.imag * z.imag, v.real * z.imag + v.imag * z.real,
                           den_re, den_im)
    if scalar:
        return complex(re, im)
    out = np.empty(z.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _snr(link: SingleLink, amp: AmplifierNoiseModel, re, im) -> tuple:
    """Output SNR of the loads re + j*im (float arrays that broadcast), each
    element with the bits of the one-load formula; zero total noise gives inf.

    Also returns |z_r + z_l|^2, where z_r + z_l = 0, and where a square
    overflowed. The caller decides what a bad load means.
    """
    g2 = amp.gain * amp.gain
    s_voc = _signal_voc_density(link)
    d2, singular, over = _denominator(link.z_r, re, im)
    (re2, over_re), (im2, over_im) = _square(re), _square(im)
    w2 = (re2 + im2) / d2
    u2 = (link.z_r.real**2 + link.z_r.imag**2) / d2
    noise = amp.n_na + g2 * u2 * (2.0 * BOLTZMANN * amp.temperature * re)  # 2kTR as johnson_density
    snr = np.where(noise == 0.0, np.inf, g2 * w2 * s_voc / noise)
    return snr, d2, singular, over | over_re | over_im


def output_snr(link: SingleLink, amp: AmplifierNoiseModel, z_l):
    """Amplifier-output SNR for load z_l; exact open-circuit path for OPEN_CIRCUIT.

    Signal and the load's Johnson noise both pass through the divider formed
    with z_r; amplifier noise n_na adds at the output. Zero total noise gives
    math.inf (flagged result), not an exception. z_l may be an array of
    loads; see the module docstring.
    """
    if z_l is OPEN_CIRCUIT:
        g2, s_voc = amp.gain * amp.gain, _signal_voc_density(link)
        return math.inf if amp.n_na == 0 else g2 * s_voc / amp.n_na
    z, scalar = _loads(z_l, "z_l")
    with np.errstate(all="ignore"):
        snr, d2, singular, over = _snr(link, amp, z.real, z.imag)
    _first_failure(
        (z.real < 0.0, ValidationError("z_l must have nonnegative real part")),
        (singular, SingularCircuitError("z_r + z_l = 0: divider is singular")),
        *_float_errors(over, d2),
    )
    return float(snr) if scalar else snr


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


def optimize_load(link: SingleLink, amp: AmplifierNoiseModel, search: SearchBox) -> tuple:
    """Exact SNR maximization over the search box plus OPEN_CIRCUIT.

    Returns (load, snr) where load is a ComplexImpedance or OPEN_CIRCUIT.
    With c = 2kT g^2 |z_r|^2 the SNR is proportional to N / D, N = |z_l|^2
    and D = n_na |z_r + z_l|^2 + c R. At a stationary point with R > 0 the
    Hessian of N - SNR * D is 2 (1 - SNR n_na) I: a minimum if SNR < 1/n_na,
    and at R < 0 if SNR > 1/n_na. So the maximum is at a corner of the box or
    at a stationary point of an edge. Candidates are scored by output_snr's
    formula, dropping singular and overflowing ones; ties go to the larger
    |z_l|, then the earlier candidate, then OPEN_CIRCUIT. A lossless z_r whose
    resonance -j X_r lies in the box has unbounded SNR: NumericalError.
    """
    z_r = link.z_r
    if z_r.real == 0.0 and z_r.imag != 0.0 and abs(z_r.imag) <= search.x_max and amp.n_na > 0:
        raise NumericalError(f"output SNR is unbounded toward the lossless resonance z_l = {-z_r.imag!r}j")
    re, im = _candidates(link, amp, search)
    with np.errstate(all="ignore"):
        snr, d2, _, over = _snr(link, amp, re, im)
    keep = (d2 != 0.0) & ~over & ~np.isnan(snr)
    best_finite = None
    if keep.any():
        snr, re, im = snr[keep], re[keep], im[keep]
        ties = np.flatnonzero(snr == snr.max())
        k = ties[np.argmax(re[ties] ** 2 + im[ties] ** 2)]
        best_finite = (ComplexImpedance(float(re[k]), float(im[k])), float(snr[k]))
    if search.include_open:
        snr_oc = output_snr(link, amp, OPEN_CIRCUIT)
        if best_finite is None or snr_oc >= best_finite[1]:
            return OPEN_CIRCUIT, snr_oc
    if best_finite is None:
        raise NumericalError("every candidate load is singular or overflows")
    return best_finite


def _candidates(link: SingleLink, amp: AmplifierNoiseModel, search: SearchBox) -> tuple:
    """Re and Im of the box's corners (each twice) and the SNR's stationary
    points on its edges: R = 0 and R = r_max along t = X, X = -x_max and
    X = x_max along t = R. On each edge N = t^2 + foot^2 and D / n_na =
    t^2 + q1 t + q0. With n_na = 0, kappa = c / n_na is inf, and only the
    corners and the R = 0 edge's roots survive; R = 0 loads then score inf."""
    r, x = search.r_max, search.x_max
    re_r, im_r = np.float64(link.z_r.real), np.float64(link.z_r.imag)
    fixed_re = np.array([True, True, False, False])
    foot = np.array([0.0, r, -x, x])  # the coordinate each edge holds fixed
    lo, hi = np.array([-x, -x, 0.0, 0.0]), np.array([x, x, r, r])
    with np.errstate(all="ignore"):
        abs2 = re_r**2 + im_r**2
        kappa = 2.0 * BOLTZMANN * amp.temperature * amp.gain * amp.gain * abs2 / amp.n_na
        q1 = np.array([2.0 * im_r, 2.0 * im_r, 2.0 * re_r + kappa, 2.0 * re_r + kappa])
        q0 = np.array([abs2, (re_r + r) ** 2 + im_r**2 + kappa * r,
                       re_r**2 + (im_r - x) ** 2, re_r**2 + (im_r + x) ** 2])
        t = np.stack([lo, hi, *_stationary_points(foot**2, q1, q0)])
    on_edge = (lo <= t) & (t <= hi)
    return np.where(fixed_re, foot, t)[on_edge], np.where(fixed_re, t, foot)[on_edge]


def _stationary_points(p0, q1, q0) -> tuple:
    """Both roots of d/dt (t^2 + p0) / (t^2 + q1 t + q0), NaN or inf where
    none exists, by the stable quadratic formula. On the edge R = 0 (p0 = 0,
    q1 = 2 X_r, q0 = |z_r|^2) they are 0 and exactly -|z_r|^2 / X_r."""
    a, b, c = q1, 2.0 * (q0 - p0), -p0 * q1
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    return q / a, c / q
