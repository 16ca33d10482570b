"""Single transmit/receive pair: extracted power, voltage division, output SNR.

The load termination is either a finite complex impedance or the
distinguished ``OPEN_CIRCUIT`` marker, which selects exact open-circuit
formulas instead of a large-impedance approximation. All spectral densities
are two-sided; thermal noise of a resistance R is 2kTR, not 4kTR.

Each formula takes one load and computes in Python floats and complex
numbers, so a bad load raises what Python arithmetic raises: OverflowError
for a square that overflows, ZeroDivisionError for a division by an
|z_series + z|^2 that underflowed to 0. No call imports numpy.

``optimize_load`` finds the exact SNR-optimal load in a box of passive
loads from its corners and the stationary points along its edges.
"""

from __future__ import annotations

import math

from .core import (
    BOLTZMANN,
    OPEN_CIRCUIT,
    ComplexImpedance,
    Frozen,
    NumericalError,
    SingularCircuitError,
    TheveninSource,
    ValidationError,
    as_complex,
    johnson_density,
)


class SingleLink(Frozen):
    """Receiver self-impedance z_r, transfer impedance z_rt, and transmit
    current density s_it (two-sided, A^2/Hz)."""

    _fields = ("z_r", "z_rt", "s_it")

    def __init__(self, z_r: complex, z_rt: complex, s_it: float) -> None:
        z_r = as_complex(z_r, "z_r")
        z_rt = as_complex(z_rt, "z_rt")
        if z_r.real < 0:
            raise ValidationError("z_r must have nonnegative real part")
        if not math.isfinite(s_it) or s_it < 0:
            raise ValidationError("s_it must be finite and nonnegative")
        self._store(z_r, z_rt, s_it)


class AmplifierNoiseModel(Frozen):
    """Voltage gain g, output-referred noise density n_na (two-sided, V^2/Hz),
    and environment temperature in kelvin."""

    _fields = ("gain", "n_na", "temperature")

    def __init__(self, gain: float, n_na: float, temperature: float) -> None:
        if not math.isfinite(gain) or gain <= 0:
            raise ValidationError("gain must be finite and positive")
        if not math.isfinite(n_na) or n_na < 0:
            raise ValidationError("n_na must be finite and nonnegative")
        if not math.isfinite(temperature) or temperature <= 0:
            raise ValidationError("temperature must be finite and positive")
        self._store(gain, n_na, temperature)


class SearchBox(Frozen):
    """Passive loads searched for the best SNR: Re in [0, r_max] and Im in
    [-x_max, x_max], optionally with the open-circuit candidate."""

    _fields = ("r_max", "x_max", "include_open")

    def __init__(self, r_max: float, x_max: float, include_open: bool = True) -> None:
        if not (math.isfinite(r_max) and math.isfinite(x_max)):
            raise ValidationError("search bounds must be finite")
        if r_max < 0 or x_max < 0:
            raise ValidationError("search bounds must be nonnegative")
        self._store(r_max, x_max, include_open)


def _signal_voc_density(link: SingleLink) -> float:
    """Open-circuit signal voltage density |z_rt|^2 * s_it in V^2/Hz."""
    return (link.z_rt.real**2 + link.z_rt.imag**2) * link.s_it


_SOURCE, _RECEIVER = ("z_series", "z_in"), ("z_r", "z_l")  # how the errors name the two impedances


def _divider(z_series: complex, z: complex, names: tuple = _RECEIVER, passive: bool = True) -> tuple:
    """z_series + z and |z_series + z|^2 for one finite load z.

    The checks come in the order the one-load formulas meet them: a negative
    Re z (ValidationError), z_series + z = 0 (SingularCircuitError), and a
    square that overflows (OverflowError, which Python's ** raises itself).
    divided_voltage takes any finite load and needs no |z_series + z|^2: with
    passive false only the divider is checked, and the square is None.
    """
    if passive and z.real < 0.0:
        raise ValidationError(f"{names[1]} must have nonnegative real part")
    den = z_series + z
    if den == 0:
        raise SingularCircuitError(f"{names[0]} + {names[1]} = 0: divider is singular")
    return den, (den.real**2 + den.imag**2 if passive else None)


def _voltage(v_oc: complex, z: complex, den: complex) -> complex:
    """Load-node voltage v_oc * z / den, den = z_series + z from _divider."""
    return v_oc * z / den


def _power(v2: float, re: float, d2: float) -> float:
    """Power |v_oc|^2 Re z / (2 |z_series + z|^2) into a load of real part re;
    d2 = 0 (an underflow) raises ZeroDivisionError, as Python floats do."""
    return v2 * re / (2.0 * d2)


def extracted_power(source: TheveninSource, z_in) -> float:
    """Average power delivered into z_in, in watts; OPEN_CIRCUIT yields 0."""
    if z_in is OPEN_CIRCUIT:
        return 0.0
    z = as_complex(z_in, "z_in")
    _, d2 = _divider(source.z_series, z, _SOURCE)
    return _power(source.v_oc.real**2 + source.v_oc.imag**2, z.real, d2)


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
    den, _ = _divider(source.z_series, z, _SOURCE, passive=False)
    return _voltage(source.v_oc, z, den)


def _snr_of(link: SingleLink, amp: AmplifierNoiseModel):
    """output_snr's formula for one link and amplifier, as a function of a
    finite passive load z and d2 = |z_r + z|^2 from _divider.

    A square that overflows raises OverflowError and d2 = 0 (an underflow)
    ZeroDivisionError, as Python floats do; zero total noise gives inf.
    """
    g2 = amp.gain * amp.gain
    s_voc = _signal_voc_density(link)
    abs2_r = link.z_r.real**2 + link.z_r.imag**2
    n_na, two_kt = amp.n_na, 2.0 * BOLTZMANN * amp.temperature  # two_kt * R is johnson_density

    def snr(z: complex, d2: float) -> float:
        w2 = (z.real**2 + z.imag**2) / d2
        noise = n_na + g2 * (abs2_r / d2) * (two_kt * z.real)
        return math.inf if noise == 0 else g2 * w2 * s_voc / noise

    return snr


def output_snr(link: SingleLink, amp: AmplifierNoiseModel, z_l) -> float:
    """Amplifier-output SNR for load z_l; exact open-circuit path for OPEN_CIRCUIT.

    Signal and the load's Johnson noise both pass through the divider formed
    with z_r; amplifier noise n_na adds at the output. Zero total noise gives
    math.inf (flagged result), not an exception.
    """
    if z_l is OPEN_CIRCUIT:
        g2, s_voc = amp.gain * amp.gain, _signal_voc_density(link)
        return math.inf if amp.n_na == 0 else g2 * s_voc / amp.n_na
    z = as_complex(z_l, "z_l")
    snr = _snr_of(link, amp)
    _, d2 = _divider(link.z_r, z)
    return snr(z, d2)


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
    snr_of, best = _snr_of(link, amp), None
    for z in _candidates(link, amp, search):
        try:
            snr = snr_of(z, _divider(z_r, z)[1])
        except ArithmeticError:  # singular, or a square overflowed, or |z_r + z|^2 underflowed
            continue
        key = z.real * z.real + z.imag * z.imag
        if snr == snr and (best is None or (snr, key) > best[:2]):  # NaN scores are dropped
            best = snr, key, z
    best_finite = None if best is None else (ComplexImpedance(best[2].real, best[2].imag), best[0])
    if search.include_open:
        snr_oc = output_snr(link, amp, OPEN_CIRCUIT)
        if best_finite is None or snr_oc >= best_finite[1]:
            return OPEN_CIRCUIT, snr_oc
    if best_finite is None:
        raise NumericalError("every candidate load is singular or overflows")
    return best_finite


def _square(x: float) -> float:
    """x**2, inf where Python raises OverflowError."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _candidates(link: SingleLink, amp: AmplifierNoiseModel, search: SearchBox):
    """The box's corners (each twice), then the SNR's stationary points on
    its edges: R = 0 and R = r_max along t = X, X = -x_max and X = x_max
    along t = R. On each edge N = t^2 + foot^2 and D / n_na = t^2 + q1 t +
    q0. Arithmetic is IEEE, as in numpy: with n_na = 0, kappa = c / n_na is
    inf, and only the corners and the R = 0 edge's roots survive; R = 0
    loads then score inf."""
    r, x = search.r_max, search.x_max
    re_r, im_r = link.z_r.real, link.z_r.imag
    abs2 = _square(re_r) + _square(im_r)
    c = 2.0 * BOLTZMANN * amp.temperature * amp.gain * amp.gain * abs2
    kappa = c / amp.n_na if amp.n_na else (math.copysign(math.inf, amp.n_na) if c > 0 else math.nan)
    edges = (  # (holds Re fixed, foot: the coordinate it holds, lo, hi, q1, q0)
        (True, 0.0, -x, x, 2.0 * im_r, abs2),
        (True, r, -x, x, 2.0 * im_r, _square(re_r + r) + _square(im_r) + kappa * r),
        (False, -x, 0.0, r, 2.0 * re_r + kappa, _square(re_r) + _square(im_r - x)),
        (False, x, 0.0, r, 2.0 * re_r + kappa, _square(re_r) + _square(im_r + x)),
    )
    roots = [_stationary_points(foot * foot, q1, q0) for _, foot, _, _, q1, q0 in edges]
    for ts in ([e[2] for e in edges], [e[3] for e in edges], *zip(*roots)):
        for (fixed_re, foot, lo, hi, _, _), t in zip(edges, ts):
            if lo <= t <= hi:
                yield complex(foot, t) if fixed_re else complex(t, foot)


def _stationary_points(p0: float, q1: float, q0: float) -> tuple:
    """Both roots of d/dt (t^2 + p0) / (t^2 + q1 t + q0), NaN where none
    exists (a negative discriminant, a = 0 or q = 0), by the stable quadratic
    formula. On the edge R = 0 (p0 = 0, q1 = 2 X_r, q0 = |z_r|^2) they are 0
    and exactly -|z_r|^2 / X_r."""
    a, b, c = q1, 2.0 * (q0 - p0), -p0 * q1
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + math.copysign(math.sqrt(disc) if disc >= 0.0 else math.nan, b))
    return q / a if a else math.nan, c / q if q else math.nan
