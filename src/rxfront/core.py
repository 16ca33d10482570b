"""Shared numeric types, errors, Thevenin construction, the divider SNR, and
the closed forms' float filter with its exact fallback (``filtered``).

Nothing here needs numpy but ``FrequencyGrid.as_array`` and ``solve_circuit``
(the one solve of ``mna`` and ``frontend``), which import it when called. The
matrix-stack half of the package (``ImpedanceMatrixSeries``, the validators
and the CSV loader) is ``rxfront.impedance``; its names still resolve here,
importing that module on first use (PEP 562), so a call that never touches a
matrix stack never compiles or loads it.
"""

from __future__ import annotations

import math
from functools import wraps
from types import SimpleNamespace

from . import _load

BOLTZMANN = 1.380649e-23
"""Boltzmann constant in J/K (exact SI value)."""

DEFAULT_TOL = 1e-9
"""Default relative tolerance for reciprocity and passivity checks."""

TINY = 2.0**-1022
"""The smallest normal float."""

INF = math.inf

FLOATS = SimpleNamespace(k=BOLTZMANN, ln2=math.log(2.0), ln10=math.log(10.0), sqrt=math.sqrt, log1p=math.log1p)
"""The float arithmetic of the closed forms' fast path (filtered); rxfront._exact
is the exact one, with the same names."""

MAX_ARRAY_BYTES = 2**31
"""Largest array, in bytes, that an impedance CSV or a scenario size may ask for (2 GiB)."""


def stack_bytes(n_freqs: int, n_ports: int) -> int:
    """Bytes of an (F, N, N) complex128 impedance stack."""
    return n_freqs * n_ports * n_ports * 16


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ToolkitError, ValueError):
    """Input violates a structural or physical invariant."""


class ParseError(ToolkitError, ValueError):
    """Malformed scenario, netlist, or matrix file."""


class NumericalError(ToolkitError, ArithmeticError):
    """Computation failed or produced an unusable result."""


class SingularCircuitError(NumericalError):
    """Linear circuit system has no unique solution."""


class _OpenCircuitType:
    """Marker for a port left unterminated. Compare with ``is OPEN_CIRCUIT``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "OPEN_CIRCUIT"


OPEN_CIRCUIT = _OpenCircuitType()
"""Distinguished load value: no load connected, exact open-circuit formulas apply."""


class Frozen:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``_fields`` and stores them once, at the
    end of ``__init__``, with ``_store``. After that, assigning or deleting an
    attribute raises AttributeError. The repr is ``Name(field=value, ...)`` in
    field order, and ``==`` and ``hash`` compare the field tuples of two
    instances of one class. A subclass whose fields are arrays sets
    ``__eq__`` and ``__hash__`` back to object's, for identity equality.
    """

    _fields = ()

    def _store(self, *values) -> None:
        """Set the fields, in ``_fields`` order, bypassing ``__setattr__``."""
        self.__dict__.update(zip(self._fields, values))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


class ComplexImpedance(Frozen):
    """Complex impedance in ohms, split into real and imaginary parts."""

    _fields = ("re", "im")

    def __init__(self, re: float, im: float = 0.0) -> None:
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValidationError(f"impedance parts must be finite, got {re!r}, {im!r}")
        self._store(re, im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)


def as_complex(value, name: str = "value") -> complex:
    """Coerce a number or ComplexImpedance to a finite Python complex."""
    if isinstance(value, ComplexImpedance):
        return complex(value)
    try:
        z = complex(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not a complex number: {value!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"{name} must be finite, got {z!r}")
    return z


def johnson_density(temperature: float, resistance: float) -> float:
    """Two-sided thermal noise voltage density 2kTR in V^2/Hz."""
    if temperature < 0:
        raise ValidationError("temperature must be nonnegative")
    if resistance < 0:
        raise ValidationError("resistance must be nonnegative")
    return 2.0 * BOLTZMANN * temperature * resistance


class TheveninSource(Frozen):
    """Open-circuit voltage phasor in series with a passive source impedance."""

    _fields = ("v_oc", "z_series")

    def __init__(self, v_oc: complex, z_series: complex) -> None:
        v_oc = as_complex(v_oc, "v_oc")
        z_series = as_complex(z_series, "z_series")
        if z_series.real < 0:
            raise ValidationError("z_series must have nonnegative real part")
        self._store(v_oc, z_series)


class FrequencyGrid(Frozen):
    """Strictly increasing grid of analysis frequencies in Hz."""

    _fields = ("points",)

    def __init__(self, points: tuple) -> None:
        try:
            pts = tuple(float(p) for p in points)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"frequencies must be numbers: {points!r}") from exc
        if not pts:
            raise ValidationError("frequency grid must be non-empty")
        for p in pts:
            if not math.isfinite(p) or p <= 0:
                raise ValidationError(f"frequencies must be finite and positive, got {p!r}")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValidationError("frequencies must be strictly increasing")
        self._store(pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, index):
        return self.points[index]

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.points, dtype=float)


def solve_circuit(matrix, rhs, what: str) -> list:
    """Solution, as Python complex numbers, of one small linear circuit system
    given as nested lists or arrays; a singular one raises
    SingularCircuitError("<what> is singular")."""
    import numpy as np

    try:
        return np.linalg.solve(np.asarray(matrix, dtype=np.complex128), np.asarray(rhs, dtype=np.complex128)).tolist()
    except np.linalg.LinAlgError as exc:
        raise SingularCircuitError(f"{what} is singular") from exc


def filtered(formula):
    """The closed form ``formula(ar, *args)`` as a function of ``args``: a
    float fast path with an exact fallback, the one range handling of the
    closed-form reports.

    ``formula`` computes its cells in the arithmetic ``ar`` (its constants
    k, ln2 and ln10, and its sqrt and log1p) and returns (ok, cells). In
    floats (FLOATS), ok is the filter: every product and quotient formed of
    nonzero values, and every cell, is a normal float (at least TINY, and
    finite). Then each cell is within a few ulps of its exact value: a
    product or quotient of normal floats rounds once, by half an ulp; the
    sums add nonnegative terms, which cannot cancel, but for the one rounded
    sum x_s + x_l of a divider's reactances, whose error is relative to that
    sum; and sqrt and log1p are within an ulp. A subnormal or zero product
    would have lost digits, and an inf one all of them. A cell that is 0, or
    the flag inf (an SNR without noise), passes only where an input makes
    it so.

    Where the filter fails, or a float operation raises OverflowError or
    ZeroDivisionError, the call returns ``exact(formula, *args)``. The
    function keeps the formula as its ``formula``, for formulas built on it.
    """
    @wraps(formula)
    def call(*args):
        try:
            ok, cells = formula(FLOATS, *args)
        except (OverflowError, ZeroDivisionError):
            ok = False
        return cells if ok else exact(formula, *args)

    del call.__wrapped__  # its signature is that of args, not of the formula
    call.formula = formula
    return call


def exact(formula, *args):
    """The cells of ``formula(ar, *args)`` (see filtered) computed from the
    exact rationals of the float inputs, and each rounded once: NaN beyond
    the largest float, never inf, which is a flag. rxfront._exact, and
    fractions with it, load on the first call."""
    return _load(f"{__package__}._exact").cells(formula, args)


def divider_snr(s, r_s, x_s, g2, n_na, kt, source: bool, load: bool):
    """The amplifier-output SNR of a source (open-circuit signal density s in
    V^2/Hz, impedance r_s + j x_s) behind a load r_l + j x_l, at an amplifier
    of power gain g2 = g^2 and output noise n_na, with kt = 2kT, as a
    function of the load: the one SNR formula of link, match and noisefig,
    in the arithmetic of its arguments (floats, or Fractions; see filtered).
    With d2 = |z_s + z_l|^2, w2 = |z_l|^2 / d2 and u2 = |z_s|^2 / d2 (1 and
    0 for an open load, r_l = inf),

        SNR = g2 w2 s / (n_na + g2 kt (r_s w2 [source] + r_l u2 [load]))

    where ``source`` and ``load``, fixed by each caller, say which
    resistances are Johnson noise sources. snr_of(r_l, x_l) gives
    (ok, w2, SNR, d2), ok being the filter of what it formed. The SNR
    without noise is inf; a short (z_l = 0) has w2 = 0 and SNR 0.
    """
    b2, r_n = r_s * r_s + x_s * x_s, r_s if source else 0
    fixed = TINY <= g2 and TINY <= kt and TINY <= b2 and TINY <= s < INF

    def snr_of(r_l, x_l) -> tuple:
        if r_l == INF:  # an open input
            w2, d2, johnson, ok = 1, INF, r_n, fixed
        else:
            d2 = (r_s + r_l) ** 2 + (x_s + x_l) ** 2
            if not (r_l or x_l):  # a short: no signal, and no noise but n_na
                return TINY <= d2, 0.0, 0.0 if n_na else INF, d2
            a2, r_m = r_l * r_l + x_l * x_l, r_l if load else 0
            w2, u2 = a2 / d2, b2 / d2
            johnson = r_n * w2 + r_m * u2
            ok = (fixed and TINY <= d2 and TINY <= a2 and TINY <= w2 and (not r_n or TINY <= r_n * w2)
                  and (not r_m or TINY <= u2 and TINY <= r_m * u2) and (TINY <= johnson or not (r_n or r_m)))
        t, s1 = kt * johnson, g2 * w2
        noise, signal = n_na + g2 * t, s1 * s
        snr = signal / noise if noise else INF
        return (ok and TINY <= s1 and TINY <= signal and (TINY <= snr < INF or not noise)
                and (not johnson or TINY <= t and TINY <= g2 * t)), w2, snr, d2

    return snr_of


def thevenin_from_link(z_rt, i_t, z_r) -> TheveninSource:
    """Thevenin equivalent of a driven link: v_oc = z_rt * i_t, series z_r."""
    v_oc = as_complex(z_rt, "z_rt") * as_complex(i_t, "i_t")
    return TheveninSource(v_oc, as_complex(z_r, "z_r"))


def _undecodable(path, exc: UnicodeDecodeError, line: int) -> ParseError:
    """ParseError naming the file and the 1-based line of the first byte that
    does not decode; ``line`` is the line on which ``exc.object``, the bytes
    the decoder was given, begins."""
    line += exc.object.count(b"\n", 0, exc.start)
    return ParseError(f"{path}: line {line}: byte {exc.object[exc.start]:#04x} is not valid {exc.encoding}")


def read_text(path) -> str:
    """The whole text of a file; a byte that does not decode is a ParseError."""
    with open(path) as handle:
        try:
            return handle.read()  # one decode of every byte
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc, 1) from exc


_IMPEDANCE_NAMES = frozenset({
    "CSV_HEADER", "MIRROR_TOL", "ImpedanceMatrixSeries", "ValidationReport", "load_impedance_csv",
    "validate_passivity", "validate_reciprocity",
})


def __getattr__(name: str):
    if name not in _IMPEDANCE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(f"{__package__}.impedance"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
