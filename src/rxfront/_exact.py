"""The exact arithmetic of the closed forms (``core.filtered``), loaded only
where a float filter fails.

``cells`` runs a closed form's formula on the exact rationals of its float
inputs, with this module as its arithmetic, and rounds each cell once. The
cells are rational in the inputs but for a square root (``divider_mag``, the
turns ratio), which ``sqrt`` rounds correctly, and ln(1 + q) (capacity,
Eb/N0, the noise figure), which ``log1p`` takes to about 1e-17 relative,
as it does ln 2 and ln 10. k is Boltzmann's exact SI value.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from types import SimpleNamespace

from .core import Frozen

k = Fraction("1.380649e-23")
ln2 = Fraction("0.693147180559945309417232121458176568075500134360")


def _quotient(num: int, den: int) -> float:
    """num / den rounded once (int true division rounds correctly), NaN
    beyond the largest float."""
    try:
        return num / den
    except OverflowError:
        return math.nan


def sqrt(x) -> float:
    """The square root of a rational x >= 0, rounded once: the integer root
    of x 4^n, where n >= 1080 resolves the subnormal floats and the root has
    at least 59 bits, with a sticky half where that root is inexact."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    n = max(1080, (den.bit_length() - num.bit_length()) // 2 + 60)
    scaled, rest = divmod(num << 2 * n, den)
    root = math.isqrt(scaled)
    if rest or root * root != scaled:
        return _quotient(2 * root + 1, 1 << n + 1)
    return _quotient(root, 1 << n)


def log1p(q) -> Fraction:
    """ln(1 + q) for a rational q >= 0, to about 1e-17 relative, in three
    regimes: below 2^-30 the series q - q^2/2, whose next term is q^3/3; below
    1 math.log1p of the nearest float, which is normal there; and from 1,
    where 1 + q may exceed the floats, ln m + e ln 2 for 1 + q = m 2^e, e >= 1
    and m in (1/2, 2) rounded once."""
    q = Fraction(q)
    if q < Fraction(1, 2**30):
        return q - q * q / 2
    if q < 1:
        return Fraction(math.log1p(float(q)))
    num, den = q.numerator + q.denominator, q.denominator
    e = num.bit_length() - den.bit_length()
    return Fraction(math.log(num / (den << e))) + e * ln2


ln10 = log1p(9)


def value(x):
    """x with its floats exact: a finite float as a Fraction, a complex
    number and a value object as namespaces of their parts' values."""
    if type(x) is float:
        return Fraction(x) if math.isfinite(x) else x
    if type(x) is complex:
        return SimpleNamespace(real=Fraction(x.real), imag=Fraction(x.imag))
    if isinstance(x, Frozen):
        return SimpleNamespace(**{name: value(getattr(x, name)) for name in x._fields})
    return x


def _rounded(cell) -> float:
    return _quotient(cell.numerator, cell.denominator) if isinstance(cell, (Fraction, int)) else cell


def cells(formula, args) -> tuple:
    """The cells of formula(this module, *args) on the exact values of args,
    each rounded once."""
    got = formula(sys.modules[__name__], *map(value, args))[1]
    return tuple(map(_rounded, got)) if type(got) is tuple else _rounded(got)
