"""Shared numeric types, impedance-matrix validation, and Thevenin construction.

The scalar types need no numpy. The matrix-stack code (``ImpedanceMatrixSeries``,
the validators and the CSV loader) imports it where it runs, so a closed-form
call never loads it.
"""

from __future__ import annotations

import math
import warnings

BOLTZMANN = 1.380649e-23
"""Boltzmann constant in J/K (exact SI value)."""

DEFAULT_TOL = 1e-9
"""Default relative tolerance for reciprocity and passivity checks."""

CSV_HEADER = ("freq_hz", "row", "col", "re_ohms", "im_ohms")

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

    def omega(self) -> np.ndarray:
        """Angular frequencies 2*pi*f in rad/s."""
        return 2.0 * math.pi * self.as_array()


class ImpedanceMatrixSeries(Frozen):
    """One square complex impedance matrix per grid frequency.

    ``dims = (m, k)`` partitions the ports into m transmit ports followed by
    k receive ports; the matrix order is m + k at every frequency.
    """

    _fields = ("grid", "matrices", "dims")

    def __init__(self, grid: FrequencyGrid, matrices: np.ndarray, dims: tuple = None) -> None:
        import numpy as np

        mats = np.array(matrices, dtype=np.complex128, copy=True)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValidationError(f"matrices must have shape (F, N, N), got {mats.shape}")
        if mats.shape[0] != len(grid):
            raise ValidationError(
                f"got {mats.shape[0]} matrices for {len(grid)} grid frequencies"
            )
        if not np.all(np.isfinite(mats.view(float))):
            raise ValidationError("impedance matrices must be finite")
        n = mats.shape[1]
        if dims is None:
            dims = (0, n)
        m, k = int(dims[0]), int(dims[1])
        if m < 0 or k < 0 or m + k != n:
            raise ValidationError(f"partition dims {dims!r} do not sum to matrix order {n}")
        mats.setflags(write=False)
        self._store(grid, mats, (m, k))

    @property
    def n_ports(self) -> int:
        return self.matrices.shape[1]

    @property
    def z_t(self) -> np.ndarray:
        """(F, M, M) transmit block."""
        m = self.dims[0]
        return self.matrices[:, :m, :m]

    @property
    def z_tr(self) -> np.ndarray:
        """(F, M, K) transmit-from-receive block."""
        m = self.dims[0]
        return self.matrices[:, :m, m:]

    @property
    def z_rt(self) -> np.ndarray:
        """(F, K, M) receive-from-transmit block."""
        m = self.dims[0]
        return self.matrices[:, m:, :m]

    @property
    def z_r(self) -> np.ndarray:
        """(F, K, K) receive block."""
        m = self.dims[0]
        return self.matrices[:, m:, m:]


class ValidationReport(Frozen):
    """Outcome of a per-frequency matrix check."""

    _fields = ("check", "passed", "tol", "deviations", "worst_index")

    def __init__(self, check: str, passed: bool, tol: float, deviations: tuple, worst_index: int) -> None:
        self._store(check, passed, tol, deviations, worst_index)

    @property
    def worst_deviation(self) -> float:
        return self.deviations[self.worst_index]


def validate_reciprocity(zms: ImpedanceMatrixSeries, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check Z = Z^T (non-conjugate symmetry) at every frequency.

    Per frequency the deviation is max |Z[i,j] - Z[j,i]| divided by the
    largest entry magnitude; the check passes iff every deviation <= tol.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    import numpy as np

    mats = zms.matrices
    scale = np.abs(mats).max(axis=(1, 2))
    return _report("reciprocity", tol, np.abs(mats - mats.swapaxes(1, 2)).max(axis=(1, 2)), scale)


def validate_passivity(zms: ImpedanceMatrixSeries, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check that the symmetrized real part of Z is PSD at every frequency.

    Per frequency the deviation is max(0, -min_eig) / max |eig| of
    (Re Z + Re Z^T) / 2; the check passes iff every deviation <= tol.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    import numpy as np

    real = zms.matrices.real
    sym = (real + real.swapaxes(1, 2)) / 2.0
    try:
        eigs = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        index = next(i for i, mat in enumerate(sym) if not _eigvalsh_converges(mat))
        raise NumericalError(f"eigenvalue solve failed at frequency index {index}") from exc
    lowest = -eigs[:, 0]
    return _report("passivity", tol, np.where(lowest > 0.0, lowest, 0.0), np.abs(eigs).max(axis=1))


def _eigvalsh_converges(mat: np.ndarray) -> bool:
    import numpy as np

    try:
        np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def _report(check: str, tol: float, excess: np.ndarray, scale: np.ndarray) -> ValidationReport:
    """Per-frequency deviation excess / scale, and 0 where the scale is 0."""
    import numpy as np

    with np.errstate(invalid="ignore"):  # inf / inf is nan, as in scalar float division
        deviations = np.divide(excess, scale, out=np.zeros_like(excess), where=scale != 0.0)
    worst = int(np.argmax(deviations))
    passed = bool(deviations[worst] <= tol)
    return ValidationReport(check, passed, tol, tuple(deviations.tolist()), worst)


def thevenin_from_link(z_rt, i_t, z_r) -> TheveninSource:
    """Thevenin equivalent of a driven link: v_oc = z_rt * i_t, series z_r."""
    v_oc = as_complex(z_rt, "z_rt") * as_complex(i_t, "i_t")
    return TheveninSource(v_oc, as_complex(z_r, "z_r"))


_CSV_DTYPE = [("freq", "f8"), ("row", "i8"), ("col", "i8"), ("re", "f8"), ("im", "f8")]  # a numpy dtype spec


def _parse_csv_row(lineno: int, row: list) -> tuple:
    if len(row) != 5:
        raise ParseError(f"line {lineno}: expected 5 columns, got {len(row)}")
    try:
        freq = float(row[0])
        r = int(row[1])
        c = int(row[2])
        value = complex(float(row[3]), float(row[4]))
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    if not math.isfinite(freq) or freq <= 0:
        raise ParseError(f"line {lineno}: freq_hz must be finite and positive")
    if r < 0 or c < 0:
        raise ParseError(f"line {lineno}: row/col indices must be nonnegative")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(f"line {lineno}: impedance entries must be finite")
    return freq, r, c, value


def _read_fast(handle):
    """Body columns from one numpy read, or None where the line-by-line rules must decide."""
    import numpy as np

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            body = np.loadtxt(handle, dtype=_CSV_DTYPE, delimiter=",", quotechar='"',
                              comments=None, ndmin=1)
    except ValueError:  # also UnicodeDecodeError, which the line walk raises again
        return None
    freq, rows, cols = body["freq"], body["row"], body["col"]
    values = np.empty(len(body), dtype=np.complex128)
    values.real, values.imag = body["re"], body["im"]  # exact, signed zeros included
    if not (len(body) and np.all(np.isfinite(freq) & (freq > 0)) and np.all((rows >= 0) & (cols >= 0))
            and np.all(np.isfinite(values.view(float)))):
        return None
    return freq, rows, cols, values, 1 + int(max(rows.max(), cols.max()))


def _read_lines(reader):
    """Body columns from the per-line walk; raises the line-numbered ParseError."""
    import numpy as np

    parsed = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        parsed.append(_parse_csv_row(lineno, row))
    if not parsed:
        return None
    freq, rows, cols, values = zip(*parsed)
    return np.array(freq), rows, cols, np.array(values, dtype=np.complex128), 1 + max(max(rows), max(cols))


def load_impedance_csv(path, dims: tuple = None, mirror_tol: float = 1e-12) -> ImpedanceMatrixSeries:
    """Load an impedance-matrix series from sparse CSV.

    Format: header ``freq_hz,row,col,re_ohms,im_ohms``, one row per nonzero
    entry per frequency, 0-based indices. Missing entries are zero. A
    symmetric entry may be listed once (it is mirrored) or twice (the two
    listings must agree to ``mirror_tol`` relative), and a repeated listing
    of one cell must agree with the listing before it; the last one wins.
    """
    import csv

    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            if tuple(col.strip().lower() for col in header) != CSV_HEADER:
                raise ParseError(f"{path}: expected header {','.join(CSV_HEADER)}")
            columns = _read_fast(handle)
            if columns is None:  # numpy is stricter than the per-line rules: let them decide
                handle.seek(0)
                reader = csv.reader(handle)
                next(reader)
                columns = _read_lines(reader)
        except csv.Error as exc:  # a cell over the csv module's field size limit, say
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
    if columns is None:
        raise ParseError(f"{path}: no data rows")
    grid, mats = _assemble(*columns, mirror_tol, path)
    return ImpedanceMatrixSeries(FrequencyGrid(tuple(grid.tolist())), mats, dims)


def _assemble(freqs, rows, cols, values, n: int, tol: float, path) -> tuple:
    """Sorted grid and (F, n, n) stack from sparse listings.

    A repeated listing must agree with the one before it, and the last one
    wins; a cell listed once is mirrored; a cell listed both ways must agree.
    Conflicts are named in the order the line-by-line loader found them:
    repeats in file order first, then mirror pairs by frequency and first listing.
    """
    import numpy as np

    grid, fi = np.unique(freqs, return_inverse=True)
    if stack_bytes(len(grid), n) > MAX_ARRAY_BYTES:  # checked before anything is allocated
        raise ParseError(
            f"{path}: {len(grid)} frequencies x {n} ports exceed the {MAX_ARRAY_BYTES}-byte matrix limit"
        )
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)

    def conflict(listing):
        r, c = rows[listing], cols[listing]
        raise ParseError(f"{path}: conflicting entries for ({r},{c})/({c},{r}) at freq {freqs[listing]:g}")

    key = (fi * n + rows) * n + cols
    order = np.argsort(key, kind="stable")
    key, values = key[order], values[order]
    new_cell = np.insert(key[1:] != key[:-1], 0, True)
    repeat = np.flatnonzero(~new_cell)
    bad = repeat[_conflicts(values[repeat - 1], values[repeat], tol)]
    if len(bad):
        conflict(order[bad].min())
    first_listing = order[new_cell]
    last = np.append(new_cell[1:], True)  # the last listing of each cell wins
    key, values = key[last], values[last]
    mats = np.zeros((len(grid), n, n), dtype=np.complex128)
    flat = mats.reshape(-1)
    flat[key] = values
    cell_fi, rc = np.divmod(key, n * n)
    r, c = np.divmod(rc, n)
    mirror = (cell_fi * n + c) * n + r
    at = np.minimum(np.searchsorted(key, mirror), len(key) - 1)
    listed = key[at] == mirror
    single = (r != c) & ~listed
    flat[mirror[single]] = values[single]
    pair = np.flatnonzero((r != c) & listed)
    bad = pair[_conflicts(values[at[pair]], values[pair], tol)]
    if len(bad):
        conflict(first_listing[bad[np.lexsort((first_listing[bad], cell_fi[bad]))[0]]])
    return grid, mats


def _conflicts(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    import numpy as np

    return np.abs(a - b) > tol * np.maximum(np.abs(a), np.abs(b))
