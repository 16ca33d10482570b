"""Impedance-matrix stacks: the (F, N, N) series over a frequency grid, its
reciprocity and passivity checks, and the sparse impedance-CSV loader.

Only the ``validate`` and ``array`` subcommands import this module, when they
run; ``rxfront.core`` forwards its names for code that imports them from there.
"""

from __future__ import annotations

import csv
import math
import os
import stat
import warnings
from itertools import pairwise

import numpy as np

from .core import (
    DEFAULT_TOL,
    MAX_ARRAY_BYTES,
    FrequencyGrid,
    Frozen,
    NumericalError,
    ParseError,
    ValidationError,
    _undecodable,
    stack_bytes,
)

CSV_HEADER = ("freq_hz", "row", "col", "re_ohms", "im_ohms")

MIRROR_TOL = 1e-12
"""Relative tolerance to which two listings of one impedance-CSV cell, or of a
cell and its mirror, must agree."""


class ImpedanceMatrixSeries(Frozen):
    """One square complex impedance matrix per grid frequency.

    ``dims = (m, k)`` partitions the ports into m transmit ports followed by
    k receive ports; the matrix order is m + k at every frequency.
    """

    _fields = ("grid", "matrices", "dims")

    def __init__(self, grid: FrequencyGrid, matrices: np.ndarray, dims: tuple = None) -> None:
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
    mats = zms.matrices
    scale = np.abs(mats).max(axis=(1, 2))
    return _report("reciprocity", tol, np.abs(mats - mats.swapaxes(1, 2)).max(axis=(1, 2)), scale)


def validate_passivity(zms: ImpedanceMatrixSeries, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check that the symmetrized real part of Z is PSD at every frequency.

    Per frequency the deviation is max(0, -min_eig) / max |eig| of
    (Re Z + Re Z^T) / 2; the check passes iff every deviation <= tol. A run
    of frequencies whose symmetric parts are the same bits shares one
    eigensolve, so a frequency-flat real part costs one.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    real = zms.matrices.real
    sym = (real + real.swapaxes(1, 2)) / 2.0
    # whether each matrix starts a run of bitwise-identical ones; two rows'
    # bytes at a time, so the check allocates no (F, N, N)-sized array
    first = np.array([True, *(a != b for a, b in pairwise(map(np.ndarray.tobytes, sym)))])
    distinct = sym if first.all() else sym[first]  # no copy when every matrix differs
    try:
        eigs = np.linalg.eigvalsh(distinct)
    except np.linalg.LinAlgError as exc:
        index = next(i for i in np.flatnonzero(first).tolist() if not _eigvalsh_converges(sym[i]))
        raise NumericalError(f"eigenvalue solve failed at frequency index {index}") from exc
    if distinct is not sym:
        eigs = eigs[np.cumsum(first) - 1]
    lowest = -eigs[:, 0]
    return _report("passivity", tol, np.where(lowest > 0.0, lowest, 0.0), np.abs(eigs).max(axis=1))


def _eigvalsh_converges(mat: np.ndarray) -> bool:
    try:
        np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def _report(check: str, tol: float, excess: np.ndarray, scale: np.ndarray) -> ValidationReport:
    """Per-frequency deviation excess / scale, and 0 where the scale is 0."""
    with np.errstate(invalid="ignore"):  # inf / inf is nan, as in scalar float division
        deviations = np.divide(excess, scale, out=np.zeros_like(excess), where=scale != 0.0)
    worst = int(np.argmax(deviations))
    passed = bool(deviations[worst] <= tol)
    return ValidationReport(check, passed, tol, tuple(deviations.tolist()), worst)


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


# Suffixes that numpy's loadtxt decompresses when it opens a file by name, as
# numpy compares them (case-sensitively); np.lib._datasource._file_openers.
_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_fast(name: str, header_lines: int, encoding: str):
    """Body columns from one numpy read of the file ``name`` past its header,
    or None where the line-by-line rules must decide."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            body = np.loadtxt(name, dtype=_CSV_DTYPE, delimiter=",", quotechar='"', comments=None,
                              skiprows=header_lines, encoding=encoding, ndmin=1)
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
    parsed = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        parsed.append(_parse_csv_row(lineno, row))
    if not parsed:
        return None
    freq, rows, cols, values = zip(*parsed)
    return np.array(freq), rows, cols, np.array(values, dtype=np.complex128), 1 + max(max(rows), max(cols))


def load_impedance_csv(path, dims: tuple = None) -> ImpedanceMatrixSeries:
    """Load an impedance-matrix series from sparse CSV.

    Format: header ``freq_hz,row,col,re_ohms,im_ohms``, one row per nonzero
    entry per frequency, 0-based indices. Missing entries are zero. A
    symmetric entry may be listed once (it is mirrored) or twice (the two
    listings must agree to ``MIRROR_TOL`` relative), and a repeated listing
    of one cell must agree with the listing before it; the last one wins.
    """
    name = os.fsdecode(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            if tuple(col.strip().lower() for col in header) != CSV_HEADER:
                raise ParseError(f"{path}: expected header {','.join(CSV_HEADER)}")
            columns = None
            # numpy reads a file it opens by name in chunks, but it would decompress
            # by suffix, and a pipe cannot be opened twice: those take the line walk.
            # The name is made absolute, since numpy fetches a name that parses as a URL.
            if not name.endswith(_DECOMPRESSED_SUFFIXES) and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                columns = _read_fast(os.path.join(os.getcwd(), name), reader.line_num, handle.encoding)
            if columns is None:  # numpy is stricter than the per-line rules: let them decide
                columns = _read_lines(reader)
        except csv.Error as exc:  # a cell over the csv module's field size limit, say
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            # The handle decodes a chunk at a time. The reader has taken every
            # line that ends before the chunk that failed, which begins on the next.
            raise _undecodable(path, exc, reader.line_num + 1) from exc
    if columns is None:
        raise ParseError(f"{path}: no data rows")
    grid, mats = _assemble(*columns, path)
    return ImpedanceMatrixSeries(FrequencyGrid(tuple(grid.tolist())), mats, dims)


def _assemble(freqs, rows, cols, values, n: int, path) -> tuple:
    """Sorted grid and (F, n, n) stack from sparse listings.

    A repeated listing must agree with the one before it, and the last one
    wins; a cell listed once is mirrored; a cell listed both ways must agree.
    Conflicts are named in the order the line-by-line loader found them:
    repeats in file order first, then mirror pairs by frequency and first listing.
    """
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
    order = np.argsort(key, kind="stable")  # linear on keys already in order
    key, values = key[order], values[order]
    new_cell = np.insert(key[1:] != key[:-1], 0, True)
    repeat = np.flatnonzero(~new_cell)
    bad = repeat[_conflicts(values[repeat - 1], values[repeat])]
    if len(bad):
        conflict(order[bad].min())
    first_listing = order[new_cell]
    last = np.append(new_cell[1:], True)  # the last listing of each cell wins
    kept = order[last]
    key, values, skew = key[last], values[last], (cols - rows)[kept]
    mats = np.zeros((len(grid), n, n), dtype=np.complex128)
    flat = mats.reshape(-1)
    flat[key] = values
    present = np.zeros(flat.size, dtype=bool)  # a byte a cell, a sixteenth of the stack
    present[key] = True
    mirror = key + skew * (n - 1)  # (f, r, c) -> (f, c, r)
    listed = present[mirror]
    single = (skew != 0) & ~listed
    flat[mirror[single]] = values[single]
    pair = np.flatnonzero((skew != 0) & listed)
    bad = pair[_conflicts(flat[mirror[pair]], values[pair])]
    if len(bad):
        conflict(first_listing[bad[np.lexsort((first_listing[bad], fi[kept[bad]]))[0]]])
    return grid, mats


def _conflicts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) > MIRROR_TOL * np.maximum(np.abs(a), np.abs(b))
