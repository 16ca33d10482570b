"""Receiver-array termination: matrix voltage divider and sum extracted power.

Terminating a coupled K-port receiver with a load network Z_L turns the
open-circuit voltages into V = Z_L (Z_R + Z_L)^-1 V_oc. Strategies: leave the
ports open, conjugate-match each port ignoring coupling, conjugate the full
matrix, or supply an explicit passive load matrix. Open circuit is an exact
path, never a large-impedance stand-in.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import (
    DEFAULT_TOL,
    OPEN_CIRCUIT,
    FrequencyGrid,
    Frozen,
    NumericalError,
    SingularCircuitError,
    ValidationError,
)
from .impedance import ImpedanceMatrixSeries, validate_passivity, validate_reciprocity

COND_WARN = 1e12
"""Condition-number threshold above which a termination solve warns.

The 2-norm condition number comes from an SVD, but only at frequencies that a
cheap screen cannot clear: ||A||_F ||A^-1||_F, from the inverse the divider
needs anyway, is never below cond_2(A), so an index whose bound is at most
COND_WARN * 1e-2 cannot warn. The factor 100 covers rounding in the bound
near the bar. Every other index gets the SVD, so the warnings and errors are
those of an SVD at every frequency.
"""

_KINDS = ("open_circuit", "per_antenna_conjugate", "full_conjugate", "explicit")


class TerminationStrategy(Frozen):
    """One of the four termination kinds; ``explicit`` carries a K x K load matrix."""

    _fields = ("kind", "z_l")
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity: z_l is an array

    def __init__(self, kind: str, z_l: np.ndarray = None) -> None:
        if kind not in _KINDS:
            raise ValidationError(f"unknown termination kind {kind!r}")
        if kind == "explicit":
            if z_l is None:
                raise ValidationError("explicit termination needs a load matrix")
            z_l = np.array(z_l, dtype=np.complex128, copy=True)
            if z_l.ndim != 2 or z_l.shape[0] != z_l.shape[1]:
                raise ValidationError("explicit load matrix must be square")
            if not np.all(np.isfinite(z_l.view(float))):
                raise ValidationError("explicit load matrix must be finite")
            z_l.setflags(write=False)
        elif z_l is not None:
            raise ValidationError(f"{kind} termination takes no load matrix")
        self._store(kind, z_l)


class ArrayModel(Frozen):
    """Validated partitioned impedance series plus transmit currents (F, M)."""

    _fields = ("zms", "i_t")
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity: i_t is an array

    def __init__(self, zms: ImpedanceMatrixSeries, i_t: np.ndarray) -> None:
        m, k = zms.dims
        if m < 1:
            raise ValidationError("array model needs at least one transmit port")
        if k < 1:
            raise ValidationError("array model needs at least one receive port")
        for checker in (validate_reciprocity, validate_passivity):
            report = checker(zms)
            if not report.passed:
                raise ValidationError(
                    f"impedance series fails {report.check}: deviation "
                    f"{report.worst_deviation:.3e} at frequency index {report.worst_index}"
                )
        arr = np.array(i_t, dtype=np.complex128, copy=True)
        if arr.ndim == 1:
            arr = np.tile(arr, (len(zms.grid), 1))
        if arr.shape != (len(zms.grid), m):
            raise ValidationError(
                f"i_t must have shape ({len(zms.grid)}, {m}), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(float))):
            raise ValidationError("i_t must be finite")
        arr.setflags(write=False)
        self._store(zms, arr)


def open_circuit_voltages(model: ArrayModel) -> np.ndarray:
    """Per-frequency open-circuit voltages Z_RT @ i_t, shape (F, K)."""
    return np.einsum("fkm,fm->fk", model.zms.z_rt, model.i_t)


def _check_explicit_passivity(z_l: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    sym = (z_l.real + z_l.real.T) / 2.0
    eigs = np.linalg.eigvalsh(sym)
    scale = float(np.max(np.abs(eigs)))
    if scale > 0 and eigs[0] < -tol * scale:
        raise ValidationError("explicit load matrix is not passive (Re part not PSD)")


def termination_matrix(strategy: TerminationStrategy, z_r: np.ndarray):
    """Load matrix for the strategy, or OPEN_CIRCUIT for the open strategy.

    z_r is one K x K matrix or a stack (..., K, K); the load has its shape.
    An explicit load is checked for passivity once and broadcast read-only.
    """
    z_r = np.asarray(z_r, dtype=np.complex128)
    if z_r.ndim < 2 or z_r.shape[-1] != z_r.shape[-2]:
        raise ValidationError("z_r must be square")
    if strategy.kind == "open_circuit":
        return OPEN_CIRCUIT
    if strategy.kind == "per_antenna_conjugate":
        ports = np.arange(z_r.shape[-1])
        z_l = np.zeros(z_r.shape, dtype=np.complex128)
        z_l[..., ports, ports] = np.conj(z_r[..., ports, ports])
        return z_l
    if strategy.kind == "full_conjugate":
        return np.conj(z_r)
    if strategy.z_l.shape != z_r.shape[-2:]:
        raise ValidationError(
            f"explicit load matrix shape {strategy.z_l.shape} does not match {z_r.shape[-2:]}"
        )
    _check_explicit_passivity(strategy.z_l)
    return np.broadcast_to(strategy.z_l, z_r.shape)


class ArrayTermination(Frozen):
    """One strategy solved at every frequency: terminated voltages (F, K),
    total extracted power 0.5 Re(I^H Z_L I) (F,), and the off-diagonal to
    diagonal Frobenius-norm ratio of the divider Z_L (Z_R + Z_L)^-1 (F,).

    The ratio is a descriptive statistic only: it is one possible reading of
    "mutual coupling effects" under a termination, not a normative figure of
    merit. Open circuit gives V = V_oc, exact zero power and the identity
    divider, hence a ratio of exactly zero.
    """

    _fields = ("voltages", "power", "offdiag_ratio")
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity: the fields are arrays

    def __init__(self, voltages: np.ndarray, power: np.ndarray, offdiag_ratio: np.ndarray) -> None:
        self._store(voltages, power, offdiag_ratio)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Unconjugated a . b along the last axis. A row times a column is one
    # BLAS dot per pair, as for 1-D a @ b, so stacked results match the
    # per-matrix ones bitwise.
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _frobenius(stack: np.ndarray) -> np.ndarray:
    # Per-matrix sqrt(re.re + im.im): the dot products np.linalg.norm takes
    # for one matrix.
    flat = stack.reshape(len(stack), -1)
    return np.sqrt(_dot(flat.real, flat.real) + _dot(flat.imag, flat.imag))


def _offdiag_ratio(divider: np.ndarray) -> np.ndarray:
    """Off-diagonal over diagonal Frobenius norm per matrix; divider is overwritten."""
    ports = np.arange(divider.shape[-1])
    diag = np.zeros_like(divider)
    diag[:, ports, ports] = divider[:, ports, ports]
    divider[:, ports, ports] = 0.0
    diag_norm = _frobenius(diag)
    return np.where(diag_norm == 0, math.inf, _frobenius(divider) / diag_norm)


def _check_condition(cond: np.ndarray, indices: np.ndarray) -> None:
    """cond[i] is the condition number at frequency index indices[i]. Warn,
    in ascending order, for each one above COND_WARN; raise
    SingularCircuitError at the first one that is not finite."""
    over = ~(cond <= COND_WARN)
    for index, value in zip(indices[over].tolist(), cond[over].tolist()):
        if not math.isfinite(value):
            raise SingularCircuitError(f"singular termination at frequency index {index}")
        warnings.warn(
            f"ill-conditioned termination at frequency index {index}: cond={value:.3e}",
            RuntimeWarning,
            stacklevel=4,
        )


def terminate_array(model: ArrayModel, strategy: TerminationStrategy) -> ArrayTermination:
    """Solve V = Z_L (Z_R + Z_L)^-1 V_oc for one strategy over all F frequencies.

    Open circuit is exact: V = V_oc, zero power and an identity divider.
    Otherwise one stacked solve and one inverse cover every frequency. Each
    index whose condition number exceeds COND_WARN emits one RuntimeWarning,
    and a singular Z_R + Z_L raises SingularCircuitError naming the first
    singular frequency index. The condition number is an SVD, taken only
    where the bound ||A||_F ||A^-1||_F exceeds COND_WARN * 1e-2 (see
    COND_WARN), or at every index if the solve meets a zero pivot; the error
    then names the worst-conditioned index. The warnings and errors are
    those of an SVD at every frequency.

    numpy's floating-point warnings are off while it runs. A V_oc, voltage
    or power that leaves the float range raises NumericalError naming the
    earliest such frequency index. An off-diagonal ratio of inf, where the
    divider's diagonal is zero, is a result, not an overflow.
    """
    with np.errstate(all="ignore"):
        v_oc = open_circuit_voltages(model)
        result = _terminate(model, strategy, v_oc)
    names = ("open-circuit voltage", "voltage", "power")
    finite = [np.isfinite(values).reshape(len(v_oc), -1).all(axis=1)
              for values in (v_oc, result.voltages, result.power)]
    index = int(np.argmin(np.logical_and.reduce(finite)))  # the earliest index where one is not
    for name, ok in zip(names, finite):
        if not ok[index]:
            raise NumericalError(f"{strategy.kind}: {name} at frequency index {index} is outside the float range")
    return result


def _terminate(model: ArrayModel, strategy: TerminationStrategy, v_oc: np.ndarray) -> ArrayTermination:
    if strategy.kind == "open_circuit":
        zeros = np.zeros(len(v_oc))
        return ArrayTermination(v_oc, zeros, zeros.copy())
    z_r = model.zms.z_r
    z_l = termination_matrix(strategy, z_r)
    total = z_r + z_l
    try:
        currents = np.linalg.solve(total, v_oc[..., None])  # I = (Z_R + Z_L)^-1 V_oc, (F, K, 1)
        inverse = np.linalg.inv(total)
    except np.linalg.LinAlgError as exc:
        # A zero pivot: check every index, then name the worst-conditioned one.
        cond = np.linalg.cond(total)
        _check_condition(cond, np.arange(len(cond)))
        index = int(np.argmax(cond))
        raise SingularCircuitError(f"singular termination at frequency index {index}") from exc
    bound = _frobenius(total) * _frobenius(inverse)  # an overflowing bound is inf or nan: a suspect
    suspects = np.flatnonzero(~(bound <= COND_WARN * 1e-2))
    if suspects.size:
        _check_condition(np.linalg.cond(total[suspects]), suspects)
    del total  # freed before the products below allocate theirs
    voltages = (z_l @ currents)[..., 0]
    power = 0.5 * _dot(np.conj(currents[..., 0]), voltages).real  # 0.5 Re(I^H V)
    divider = z_l @ inverse
    del inverse  # freed before _offdiag_ratio's copies, which reuse its memory
    return ArrayTermination(voltages, power, _offdiag_ratio(divider))


def make_synthetic_model(
    n_tx: int,
    n_rx: int,
    self_impedances,
    coupling: float,
    decay: float,
    frequencies,
    rng=None,
    max_tries: int = 100,
) -> ArrayModel:
    """Random reciprocal passive model for demos and tests.

    The full (n_tx + n_rx)-port matrix is D + coupling * C with D the diagonal
    of self-impedances and C a symmetric random-phase coupling matrix whose
    magnitude decays geometrically with port index distance. Draws failing
    passivity are rejected. Reactances scale with frequency relative to the
    first grid point; real parts are frequency-flat. Every transmit port
    carries a unit current at every frequency.

    ``rng`` is a numpy Generator or a nonnegative integer seed (None means
    0). A seed draws the stream of np.random.default_rng(seed) from a
    pure-Python replica, so a seeded model never imports numpy.random.
    """
    n = n_tx + n_rx
    if n_tx < 1 or n_rx < 1:
        raise ValidationError("need at least one transmit and one receive port")
    if coupling < 0 or not math.isfinite(coupling):
        raise ValidationError("coupling must be finite and nonnegative")
    if not 0 < decay <= 1:
        raise ValidationError("decay must be in (0, 1]")
    selfs = np.asarray(self_impedances, dtype=np.complex128)
    if selfs.ndim == 0:
        selfs = np.full(n, complex(selfs))
    if selfs.shape != (n,):
        raise ValidationError(f"need {n} self-impedances, got shape {selfs.shape}")
    if np.any(selfs.real <= 0):
        raise ValidationError("self-impedances must have positive real part")
    grid = FrequencyGrid(frequencies)  # checked before the scaling divides by its first point

    with np.errstate(all="ignore"):  # an overflow is inf, which eigvalsh or the model's checks refuse
        # One uniform phase per pair i < j, row by row (np.triu_indices order),
        # from the stream a per-pair loop would read, and C_ij = C_ji =
        # decay ** (j - i - 1) * (cos + j sin) of that phase, with math's cos and
        # sin. The product is complex(mag, 0.0) * complex(cos, sin), so an entry
        # of magnitude 0 keeps the signed zeros it has always had.
        rows, cols = np.triu_indices(n, 1)
        if rng is None or isinstance(rng, (int, np.integer)):
            from ._pcg64 import SeededUniform

            rng = SeededUniform(0 if rng is None else rng)
        mags = np.array([coupling * decay**k for k in range(n - 1)])[cols - rows - 1]
        base = None
        for _ in range(max_tries):
            phases = rng.uniform(0.0, 2.0 * math.pi, size=rows.size).tolist()
            cos = np.fromiter(map(math.cos, phases), np.float64, rows.size)
            sin = np.fromiter(map(math.sin, phases), np.float64, rows.size)
            entries = np.empty(rows.size, dtype=np.complex128)
            entries.real, entries.imag = mags * cos - 0.0 * sin, mags * sin + 0.0 * cos
            mat = np.diag(selfs).astype(np.complex128)
            mat[rows, cols] = mat[cols, rows] = entries
            if np.linalg.eigvalsh((mat.real + mat.real.T) / 2.0)[0] >= 0:
                base = mat
                break
        if base is None:
            raise NumericalError(f"no passive coupling draw in {max_tries} tries")
        del rows, cols, mags, phases, cos, sin, entries  # per-pair arrays, freed before the stack is built

        # base.real + 1j * base.imag * (freq / f_ref) at every frequency, the
        # same element operations in the same order, in place in one stack
        mats = np.empty((len(grid), n, n), dtype=np.complex128)
        mats[...] = 1j * base.imag
        mats *= (grid.as_array() / grid[0])[:, None, None]
        mats += base.real
        zms = ImpedanceMatrixSeries(grid, mats, dims=(n_tx, n_rx))
        del mats  # zms holds a copy; freed before ArrayModel's checks allocate
        return ArrayModel(zms, np.ones((len(grid), n_tx), dtype=np.complex128))
