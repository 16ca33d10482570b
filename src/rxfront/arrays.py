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
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    OPEN_CIRCUIT,
    FrequencyGrid,
    ImpedanceMatrixSeries,
    NumericalError,
    SingularCircuitError,
    ValidationError,
    validate_passivity,
    validate_reciprocity,
)

COND_WARN = 1e12
"""Condition-number threshold above which termination solves emit a warning."""

_KINDS = ("open_circuit", "per_antenna_conjugate", "full_conjugate", "explicit")


@dataclass(frozen=True, eq=False)
class TerminationStrategy:
    """One of the four termination kinds; ``explicit`` carries a K x K load matrix."""

    kind: str
    z_l: np.ndarray = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown termination kind {self.kind!r}")
        if self.kind == "explicit":
            if self.z_l is None:
                raise ValidationError("explicit termination needs a load matrix")
            mat = np.array(self.z_l, dtype=np.complex128, copy=True)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValidationError("explicit load matrix must be square")
            if not np.all(np.isfinite(mat.view(float))):
                raise ValidationError("explicit load matrix must be finite")
            mat.setflags(write=False)
            object.__setattr__(self, "z_l", mat)
        elif self.z_l is not None:
            raise ValidationError(f"{self.kind} termination takes no load matrix")

    @classmethod
    def open_circuit(cls) -> "TerminationStrategy":
        return cls("open_circuit")

    @classmethod
    def per_antenna_conjugate(cls) -> "TerminationStrategy":
        return cls("per_antenna_conjugate")

    @classmethod
    def full_conjugate(cls) -> "TerminationStrategy":
        return cls("full_conjugate")

    @classmethod
    def explicit(cls, z_l) -> "TerminationStrategy":
        return cls("explicit", z_l)


@dataclass(frozen=True, eq=False)
class ArrayModel:
    """Validated partitioned impedance series plus transmit currents (F, M)."""

    zms: ImpedanceMatrixSeries
    i_t: np.ndarray

    def __post_init__(self) -> None:
        m, k = self.zms.dims
        if m < 1:
            raise ValidationError("array model needs at least one transmit port")
        if k < 1:
            raise ValidationError("array model needs at least one receive port")
        for checker in (validate_reciprocity, validate_passivity):
            report = checker(self.zms)
            if not report.passed:
                raise ValidationError(
                    f"impedance series fails {report.check}: deviation "
                    f"{report.worst_deviation:.3e} at frequency index {report.worst_index}"
                )
        arr = np.array(self.i_t, dtype=np.complex128, copy=True)
        if arr.ndim == 1:
            arr = np.tile(arr, (len(self.zms.grid), 1))
        if arr.shape != (len(self.zms.grid), m):
            raise ValidationError(
                f"i_t must have shape ({len(self.zms.grid)}, {m}), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(float))):
            raise ValidationError("i_t must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "i_t", arr)


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


@dataclass(frozen=True, eq=False)
class ArrayTermination:
    """One strategy solved at every frequency: terminated voltages (F, K),
    total extracted power (F,) and off-diagonal divider ratio (F,)."""

    voltages: np.ndarray
    power: np.ndarray
    offdiag_ratio: np.ndarray


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Unconjugated a . b along the last axis. A row times a column is one
    # BLAS dot per pair, as for 1-D a @ b, so stacked results match the
    # per-matrix ones bitwise.
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _voltages_and_power(total: np.ndarray, z_l: np.ndarray, v_oc: np.ndarray) -> tuple:
    # Stacked I = (Z_R + Z_L)^-1 V_oc, V = Z_L I and 0.5 Re(I^H V) along the
    # leading axis; v_oc is (N, K) or one (K,) vector shared by the stack.
    rhs = np.broadcast_to(v_oc[..., None], total.shape[:-1] + (1,))
    currents = np.linalg.solve(total, rhs)
    volts = (z_l @ currents)[..., 0]
    return volts, 0.5 * _dot(np.conj(currents[..., 0]), volts).real


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
    off_norm = _frobenius(divider)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(diag_norm == 0, math.inf, off_norm / diag_norm)


def terminate_array(model: ArrayModel, strategy: TerminationStrategy) -> ArrayTermination:
    """Solve V = Z_L (Z_R + Z_L)^-1 V_oc for one strategy over all F frequencies.

    Open circuit is exact: V = V_oc, zero power and an identity divider.
    Otherwise one stacked condition estimate, solve and inverse cover every
    frequency. A singular Z_R + Z_L raises SingularCircuitError naming the
    first singular frequency index; each index whose condition number
    exceeds COND_WARN emits one RuntimeWarning.
    """
    v_oc = open_circuit_voltages(model)
    if strategy.kind == "open_circuit":
        zeros = np.zeros(len(v_oc))
        return ArrayTermination(v_oc, zeros, zeros.copy())
    z_r = model.zms.z_r
    z_l = termination_matrix(strategy, z_r)
    total = z_r + z_l
    cond = np.linalg.cond(total)
    for index in np.flatnonzero(~(cond <= COND_WARN)):
        if not math.isfinite(cond[index]):
            raise SingularCircuitError(f"singular termination at frequency index {index}")
        warnings.warn(
            f"ill-conditioned termination at frequency index {index}: cond={cond[index]:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        voltages, power = _voltages_and_power(total, z_l, v_oc)
        divider = z_l @ np.linalg.inv(total)
    except np.linalg.LinAlgError as exc:
        # A zero pivot the SVD did not see: name the worst-conditioned index.
        index = int(np.argmax(cond))
        raise SingularCircuitError(f"singular termination at frequency index {index}") from exc
    return ArrayTermination(voltages, power, _offdiag_ratio(divider))


def terminated_voltages(model: ArrayModel, strategy: TerminationStrategy) -> np.ndarray:
    """Per-frequency terminated voltages, shape (F, K); open circuit is exact."""
    return terminate_array(model, strategy).voltages


def sum_extracted_power(model: ArrayModel, strategy: TerminationStrategy) -> np.ndarray:
    """Per-frequency total extracted power 0.5 Re(I^H Z_L I); exact zeros when open."""
    return terminate_array(model, strategy).power


def coupling_offdiag_ratio(model: ArrayModel, strategy: TerminationStrategy) -> np.ndarray:
    """Off-diagonal to diagonal Frobenius-norm ratio of the effective divider
    matrix Z_L (Z_R + Z_L)^-1 per frequency.

    Descriptive statistic only: it is one possible reading of "mutual coupling
    effects" under a termination, not a normative figure of merit. Open
    circuit gives the identity divider, hence exact zeros.
    """
    return terminate_array(model, strategy).offdiag_ratio


def full_conjugate_closed_form(z_r: np.ndarray, v_oc: np.ndarray) -> np.ndarray:
    """Closed form 0.5 * conj(z_r) @ (Re z_r)^-1 @ v_oc for the full conjugate match."""
    z_r = np.asarray(z_r, dtype=np.complex128)
    try:
        scaled = np.linalg.solve(z_r.real, np.asarray(v_oc, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise SingularCircuitError("Re(z_r) is singular") from exc
    return 0.5 * np.conj(z_r) @ scaled


def perturbation_sum_powers(
    z_r: np.ndarray, z_l: np.ndarray, v_oc: np.ndarray, perturbations: np.ndarray
) -> np.ndarray:
    """Sum extracted power for each perturbed load z_l + delta in the stack.

    perturbations has shape (P, K, K); the caller is responsible for keeping
    the perturbed loads passive and the sums nonsingular.
    """
    z_r = np.asarray(z_r, dtype=np.complex128)
    loads = np.asarray(z_l, dtype=np.complex128) + np.asarray(perturbations, dtype=np.complex128)
    return _voltages_and_power(z_r + loads, loads, np.asarray(v_oc, dtype=np.complex128))[1]


def make_synthetic_model(
    n_tx: int,
    n_rx: int,
    self_impedances,
    coupling: float,
    decay: float,
    frequencies,
    i_t=None,
    rng=None,
    max_tries: int = 100,
) -> ArrayModel:
    """Random reciprocal passive model for demos and tests.

    The full (n_tx + n_rx)-port matrix is D + coupling * C with D the diagonal
    of self-impedances and C a symmetric random-phase coupling matrix whose
    magnitude decays geometrically with port index distance. Draws failing
    passivity are rejected. Reactances scale with frequency relative to the
    first grid point; real parts are frequency-flat.
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
    if rng is None:
        rng = np.random.default_rng(0)

    base = None
    for _ in range(max_tries):
        mat = np.diag(selfs).astype(np.complex128)
        for i in range(n):
            for j in range(i + 1, n):
                mag = coupling * decay ** (j - i - 1)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                entry = mag * complex(math.cos(phase), math.sin(phase))
                mat[i, j] = entry
                mat[j, i] = entry
        eigs = np.linalg.eigvalsh((mat.real + mat.real.T) / 2.0)
        if eigs[0] >= 0:
            base = mat
            break
    if base is None:
        raise NumericalError(f"no passive coupling draw in {max_tries} tries")

    f_ref = grid[0]
    mats = np.empty((len(grid), n, n), dtype=np.complex128)
    for fi, freq in enumerate(grid):
        mats[fi] = base.real + 1j * base.imag * (freq / f_ref)
    zms = ImpedanceMatrixSeries(grid, mats, dims=(n_tx, n_rx))
    if i_t is None:
        i_t = np.ones((len(grid), n_tx), dtype=np.complex128)
    return ArrayModel(zms, i_t)
