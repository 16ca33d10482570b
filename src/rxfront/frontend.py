"""Finite-gain op-amp front ends that read a source voltage while drawing
vanishing current: unity-gain buffer, voltage-controlled constant-current
stage, and the inside-out follower.

Each topology has a dedicated three-unknown nodal solve (plus an exact
ideal-limit path for infinite open-loop gain); the generic netlist solver in
``mna`` serves as an independent oracle. Sign conventions: the ideal-limit
output equals +v_oc for all three topologies, and i_source is the current
leaving the source's positive terminal.

The common-mode impedance z_cm hangs from each op-amp input to ground. The
inside-out follower's input-impedance advantage over the buffer exists only
when z_cm is finite: the buffer's non-inverting input drives z_cm directly,
while the inside-out inputs sit at virtual ground. With both inputs ideal
the two topologies draw no current at any gain and the comparison is empty.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Frozen,
    SingularCircuitError,
    TheveninSource,
    ValidationError,
    as_complex,
)


def _optional_impedance(value, name: str):
    """None or math.inf mean an absent (infinite) impedance."""
    if value is None:
        return None
    if isinstance(value, (int, float)) and math.isinf(value):
        return None
    return as_complex(value, name)


class OpAmpModel(Frozen):
    """Finite open-loop gain A, differential input impedance z_id, per-input
    common-mode impedance z_cm (None or math.inf for absent), output r_out."""

    _fields = ("open_loop_gain", "z_id", "z_cm", "r_out")

    def __init__(self, open_loop_gain: float, z_id: complex = None, z_cm: complex = None,
                 r_out: float = 0.0) -> None:
        if math.isnan(open_loop_gain) or open_loop_gain <= 0:
            raise ValidationError("open_loop_gain must be positive (math.inf allowed)")
        z_id = _optional_impedance(z_id, "z_id")
        if z_id is not None and z_id.real <= 0:
            raise ValidationError("finite z_id must have positive real part")
        z_cm = _optional_impedance(z_cm, "z_cm")
        if z_cm is not None and z_cm.real < 0:
            raise ValidationError("finite z_cm must have nonnegative real part")
        if not math.isfinite(r_out) or r_out < 0:
            raise ValidationError("r_out must be finite and nonnegative")
        self._store(open_loop_gain, z_id, z_cm, r_out)

    @property
    def y_id(self) -> complex:
        return 0j if self.z_id is None else 1.0 / self.z_id

    @property
    def y_cm(self) -> complex:
        return 0j if self.z_cm is None else 1.0 / self.z_cm


class FrontEndSolution(Frozen):
    """v_out, source current, effective input impedance v_oc/i_source
    (None when i_source is exactly zero), and extracted power."""

    _fields = ("v_out", "i_source", "z_effective", "p_extracted")

    def __init__(self, v_out: complex, i_source: complex, z_effective: complex, p_extracted: float) -> None:
        self._store(v_out, i_source, z_effective, p_extracted)


def _finish(source: TheveninSource, v_port: complex, v_out: complex, i_source: complex) -> FrontEndSolution:
    # v_port is the voltage across the source's external terminals, positive
    # where i_source exits, so p = Re(v_port * conj(i)) / 2 is extracted power.
    p = 0.5 * (v_port * i_source.conjugate()).real
    z_eff = None if i_source == 0 else source.v_oc / i_source
    return FrontEndSolution(v_out, i_source, z_eff, p)


def _solve3(matrix, rhs, label: str) -> tuple:
    try:
        x = np.linalg.solve(np.asarray(matrix, dtype=np.complex128),
                            np.asarray(rhs, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise SingularCircuitError(f"{label} circuit matrix is singular") from exc
    return complex(x[0]), complex(x[1]), complex(x[2])


def solve_buffer(source: TheveninSource, amp: OpAmpModel) -> FrontEndSolution:
    """Unity-gain buffer: source at the non-inverting input, output fed back
    to the inverting input."""
    if math.isinf(amp.open_loop_gain):
        # Ideal gain forces v_out = v_p exactly; only z_cm still loads the source.
        if amp.z_cm is None:
            return _finish(source, source.v_oc, source.v_oc, 0j)
        den = source.z_series + amp.z_cm
        if den == 0:
            raise SingularCircuitError("z_series + z_cm = 0: buffer input is singular")
        v_p = source.v_oc * amp.z_cm / den
        return _finish(source, v_p, v_p, v_p * amp.y_cm)
    a = amp.open_loop_gain
    y_id = amp.y_id
    y_cm = amp.y_cm
    ro = amp.r_out
    # Unknowns [v_p, v_o, i_source]; the output-node row is premultiplied by
    # r_out so it stays valid at r_out = 0.
    matrix = [
        [-(y_cm + y_id), y_id, 1.0],
        [a + ro * y_id, -(a + 1.0 + ro * (y_id + y_cm)), 0.0],
        [1.0, 0.0, source.z_series],
    ]
    rhs = [0.0, 0.0, source.v_oc]
    v_p, v_o, i_s = _solve3(matrix, rhs, "buffer")
    return _finish(source, v_p, v_o, i_s)


def solve_constant_current(source: TheveninSource, amp: OpAmpModel, v_c, r_c: float) -> FrontEndSolution:
    """Constant-current stage: the source sits in the feedback path, so the
    current through it is set by v_c/r_c and v_out = v_oc - z_series * i."""
    v_c = as_complex(v_c, "v_c")
    if math.isnan(r_c) or r_c <= 0:
        raise ValidationError("r_c must be positive (math.inf allowed)")
    y_c = 0.0 if math.isinf(r_c) else 1.0 / r_c
    if math.isinf(amp.open_loop_gain):
        i = v_c * y_c
        v_out = source.v_oc if i == 0 else source.v_oc - source.z_series * i
        return _finish(source, v_out, v_out, i)
    a = amp.open_loop_gain
    y_n = amp.y_id + amp.y_cm
    # Unknowns [v_n, v_o, i_source]: KCL at the inverting input, the output
    # row premultiplied by r_out, and KVL through the source branch.
    matrix = [
        [-(y_c + y_n), 0.0, -1.0],
        [-a, -1.0, amp.r_out],
        [1.0, -1.0, -source.z_series],
    ]
    rhs = [-v_c * y_c, 0.0, -source.v_oc]
    v_n, v_o, i = _solve3(matrix, rhs, "constant-current")
    return _finish(source, v_o - v_n, v_o, i)


def solve_inside_out(source: TheveninSource, amp: OpAmpModel) -> FrontEndSolution:
    """Inside-out follower: constant-current stage with v_c = 0, r_c infinite.

    The output balances against v_oc so the inputs sit at virtual ground;
    the effective input impedance grows as (1 + A) times z_id || z_cm.
    """
    return solve_constant_current(source, amp, 0j, math.inf)
