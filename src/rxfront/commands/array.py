"""``array``: received voltages, summed extracted power and coupling of a
coupled receive array under each termination strategy, per frequency."""

from __future__ import annotations

import math

from ..core import MAX_ARRAY_BYTES, stack_bytes
from ..scenario import (
    _DIMS,
    OPTIONAL,
    REQUIRED,
    Scenario,
    _as_complex,
    _count,
    _cx,
    _int,
    _Invalid,
    _list_of,
    _num,
    _one_of,
    _str,
    _walk,
    fmt,
)


def _check_size(nbytes: int) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        raise _Invalid(f" asks for {nbytes} bytes, over the {MAX_ARRAY_BYTES}-byte limit")


def _rows_of(check):
    """Non-empty list of equal-length, non-empty rows."""
    list_of_rows = _list_of(_list_of(check))

    def checker(value):
        rows = list_of_rows(value)
        if len({len(row) for row in rows}) != 1:
            raise _Invalid(" rows must all have the same length")
        return rows
    return checker


_cx_vector, _cx_matrix = _list_of(_cx), _rows_of(_cx)
_STRATEGY_NAMES = ("open_circuit", "per_antenna_conjugate", "full_conjugate")
_strategy_name = _one_of(*_STRATEGY_NAMES)
_EXPLICIT_STRATEGY = {"kind": (_one_of("explicit"), REQUIRED), "z_l_ohms": (_cx_matrix, REQUIRED)}


def _strategy(value):
    if isinstance(value, str):
        return _strategy_name(value)
    return _walk(_EXPLICIT_STRATEGY, value)


def _currents(value):
    """One current vector for all frequencies, or one row per frequency."""
    rows = isinstance(value, list) and value and isinstance(value[0], list)
    return (_cx_matrix if rows else _cx_vector)(value)


_SYNTHETIC = {
    "n_tx": (_int, REQUIRED), "n_rx": (_int, REQUIRED), "self_ohms": (_cx, REQUIRED),
    "coupling_ohms": (_num, REQUIRED), "decay": (_num, REQUIRED),
    "frequencies_hz": (_list_of(_num), REQUIRED), "seed": (_count, 0),
}


def _synthetic(value):
    out = _walk(_SYNTHETIC, value)
    ports = max(out["n_tx"], 0) + max(out["n_rx"], 0)
    _check_size(stack_bytes(len(out["frequencies_hz"]), ports))
    return out


def _csv_models_only(value):
    raise _Invalid(" is only for CSV models")


_STRATEGIES = {"strategies": (_list_of(_strategy), list(_STRATEGY_NAMES))}
_ARRAY_SYNTHETIC = {
    **_STRATEGIES,
    "synthetic": (_synthetic, REQUIRED),
    "i_t_amperes": (_csv_models_only, OPTIONAL),
}
_ARRAY_CSV = {
    **_STRATEGIES, **_DIMS, "impedance_csv": (_str, REQUIRED), "i_t_amperes": (_currents, REQUIRED),
}


def _array(value):
    synthetic = isinstance(value, dict) and "synthetic" in value
    return _walk(_ARRAY_SYNTHETIC if synthetic else _ARRAY_CSV, value)


FIELDS = {"array": (_array, REQUIRED)}
FLAGS = ()  # the ratio, inf where the divider's diagonal is zero, prints inside the annotation text


def _complexes(canon):
    """A canonical complex, or a list (of lists) of them, as Python complex numbers."""
    return [_complexes(item) for item in canon] if isinstance(canon, list) else _as_complex(canon)


def build(scenario: Scenario):
    from .. import arrays
    from ..impedance import load_impedance_csv

    section = scenario.data["array"]
    strategies = [arrays.TerminationStrategy(canon) if isinstance(canon, str)
                  else arrays.TerminationStrategy("explicit", _complexes(canon["z_l_ohms"]))
                  for canon in section["strategies"]]
    if "synthetic" in section:
        syn = section["synthetic"]
        model = arrays.make_synthetic_model(
            syn["n_tx"], syn["n_rx"], _as_complex(syn["self_ohms"]),
            syn["coupling_ohms"], syn["decay"], syn["frequencies_hz"],
            rng=syn["seed"],
        )
    else:
        zms = load_impedance_csv(
            scenario.base_dir / section["impedance_csv"], (section["dims_m"], section["dims_k"])
        )
        model = arrays.ArrayModel(zms, _complexes(section["i_t_amperes"]))
    return model, strategies


def solve(model):
    import numpy as np

    from .. import arrays

    array_model, strategies = model
    labels = [strategy.kind for strategy in strategies]  # a strategy's label is its kind
    notes = [";time_reversal_caveat" if kind == "full_conjugate" else "" for kind in labels]
    solved = [arrays.terminate_array(array_model, strategy) for strategy in strategies]

    def flat(field: str) -> np.ndarray:
        """One result field over the report rows, frequency-major then strategy (then port)."""
        return np.stack([getattr(result, field) for result in solved], axis=1).reshape(-1)

    n_freqs, n_rx = solved[0].voltages.shape
    volts = flat("voltages").reshape(-1, n_rx)  # one row of ports per report row
    columns = {
        "freq_hz": [freq for freq in array_model.zms.grid for _ in solved],
        "strategy": labels * n_freqs,
        "sum_power_w": flat("power").tolist(),
        "v_mag_volts": np.hypot(volts.real, volts.imag).tolist(),  # hypot: abs() of each voltage, to the last bit
        "v_phase_rad": [list(map(math.atan2, im, re))  # np.arctan2 can differ in the last bit
                        for re, im in zip(volts.real.tolist(), volts.imag.tolist())],
        "annotations": [f"offdiag_ratio={fmt(ratio)}{note}"
                        for ratio, note in zip(flat("offdiag_ratio").tolist(), notes * n_freqs)],
    }
    return columns, True
