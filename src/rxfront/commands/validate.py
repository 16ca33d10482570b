"""``validate``: reciprocity and passivity of a measured impedance-matrix CSV."""

from __future__ import annotations

from ..core import ValidationError
from ..scenario import _DIMS, REQUIRED, Scenario, _num, _str, _walk

_VALIDATE = {"impedance_csv": (_str, REQUIRED), "tol": (_num, 1e-9)}
_VALIDATE_DIMS = {**_VALIDATE, **_DIMS}


def _validate(value):
    dims = isinstance(value, dict) and ("dims_m" in value or "dims_k" in value)  # a pair or neither
    return _walk(_VALIDATE_DIMS if dims else _VALIDATE, value)


FIELDS = {"validate": (_validate, REQUIRED)}
FLAGS = ()


def build(scenario: Scenario):
    from ..impedance import load_impedance_csv

    section = scenario.data["validate"]
    tol = section["tol"]
    if tol <= 0:  # the validators' own check, made before the CSV is read
        raise ValidationError("tol must be positive")
    dims = (section["dims_m"], section["dims_k"]) if "dims_m" in section else None
    return load_impedance_csv(scenario.base_dir / section["impedance_csv"], dims), tol


def solve(model):
    from ..impedance import validate_passivity, validate_reciprocity

    zms, tol = model
    reports = (validate_reciprocity(zms, tol), validate_passivity(zms, tol))
    deviations = [d for report in reports for d in report.deviations]
    columns = {
        "check": [report.check for report in reports for _ in zms.grid],
        "freq_hz": list(zms.grid.points * len(reports)),
        "deviation": deviations,
        "tol": [tol] * len(deviations),
        "passed": ["pass" if d <= tol else "fail" for d in deviations],
    }
    return columns, all(report.passed for report in reports)
