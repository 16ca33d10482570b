"""Scenario files in, report text out: the layer every subcommand shares.

A scenario is checked and normalized by walking field tables: the shared
checkers and tables are here, and each subcommand's own tables, with its
``build`` and ``solve`` stages, are in its module under ``rxfront.commands``.
``parse_scenario`` imports that module only once it has found the scenario's
one section, so a call compiles no other subcommand's code. ``render_report`` applies the one
float-range rule of every report while it converts the columns, and renders
them to CSV or text through one %-template per report.
"""

from __future__ import annotations

import json
import math
from functools import partial
from itertools import chain, count
from pathlib import Path

from . import _load
from .core import Frozen, NumericalError, ParseError

SUBCOMMANDS = ("validate", "capacity", "link", "noisefig", "frontend", "match", "array")


class Scenario(Frozen):
    """Parsed scenario: normalized payload plus the directory for file references."""

    _fields = ("name", "kind", "data", "base_dir")

    def __init__(self, name: str, kind: str, data: dict, base_dir: Path) -> None:
        self._store(name, kind, data, base_dir)


def fmt(value) -> str:
    """Render one report cell: 12 significant digits, inf/undefined tokens."""
    if isinstance(value, str):
        return value
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    x = float(value)
    if math.isnan(x):
        return "undefined"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0:
        return "0"
    return f"{x:.12g}"


REQUIRED = object()  # field-table default: the key must be present
OPTIONAL = object()  # field-table default: an absent key stays absent


class _Invalid(Exception):
    """A scenario field failed its check. The checkers know only the value;
    each enclosing level prepends its part of the field's path (".key",
    "[]", ".re") as the error propagates, so a valid field builds no string.
    The message is head + path (without its leading ".") + tail."""

    def __init__(self, tail: str, head: str = "", path: str = ""):
        super().__init__(tail)
        self.tail, self.head, self.path = tail, head, path


def _num(value) -> float:
    if type(value) not in (int, float):  # JSON numbers; bool is not one
        raise _Invalid(" must be a number")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise _Invalid(" must be finite")
    return x


def _int(value, minimum: int = -(2**63), maximum: int = 2**63 - 1) -> int:
    if type(value) is not int:
        raise _Invalid(" must be an integer")
    if value < minimum:
        raise _Invalid(f" must be >= {minimum}")
    if value >= 2**63:
        raise _Invalid(" must fit in a 64-bit integer")
    if value > maximum:
        raise _Invalid(f" must be <= {maximum}")
    return value


_count = partial(_int, minimum=0)


def _cx(value) -> dict:
    if not isinstance(value, dict) or "re" not in value:
        raise _Invalid(" must be an object with re/im parts")
    part = ".re"
    try:
        re = _num(value["re"])
        part = ".im"
        return {"re": re, "im": _num(value.get("im", 0))}
    except _Invalid as exc:
        exc.path = part + exc.path
        raise


def _typed(kind, noun: str):
    def checker(value):
        if not isinstance(value, kind):
            raise _Invalid(" must be " + noun)
        return value
    return checker


_str, _bool = _typed(str, "a string"), _typed(bool, "true or false")


def _walk(table: dict, value) -> dict:
    """Check one object against its field table and return the normalized copy."""
    if not isinstance(value, dict):
        raise _Invalid(" must be an object")
    out = {}
    try:
        for key, (check, default) in table.items():
            item = value.get(key, default)
            if item is REQUIRED:
                raise _Invalid("", "missing ")
            if item is not OPTIONAL:
                out[key] = check(item)
    except _Invalid as exc:
        exc.path = "." + key + exc.path
        raise
    return out


def _obj(table: dict):
    return partial(_walk, table)


def _list_of(check):
    def checker(value):
        if not isinstance(value, list) or not value:
            raise _Invalid(" must be a non-empty list")
        try:
            return [check(v) for v in value]
        except _Invalid as exc:
            exc.path = "[]" + exc.path
            raise
    return checker


def _one_of(*choices):
    def checker(value):
        if not isinstance(value, str) or value not in choices:
            raise _Invalid(" " + repr(value) + " unknown")  # the repr may hold braces
        return value
    return checker


def _or_inf(check):
    """Values that may be infinite stay the literal token "inf" when normalized."""
    return lambda value: "inf" if value == "inf" else check(value)


# One field table per scenario object: key -> (checker, default | REQUIRED |
# OPTIONAL). A default is checked like a given value. The tables are the
# reference for the scenario format: these are the ones two subcommands
# share, and each command module holds its own.
_AMPLIFIER = {
    "gain": (_num, REQUIRED), "n_na_v2_per_hz": (_num, REQUIRED), "temp_kelvin": (_num, REQUIRED),
}
_LINK_FIELDS = {
    "z_r_ohms": (_cx, REQUIRED), "z_rt_ohms": (_cx, REQUIRED), "s_it_a2_per_hz": (_num, REQUIRED),
}
_DIMS = {"dims_m": (_int, REQUIRED), "dims_k": (_int, REQUIRED)}


def parse_scenario(path) -> Scenario:
    """Load, validate, and normalize a scenario file."""
    path = Path(path)
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("scenario: top level must be an object")
    present = [key for key in SUBCOMMANDS if key in raw]
    if len(present) != 1:
        raise ParseError(
            f"scenario: expected exactly one of {'/'.join(SUBCOMMANDS)} sections, found {present or 'none'}"
        )
    kind = present[0]
    try:
        data = _walk({"name": (_str, OPTIONAL), **_load(f"{__package__}.commands.{kind}").FIELDS}, raw)
    except _Invalid as exc:
        raise ParseError(f"scenario: {exc.head}{exc.path[1:]}{exc.tail}") from None
    data.setdefault("name", path.stem)
    return Scenario(data["name"], kind, data, path.parent)


def _to_float(canon) -> float:
    return math.inf if canon == "inf" else float(canon)


def _as_complex(canon) -> complex:
    return complex(canon["re"], canon["im"])


def _from_rows(names: tuple, rows: list) -> dict:
    """Report columns from the rows of a ``solve`` that computes one row at a
    time, each row a tuple of cells in the order of ``names``. No rows
    gives empty columns, which render as the header alone."""
    return dict(zip(names, map(list, zip(*rows)))) if rows else {name: [] for name in names}


def _spec(name: str, column: list, flag: bool) -> tuple:
    """One column's %-conversion and the values it converts, once its cells
    pass the float-range rule of every report: a float cell is finite, or it
    is +inf where ``flag`` holds, in a column whose formula gives inf as a
    result (an SNR without noise, the load of an open circuit). Any other
    float cell, a NaN anywhere or an inf elsewhere, raises NumericalError
    naming the column and its row, counted from 1. Cells that are not floats
    (str, None, bool, int) are not checked.

    A column of str alone is its own cells. A column of floats alone
    converts with %.12g after 0.0 + x turns -0.0 into 0: %.12g then prints
    0 and inf as fmt does. Any other column is its fmt cells. A port column
    is a list of row lists of one length: its cells convert as one column,
    and each row's are joined with ";" by one %-template, so the column
    converts with %s.

    The rule sums the cells first: a finite sum, or a +inf one where flag
    holds, clears every cell, since a NaN makes the sum NaN and a -inf makes
    it -inf or NaN. A sum that fails (a str or None cell, an int beyond the
    float range) or does not clear them sends the rows to a scan, which
    finds the first bad cell, or none where only the sum overflowed."""
    types = set(map(type, column))
    port = types == {list}
    cells = list(chain.from_iterable(column)) if port else column
    if port:
        types = set(map(type, cells))
    if types != {str}:
        try:
            total = sum(cells)
            clear = total - total == 0 or flag and total == math.inf
        except (TypeError, OverflowError):
            clear = False
        if not clear:
            for row, value in enumerate(column, 1):
                for x in value if port else (value,):
                    if isinstance(x, float) and not (x - x == 0 or flag and x == math.inf):
                        raise NumericalError(f"{name} row {row} is outside the float range")
    if types == {str}:
        spec, convert = "%s", None
    elif types == {float}:
        spec, convert = "%.12g", (0.0).__add__ if 0.0 in cells else None  # 0.0 in: -0.0 too
    else:
        spec, convert = "%s", fmt
    if not port:
        return spec, cells if convert is None else list(map(convert, cells))
    template = ";".join([spec] * len(column[0]))  # a row of another length fails to format
    rows = column if convert is None else [list(map(convert, row)) for row in column]
    return "%s", [template % tuple(row) for row in rows]


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _quoted(cells: list) -> list:
    """String cells as CSV writes them (RFC 4180): a cell that holds a comma,
    a quote or a line break goes in double quotes, with inner quotes doubled.
    One search over the joined column tells whether any cell does."""
    if not _needs_quotes("".join(cells)):
        return cells
    return ['"' + cell.replace('"', '""') + '"' if _needs_quotes(cell) else cell for cell in cells]


def render_report(columns: dict, fmt_kind: str, title: str, flags: tuple) -> str:
    """Render report columns (name -> list of cells, or of row lists for a
    port column) as CSV or structured text; both carry identical fields.
    Each column passes the float-range rule as it converts, the columns
    named in ``flags`` with +inf allowed (see _spec), so a refused cell
    raises NumericalError before any text is built. Each report has one
    %-template that renders every row."""
    names = list(columns)
    specs, values = zip(*[_spec(name, column, name in flags) for name, column in columns.items()])
    if fmt_kind == "csv":  # float cells never need quoting; %s cells may hold strings
        values = [_quoted(column) if spec == "%s" else column for spec, column in zip(specs, values)]
        row = ",".join(specs) + "\n"
        return ",".join(names) + "\n" + "".join(map(row.__mod__, zip(*values)))
    row = "row %d:\n" + "".join(f"  {name.replace('%', '%%')}: {spec}\n" for name, spec in zip(names, specs))
    return f"report: {title}\n" + "".join(map(row.__mod__, zip(count(1), *values)))
