"""Modified nodal analysis for small linear phasor circuits.

Netlist lines are ``<element> <node+> <node-> <value...>`` with node 0 as
ground. Element kinds, taken from the first character of the element name:

  Z  impedance in complex ohms
  V  independent voltage source in volts (+ terminal at node+)
  I  independent current source; the stated current flows node+ -> node-
     through the source
  E  voltage-controlled voltage source: ``E<name> n+ n- c+ c- gain``

Values are a single complex token (``50+10j``) or two real tokens (re im).
Lines starting with ``#`` and blank lines are ignored. Parsing needs no
numpy; only the solve imports it, to stamp the system for ``core.solve_circuit``.
"""

from __future__ import annotations

import math

from .core import MAX_ARRAY_BYTES, Frozen, NumericalError, ParseError, SingularCircuitError, solve_circuit

RESIDUAL_TOL = 1e-10
_LISTED_GAPS = 20  # a parse error lists the skipped node indices up to this many


class Element(Frozen):
    _fields = ("kind", "name", "pos", "neg", "value", "ctrl_pos", "ctrl_neg")

    def __init__(self, kind: str, name: str, pos: int, neg: int, value: complex,
                 ctrl_pos: int = 0, ctrl_neg: int = 0) -> None:
        self._store(kind, name, pos, neg, value, ctrl_pos, ctrl_neg)


class LinearNetlist(Frozen):
    _fields = ("elements",)

    def __init__(self, elements: tuple) -> None:
        names = set()
        nodes = {0}
        for el in elements:
            if el.name in names:
                raise ParseError(f"duplicate element name {el.name!r}")
            names.add(el.name)
            nodes.update((el.pos, el.neg))
            if el.kind == "E":
                nodes.update((el.ctrl_pos, el.ctrl_neg))
        if not elements:
            raise ParseError("netlist has no elements")
        top = max(nodes)
        skipped = top + 1 - len(nodes)  # decided without building range(top + 1)
        if skipped > _LISTED_GAPS:
            raise ParseError(f"netlist skips {skipped} node indices below {top}")
        if skipped:
            raise ParseError(f"netlist skips node indices {sorted(set(range(top + 1)) - nodes)}")
        sources = sum(el.kind in ("V", "E") for el in elements)
        if (top + 1 + sources) ** 2 * 16 > MAX_ARRAY_BYTES:  # the complex matrix, ground included, before it exists
            raise ParseError(
                f"netlist with {top} nodes and {sources} sources exceeds the {MAX_ARRAY_BYTES}-byte matrix limit"
            )
        self._store(tuple(elements))

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes."""
        top = 0
        for el in self.elements:
            top = max(top, el.pos, el.neg)
            if el.kind == "E":
                top = max(top, el.ctrl_pos, el.ctrl_neg)
        return top


def _parse_node(token: str, lineno: int) -> int:
    try:
        node = int(token)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad node index {token!r}") from exc
    if node < 0:
        raise ParseError(f"line {lineno}: node index must be nonnegative")
    return node


def _parse_value(tokens: list, lineno: int) -> complex:
    try:
        if len(tokens) == 1:
            value = complex(tokens[0])
        elif len(tokens) == 2:
            value = complex(float(tokens[0]), float(tokens[1]))
        else:
            raise ParseError(f"line {lineno}: expected one complex or two real value tokens")
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad numeric value {' '.join(tokens)!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(f"line {lineno}: value must be finite")
    return value


def parse_netlist(text: str) -> LinearNetlist:
    """Parse netlist text into a LinearNetlist."""
    elements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        name = tokens[0]
        kind = name[0].upper()
        if kind not in ("Z", "V", "I", "E"):
            raise ParseError(f"line {lineno}: unknown element kind {name!r}")
        if len(tokens) < 4:
            raise ParseError(f"line {lineno}: too few fields")
        pos = _parse_node(tokens[1], lineno)
        neg = _parse_node(tokens[2], lineno)
        if kind == "E":
            if len(tokens) < 6:
                raise ParseError(f"line {lineno}: VCVS needs control nodes and gain")
            ctrl_pos = _parse_node(tokens[3], lineno)
            ctrl_neg = _parse_node(tokens[4], lineno)
            value = _parse_value(tokens[5:], lineno)
            elements.append(Element(kind, name, pos, neg, value, ctrl_pos, ctrl_neg))
            continue
        value = _parse_value(tokens[3:], lineno)
        if kind == "Z" and value == 0:
            raise ParseError(f"line {lineno}: impedance must be nonzero")
        elements.append(Element(kind, name, pos, neg, value))
    return LinearNetlist(tuple(elements))


class MnaSolution(Frozen):
    """Node voltages (ground included) and source branch currents.

    Branch currents for V and E elements flow from node+ through the element
    to node-; a battery delivering current therefore reports a negative value.
    """

    _fields = ("netlist", "node_voltages", "branch_currents")

    def __init__(self, netlist: LinearNetlist, node_voltages: dict, branch_currents: dict) -> None:
        self._store(netlist, node_voltages, branch_currents)

    def voltage(self, node: int) -> complex:
        return self.node_voltages[node]

    def element_current(self, name: str) -> complex:
        """Current through the named element from node+ to node-."""
        for el in self.netlist.elements:
            if el.name != name:
                continue
            if el.kind in ("V", "E"):
                return self.branch_currents[name]
            if el.kind == "I":
                return el.value
            v_drop = self.node_voltages[el.pos] - self.node_voltages[el.neg]
            return v_drop / el.value
        raise KeyError(name)

    def element_power(self, name: str) -> complex:
        """Complex power absorbed by the named element (passive sign convention)."""
        for el in self.netlist.elements:
            if el.name == name:
                v_drop = self.node_voltages[el.pos] - self.node_voltages[el.neg]
                return 0.5 * v_drop * self.element_current(name).conjugate()
        raise KeyError(name)

    def power_balance(self) -> complex:
        """Sum of absorbed complex powers over all elements; ~0 by conservation."""
        return sum(self.element_power(el.name) for el in self.netlist.elements)


def _suspect_node(matrix: np.ndarray, n_nodes: int) -> int:
    import numpy as np

    for idx in range(n_nodes):
        if not np.any(matrix[idx]) or not np.any(matrix[:, idx]):
            return idx + 1
    return 0


def _max_abs(values) -> float:
    """Largest magnitude in an array, 0 in an empty one, NaN if any is NaN."""
    return abs(values).max(initial=0.0)


def mna_solve(netlist: LinearNetlist) -> MnaSolution:
    """Solve the netlist; raises SingularCircuitError when no unique solution exists."""
    import numpy as np

    n = netlist.n_nodes
    branches = [el for el in netlist.elements if el.kind in ("V", "E")]
    # ground is row and column 0, sliced off after stamping; branch k is n + 1 + k
    size = n + 1 + len(branches)
    matrix = np.zeros((size, size), dtype=np.complex128)
    rhs = np.zeros(size, dtype=np.complex128)
    row = n
    with np.errstate(all="ignore"):  # an overflow shows in the residual test
        for el in netlist.elements:
            a, b = el.pos, el.neg
            if el.kind == "Z":
                y = 1.0 / el.value
                matrix[a, a] += y
                matrix[b, b] += y
                matrix[a, b] -= y
                matrix[b, a] -= y
            elif el.kind == "I":
                rhs[a] -= el.value
                rhs[b] += el.value
            else:
                row += 1
                matrix[a, row] += 1.0
                matrix[row, a] += 1.0
                matrix[b, row] -= 1.0
                matrix[row, b] -= 1.0
                if el.kind == "V":
                    rhs[row] = el.value
                else:
                    matrix[row, el.ctrl_pos] -= el.value
                    matrix[row, el.ctrl_neg] += el.value
    matrix, rhs = matrix[1:, 1:], rhs[1:]

    try:
        values = solve_circuit(matrix, rhs, "circuit matrix")
    except SingularCircuitError as exc:
        node = _suspect_node(matrix, n)
        if not node:
            raise
        raise SingularCircuitError(f"{exc}; node {node} appears isolated") from exc

    solution = np.array(values, dtype=np.complex128)
    with np.errstate(all="ignore"):  # a NaN or inf ratio fails the test below
        residual = _max_abs(matrix @ solution - rhs)
        scale = _max_abs(abs(matrix).sum(axis=1)) * _max_abs(solution) + _max_abs(rhs)
        ratio = residual / scale if scale != 0 else 0.0
    if not ratio <= RESIDUAL_TOL:
        raise NumericalError(f"solution residual {ratio:.3e} exceeds {RESIDUAL_TOL}")

    voltages = dict(enumerate([0j, *values[:n]]))
    currents = {el.name: value for el, value in zip(branches, values[n:])}
    return MnaSolution(netlist, voltages, currents)
