import collections
import math
import random
import warnings

import numpy as np
import pytest
from oracles import mna_solve_ref

from rxfront.core import NumericalError, ParseError, SingularCircuitError
from rxfront.mna import Element, LinearNetlist, mna_solve, parse_netlist

DIVIDER = """
# series divider, 1 V across 50 + 100 ohm
V1 1 0 1 0
Z1 1 2 50 0
Z2 2 0 100 0
"""


def test_divider_node_voltage():
    sol = mna_solve(parse_netlist(DIVIDER))
    assert abs(sol.voltage(2) - 2.0 / 3.0) < 1e-15
    assert sol.voltage(0) == 0j


def test_branch_current_sign_convention():
    sol = mna_solve(parse_netlist(DIVIDER))
    i = 1.0 / 150.0
    # series elements carry the loop current from + node to - node
    assert abs(sol.element_current("Z1") - i) < 1e-15
    # a delivering battery reports negative current (internal flow - to +)
    assert abs(sol.element_current("V1") + i) < 1e-15


def test_element_power_and_tellegen_balance():
    sol = mna_solve(parse_netlist(DIVIDER))
    assert abs(sol.power_balance()) < 1e-15
    p_z1 = sol.element_power("Z1")
    p_z2 = sol.element_power("Z2")
    p_v1 = sol.element_power("V1")
    assert p_z1.real > 0 and p_z2.real > 0 and p_v1.real < 0
    assert abs(p_z1 + p_z2 + p_v1) < 1e-15
    assert abs(p_z2.real - 0.5 * abs(sol.voltage(2)) ** 2 / 100.0) < 1e-15


def test_current_source_into_resistor():
    sol = mna_solve(parse_netlist("I1 0 1 1e-3 0\nZ1 1 0 1000 0"))
    assert abs(sol.voltage(1) - 1.0) < 1e-15
    assert sol.element_current("I1") == 1e-3 + 0j


def test_complex_impedance_and_single_token_values():
    sol = mna_solve(parse_netlist("V1 1 0 1+0j\nZ1 1 0 50+50j"))
    i = sol.element_current("Z1")
    assert abs(i - 1.0 / (50 + 50j)) < 1e-15


def test_vcvs_follower_gain():
    text = """
    V1 1 0 1 0
    Z1 1 2 100 0
    E1 3 0 2 3 1000
    Z2 3 0 1e4 0
    """
    sol = mna_solve(parse_netlist(text))
    # no current into node 2, so v2 = 1; follower output a/(1+a)
    assert abs(sol.voltage(2) - 1.0) < 1e-12
    assert abs(sol.voltage(3) - 1000.0 / 1001.0) < 1e-12
    assert abs(sol.power_balance()) < 1e-12


def test_reactive_ladder_against_dense_solve():
    rng = np.random.default_rng(53)
    for _ in range(20):
        z1 = complex(rng.uniform(1, 100), rng.uniform(-50, 50))
        z2 = complex(rng.uniform(1, 100), rng.uniform(-50, 50))
        z3 = complex(rng.uniform(1, 100), rng.uniform(-50, 50))
        v = complex(rng.normal(), rng.normal())
        text = (
            f"V1 1 0 {v.real!r} {v.imag!r}\n"
            f"Za 1 2 {z1.real!r} {z1.imag!r}\n"
            f"Zb 2 0 {z2.real!r} {z2.imag!r}\n"
            f"Zc 2 0 {z3.real!r} {z3.imag!r}\n"
        )
        sol = mna_solve(parse_netlist(text))
        z_par = z2 * z3 / (z2 + z3)
        want = v * z_par / (z1 + z_par)
        assert abs(sol.voltage(2) - want) < 1e-12 * max(1.0, abs(want))
        assert abs(sol.power_balance()) < 1e-12 * abs(v)


def test_parse_rejects_unknown_kind():
    with pytest.raises(ParseError):
        parse_netlist("Q1 1 0 50 0")


def test_parse_rejects_zero_impedance():
    with pytest.raises(ParseError):
        parse_netlist("Z1 1 0 0 0")


def test_parse_rejects_duplicate_names():
    with pytest.raises(ParseError):
        LinearNetlist(parse_netlist("Z1 1 0 50 0\nZ1 1 0 60 0").elements)


def test_parse_rejects_short_lines_and_bad_numbers():
    with pytest.raises(ParseError):
        parse_netlist("Z1 1 0")
    with pytest.raises(ParseError):
        parse_netlist("Z1 1 0 fifty 0")
    with pytest.raises(ParseError):
        parse_netlist("E1 1 0 2 0 ")
    with pytest.raises(ParseError):
        parse_netlist("Z1 one 0 50 0")


def test_netlist_requires_contiguous_nodes():
    with pytest.raises(ParseError):
        parse_netlist("V1 1 0 1 0\nZ1 1 5 50 0")


def test_comments_and_blank_lines_are_skipped():
    net = parse_netlist("# top\n\nV1 1 0 1 0\n  # mid\nZ1 1 0 50 0\n")
    assert len(net.elements) == 2


def test_singular_circuit_reports_isolated_node():
    with pytest.raises(SingularCircuitError) as err:
        mna_solve(parse_netlist("V1 1 0 1 0\nZ1 2 2 10 0"))
    assert "node 2" in str(err.value)


def test_floating_voltage_loop_is_singular():
    # two batteries forcing inconsistent voltage on the same node pair
    with pytest.raises((SingularCircuitError, NumericalError)):
        mna_solve(parse_netlist("V1 1 0 1 0\nV2 1 0 2 0"))


def test_voltage_lookup_unknown_node():
    sol = mna_solve(parse_netlist(DIVIDER))
    with pytest.raises(KeyError):
        sol.voltage(9)
    with pytest.raises(KeyError):
        sol.element_current("Z9")


def test_netlist_over_the_matrix_size_limit_is_a_parse_error():
    # 11,600 contiguous nodes: an MNA matrix of 11,600^2 complex entries (2.15 GB)
    text = "\n".join(f"Z{i} {i} {i - 1} 1 0" for i in range(1, 11_601))
    with pytest.raises(ParseError, match="byte matrix limit"):
        parse_netlist(text)


@pytest.mark.parametrize("top, refused", [(11_584, False), (11_585, True)])
def test_the_size_limit_charges_the_matrix_with_its_ground_row(top, refused):
    # mna_solve allocates (top + 1)^2 complex entries: 11,585^2 * 16 fits 2 GiB, 11,586^2 * 16 does not
    text = "\n".join(f"Z{i} {i} {i - 1} 1 0" for i in range(1, top + 1))
    if refused:
        with pytest.raises(ParseError, match="byte matrix limit"):
            parse_netlist(text)
    else:
        assert parse_netlist(text).n_nodes == top


def test_a_few_skipped_node_indices_are_listed():
    with pytest.raises(ParseError, match=r"skips node indices \[2, 3\]"):
        parse_netlist("V1 1 0 1 0\nZ1 4 0 1 0\n")


# Overflowing netlists: the first solves to -inf, the second stamps an
# infinite admittance. Each residual ratio is NaN.
OVERFLOWING = {
    "infinite_solution": "I1 1 0 1e308 0\nZ1 1 0 1e308 0\nZ2 1 0 1e308 0",
    "infinite_stamp": "Z1 1 0 1e-308 0\nZ2 1 0 1e-308 0",
}


@pytest.mark.parametrize("text", OVERFLOWING.values(), ids=OVERFLOWING)
def test_overflow_is_refused_without_warnings(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^solution residual nan exceeds 1e-10$"):
            mna_solve(parse_netlist(text))


def _random_netlist(rng):
    """1 to 8 Z, V, I and E elements on up to 7 nodes, renumbered so that the
    used nodes are contiguous. One netlist in 20 joins only ground to ground."""
    top = rng.randint(1, 7)
    ground_only = rng.random() < 0.05
    raw = []
    for i in range(rng.randint(1, 8)):
        kind = rng.choice("ZI" if ground_only else "ZZZVIE")
        nodes = [0 if ground_only else rng.randint(0, top) for _ in range(4 if kind == "E" else 2)]
        if rng.random() < 0.1:
            nodes[1] = nodes[0]  # joins a node to itself
        if rng.random() < 0.3:
            value = complex(rng.choice([1, 2, 50, 1000]))
        else:
            value = complex(rng.uniform(-1, 1) * 10 ** rng.uniform(-3, 6), rng.uniform(-1, 1) * 10 ** rng.uniform(-3, 6))
        raw.append((kind, f"{kind}{i}", nodes, value))
    renumber = {node: new for new, node in enumerate(sorted({0, *(n for *_, nodes, _ in raw for n in nodes)}))}
    elements = []
    for kind, name, nodes, value in raw:
        pos, neg, *ctrl = (renumber[n] for n in nodes)
        elements.append(Element(kind, name, pos, neg, value, *ctrl))
    return LinearNetlist(tuple(elements))


def _bits(values: dict) -> dict:
    return {key: (value.real.hex(), value.imag.hex()) for key, value in values.items()}


def test_solve_matches_the_ground_eliminated_system_bit_for_bit():
    rng = random.Random(4_321)
    outcomes = collections.Counter()
    for _ in range(3_200):
        netlist = _random_netlist(rng)
        want = mna_solve_ref(netlist)
        try:
            sol = mna_solve(netlist)
        except SingularCircuitError as exc:
            got = f"singular: {exc}"
        except NumericalError as exc:
            got = f"numerical: {exc}"
        else:
            got = sol.node_voltages, sol.branch_currents
        if isinstance(want, str):
            assert got == want, netlist
            outcomes["isolated node" if want.endswith("appears isolated") else want] += 1
        else:
            assert not isinstance(got, str), (got, netlist)
            assert [_bits(part) for part in got] == [_bits(part) for part in want], netlist
            outcomes["ground only" if got[0] == {0: 0j} and not got[1] else "solved"] += 1
    assert min(outcomes.values()) >= 50 and len(outcomes) == 4, outcomes
