import collections
import math
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rxfront import cli
from rxfront.core import SingularCircuitError, TheveninSource, ValidationError
from rxfront.frontend import (
    OpAmpModel,
    solve_buffer,
    solve_constant_current,
    solve_inside_out,
)
from rxfront.link import max_available_power
from rxfront.mna import mna_solve, parse_netlist

from oracles import buffer_netlist, constant_current_netlist

SRC = TheveninSource(1.0, 100 + 25j)


def _mna_buffer(source, a, z_id, z_cm, r_out):
    text = buffer_netlist(source.v_oc, source.z_series, a, z_id, z_cm, r_out)
    sol = mna_solve(parse_netlist(text))
    return sol.voltage(3), -sol.element_current("V1")


def _mna_constant_current(source, a, z_id, z_cm, r_out, v_c, r_c):
    text, _, o_node = constant_current_netlist(
        source.v_oc, source.z_series, a, z_id, z_cm, r_out, v_c, r_c
    )
    sol = mna_solve(parse_netlist(text))
    return sol.voltage(o_node), -sol.element_current("Vs")


def test_ideal_buffer_draws_nothing():
    amp = OpAmpModel(math.inf, None, None, 50.0)
    sol = solve_buffer(SRC, amp)
    assert sol.v_out == SRC.v_oc
    assert sol.i_source == 0j
    assert sol.z_effective is None
    assert sol.p_extracted == 0.0


def test_ideal_buffer_with_finite_common_mode_path():
    amp = OpAmpModel(math.inf, None, 1e6 + 0j, 0.0)
    sol = solve_buffer(SRC, amp)
    want = SRC.v_oc * (1e6 + 0j) / (SRC.z_series + 1e6)
    assert abs(sol.v_out - want) < 1e-15
    assert abs(sol.i_source - want / 1e6) < 1e-21
    assert sol.p_extracted > 0.0


def test_buffer_against_nodal_oracle():
    rng = np.random.default_rng(59)
    for _ in range(50):
        v_oc = complex(rng.normal(), rng.normal())
        z_s = complex(rng.uniform(1, 1000), rng.uniform(-300, 300))
        a = 10.0 ** rng.uniform(2, 4)
        z_id = complex(10.0 ** rng.uniform(3, 6), rng.uniform(-100, 100))
        z_cm = None if rng.random() < 0.5 else complex(10.0 ** rng.uniform(3, 6), 0)
        r_out = 0.0 if rng.random() < 0.25 else rng.uniform(1, 100)
        source = TheveninSource(v_oc, z_s)
        sol = solve_buffer(source, OpAmpModel(a, z_id, z_cm, r_out))
        v_ref, i_ref = _mna_buffer(source, a, z_id, z_cm, r_out)
        assert abs(sol.v_out - v_ref) <= 1e-9 * max(abs(v_ref), 1e-30)
        assert abs(sol.i_source - i_ref) <= 1e-9 * max(abs(i_ref), 1e-30)


def test_constant_current_against_nodal_oracle():
    rng = np.random.default_rng(61)
    for _ in range(50):
        v_oc = complex(rng.normal(), rng.normal())
        z_s = complex(rng.uniform(1, 1000), rng.uniform(-300, 300))
        a = 10.0 ** rng.uniform(2, 4)
        z_id = complex(10.0 ** rng.uniform(3, 6), rng.uniform(-100, 100))
        z_cm = None if rng.random() < 0.5 else complex(10.0 ** rng.uniform(3, 6), 0)
        r_out = 0.0 if rng.random() < 0.25 else rng.uniform(1, 100)
        v_c = 0j if rng.random() < 0.5 else complex(rng.normal(), rng.normal())
        r_c = math.inf if rng.random() < 0.25 else 10.0 ** rng.uniform(3, 9)
        source = TheveninSource(v_oc, z_s)
        sol = solve_constant_current(source, OpAmpModel(a, z_id, z_cm, r_out), v_c, r_c)
        v_ref, i_ref = _mna_constant_current(source, a, z_id, z_cm, r_out, v_c, r_c)
        assert abs(sol.v_out - v_ref) <= 1e-9 * max(abs(v_ref), 1e-30)
        assert abs(sol.i_source - i_ref) <= 1e-9 * max(abs(i_ref), 1e-30)


def test_buffer_effective_impedance_closed_form():
    a = 1e4
    z_id = 1e6 + 0j
    z_cm = 1e5 + 0j
    sol = solve_buffer(SRC, OpAmpModel(a, z_id, z_cm, 50.0))
    boosted = z_id * (1.0 + a)
    want = z_cm * boosted / (z_cm + boosted) + SRC.z_series
    assert abs(sol.z_effective - want) < 1e-6 * abs(want)


def test_inside_out_effective_impedance_closed_form():
    a = 1e3
    z_id = 1e6 + 0j
    z_cm = 1e5 + 0j
    sol = solve_inside_out(SRC, OpAmpModel(a, z_id, z_cm, 50.0))
    par = z_id * z_cm / (z_id + z_cm)
    want = par * (1.0 + a) + SRC.z_series
    assert abs(sol.z_effective - want) < 1e-6 * abs(want)


def test_inside_out_is_zero_bias_constant_current():
    amp = OpAmpModel(1e3, 1e6 + 0j, 1e5 + 0j, 50.0)
    a = solve_inside_out(SRC, amp)
    b = solve_constant_current(SRC, amp, 0j, math.inf)
    assert a.v_out == b.v_out
    assert a.i_source == b.i_source


def test_ideal_constant_current_sets_the_loop_current():
    amp = OpAmpModel(math.inf, None, None, 50.0)
    sol = solve_constant_current(SRC, amp, 1.0, 1e6)
    assert sol.i_source == 1.0 / 1e6
    assert sol.v_out == SRC.v_oc - SRC.z_series * (1.0 / 1e6)
    idle = solve_constant_current(SRC, amp, 0j, 1e6)
    assert idle.v_out == SRC.v_oc
    assert idle.p_extracted == 0.0


def test_extracted_power_vanishes_with_gain():
    amp_lo = OpAmpModel(1e2, 1e9 + 0j, None, 50.0)
    amp_hi = OpAmpModel(1e8, 1e9 + 0j, None, 50.0)
    p_lo = solve_buffer(SRC, amp_lo).p_extracted
    p_hi = solve_buffer(SRC, amp_hi).p_extracted
    assert 0.0 < p_hi < p_lo
    assert p_hi < 1e-12 * max_available_power(SRC)


def test_opamp_validation():
    with pytest.raises(ValidationError):
        OpAmpModel(0.0, None, None, 50.0)
    with pytest.raises(ValidationError):
        OpAmpModel(math.nan, None, None, 50.0)
    with pytest.raises(ValidationError):
        OpAmpModel(1e5, -10 + 0j, None, 50.0)
    with pytest.raises(ValidationError):
        OpAmpModel(1e5, None, -1 + 0j, 50.0)
    with pytest.raises(ValidationError):
        OpAmpModel(1e5, None, None, -1.0)
    with pytest.raises(ValidationError):
        solve_constant_current(SRC, OpAmpModel(1e5, None, None, 50.0), 0j, 0.0)


def test_infinite_impedance_accepted_as_none_equivalent():
    a = OpAmpModel(1e4, math.inf, math.inf, 50.0)
    b = OpAmpModel(1e4, None, None, 50.0)
    sa = solve_buffer(SRC, a)
    sb = solve_buffer(SRC, b)
    assert sa.v_out == sb.v_out
    assert sa.i_source == sb.i_source


def test_buffer_singular_input_divider():
    amp = OpAmpModel(math.inf, None, -0j + complex(0, -25) + 0j, 0.0)
    # z_cm = -z_series makes the ideal input divider singular
    src = TheveninSource(1.0, 0 + 25j)
    with pytest.raises((SingularCircuitError, ValidationError)):
        solve_buffer(src, amp)


# The paper's headline number, exactly: scenarios/divider.cir solved in
# rationals. Each parsed float becomes a Fraction, each node and source gives
# one equation written from its own currents, and each complex equation
# splits into a real and an imaginary row for Gauss-Jordan elimination.


def _exact_netlist_values(netlist):
    """{(name, "re" | "im"): Fraction} for each node and each V or E branch."""
    unknowns = list(range(1, netlist.n_nodes + 1))
    unknowns += [el.name for el in netlist.elements if el.kind in ("V", "E")]
    column = {u: k for k, u in enumerate(unknowns)}
    equations = []  # (coefficient per unknown, constant), each a (re, im) pair

    def cx(value):
        return Fraction(value.real), Fraction(value.imag)

    for node in unknowns[: netlist.n_nodes]:  # the currents leaving node sum to zero
        terms, const = collections.defaultdict(lambda: (0, 0)), (0, 0)
        for el in netlist.elements:
            for here, there, sign in ((el.pos, el.neg, 1), (el.neg, el.pos, -1)):
                if here != node:
                    continue
                if el.kind == "Z":
                    re, im = cx(el.value)
                    mag = re * re + im * im
                    y = (re / mag, -im / mag)
                    terms[here] = (terms[here][0] + y[0], terms[here][1] + y[1])
                    if there:
                        terms[there] = (terms[there][0] - y[0], terms[there][1] - y[1])
                elif el.kind == "I":
                    const = (const[0] - sign * cx(el.value)[0], const[1] - sign * cx(el.value)[1])
                else:
                    terms[el.name] = (terms[el.name][0] + sign, terms[el.name][1])
        equations.append((terms, const))
    for el in netlist.elements:  # v(pos) - v(neg) = V, or gain * (v(c+) - v(c-))
        if el.kind not in ("V", "E"):
            continue
        terms, const = collections.defaultdict(lambda: (0, 0)), (0, 0)
        for node, sign in ((el.pos, 1), (el.neg, -1)):
            if node:
                terms[node] = (terms[node][0] + sign, terms[node][1])
        if el.kind == "V":
            const = cx(el.value)
        else:
            gain = cx(el.value)
            for node, sign in ((el.ctrl_pos, -1), (el.ctrl_neg, 1)):
                if node:
                    terms[node] = (terms[node][0] + sign * gain[0], terms[node][1] + sign * gain[1])
        equations.append((terms, const))

    size = 2 * len(unknowns)  # columns 2k and 2k + 1 are the re and im of unknown k
    rows = []
    for terms, (c_re, c_im) in equations:
        real, imag = [Fraction(0)] * (size + 1), [Fraction(0)] * (size + 1)
        for u, (a, b) in terms.items():
            k = 2 * column[u]
            real[k], real[k + 1], imag[k], imag[k + 1] = a, -b, b, a
        real[size], imag[size] = Fraction(c_re), Fraction(c_im)
        rows += [real, imag]
    for k in range(size):
        pivot = next(r for r in range(k, size) if rows[r][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        lead = rows[k][k]
        rows[k] = [v / lead for v in rows[k]]
        for r in range(size):
            if r != k and rows[r][k] != 0:
                factor = rows[r][k]
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[k])]
    values = {("0", "re"): Fraction(0), ("0", "im"): Fraction(0)}
    for u, k in column.items():
        values[str(u), "re"], values[str(u), "im"] = rows[2 * k][size], rows[2 * k + 1][size]
    return values


def _round12(value: Fraction) -> Decimal:
    return Context(prec=12).divide(Decimal(value.numerator), Decimal(value.denominator))


# Cells of the frontend_netlist report that are not the exact value rounded
# to 12 digits, with that exact value; the report's 64-bit solve gets them
# wrong (ROADMAP item 4). This list may only shrink.
KNOWN_WRONG = {
    ("V1", "re"): "-9.99990000099e-15",  # printed -1.0000680839e-14
    ("V1", "im"): "2.49995000074e-27",  # printed 0
    ("2", "im"): "-2.49997500024e-13",  # printed -2.50006398547e-13
    ("3", "im"): "-2.49995000074e-13",  # printed -2.50003898508e-13
    ("E1", "im"): "2.49995000072e-16",  # printed 2.50003512885e-16
}


def test_divider_report_against_the_exact_solution(capsys):
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    assert cli.main(["frontend", "--scenario", str(scenarios / "frontend_netlist.json")]) == 0
    printed = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        _, name, re, im = line.split(",")
        printed[name, "re"], printed[name, "im"] = Decimal(re), Decimal(im)
    exact = _exact_netlist_values(parse_netlist((scenarios / "divider.cir").read_text()))
    assert printed.keys() == exact.keys()
    wrong = {}
    for cell, value in exact.items():
        # within 1e-15 of a rounding boundary, either neighbour is right
        allowed = {_round12(value * (1 + sign * Fraction(1, 10**15))) for sign in (-1, 1)}
        if printed[cell] not in allowed:
            wrong[cell] = _round12(value)
    assert wrong == {cell: Decimal(value) for cell, value in KNOWN_WRONG.items()}
