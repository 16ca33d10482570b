"""The value types' contract: keyword construction with defaults, immutability,
repr, equality, hashing and copying.

Every public class of the package that is not an error type has a case here,
and so do the three value types the package does not export. Equality and the
hash compare the field tuple; the array types (ArrayModel, TerminationStrategy,
ArrayTermination) compare by identity, since their fields are numpy arrays.
"""

import copy
from pathlib import Path

import numpy as np
import pytest

import rxfront
from rxfront import arrays, cli, mna

_GRID = rxfront.FrequencyGrid((1e6,))
_ZMS = rxfront.ImpedanceMatrixSeries(_GRID, [[[50 + 1j, 5j], [5j, 40 + 0j]]], (1, 1))
_ELEMENTS = (mna.Element("V", "V1", 1, 0, 1 + 0j), mna.Element("Z", "Z1", 1, 0, 50 + 0j))
_NETLIST = mna.LinearNetlist(_ELEMENTS)


class Case:
    """kwargs: the keywords the test constructs with (defaults left out);
    fields: every field's stored value, in field order; other: keywords of an
    instance that differs; text: the expected repr, or None where a field is
    an array and the repr is built from numpy's; hashable: False where a field
    is a dict or an array, so that hash() raises TypeError as for any tuple
    holding one; identity: equality is identity."""

    def __init__(self, kwargs, fields, other, text=None, hashable=True, identity=False):
        self.kwargs, self.fields, self.other = kwargs, fields, other
        self.text, self.hashable, self.identity = text, hashable, identity


CASES = {
    "ComplexImpedance": Case(
        {"re": 1.5}, {"re": 1.5, "im": 0.0}, {"re": 1.5, "im": 2.0},
        "ComplexImpedance(re=1.5, im=0.0)"),
    "TheveninSource": Case(
        {"v_oc": 2, "z_series": 50}, {"v_oc": 2 + 0j, "z_series": 50 + 0j}, {"v_oc": 2, "z_series": 51},
        "TheveninSource(v_oc=(2+0j), z_series=(50+0j))"),
    "FrequencyGrid": Case(
        {"points": [1, 2.5]}, {"points": (1.0, 2.5)}, {"points": (1.0, 3.0)},
        "FrequencyGrid(points=(1.0, 2.5))"),
    "ImpedanceMatrixSeries": Case(
        {"grid": _GRID, "matrices": [[[50]]]},
        {"grid": _GRID, "matrices": np.array([[[50 + 0j]]]), "dims": (0, 1)},
        {"grid": _GRID, "matrices": [[[51]]]}, hashable=False),
    "ValidationReport": Case(
        {"check": "passivity", "passed": True, "tol": 1e-9, "deviations": (0.0, 1e-12), "worst_index": 1},
        {"check": "passivity", "passed": True, "tol": 1e-9, "deviations": (0.0, 1e-12), "worst_index": 1},
        {"check": "passivity", "passed": False, "tol": 1e-9, "deviations": (0.0, 1e-12), "worst_index": 1},
        "ValidationReport(check='passivity', passed=True, tol=1e-09, deviations=(0.0, 1e-12), worst_index=1)"),
    "AwgnChannelSpec": Case(
        {"power": 1.0, "bandwidth": 2.0, "noise_density": 0.5},
        {"power": 1.0, "bandwidth": 2.0, "noise_density": 0.5},
        {"power": 1.0, "bandwidth": 3.0, "noise_density": 0.5},
        "AwgnChannelSpec(power=1.0, bandwidth=2.0, noise_density=0.5)"),
    "SingleLink": Case(
        {"z_r": 5 + 37j, "z_rt": 10, "s_it": 1e-12}, {"z_r": 5 + 37j, "z_rt": 10 + 0j, "s_it": 1e-12},
        {"z_r": 5 + 37j, "z_rt": 11, "s_it": 1e-12},
        "SingleLink(z_r=(5+37j), z_rt=(10+0j), s_it=1e-12)"),
    "AmplifierNoiseModel": Case(
        {"gain": 10.0, "n_na": 1e-9, "temperature": 290.0},
        {"gain": 10.0, "n_na": 1e-9, "temperature": 290.0},
        {"gain": 10.0, "n_na": 0.0, "temperature": 290.0},
        "AmplifierNoiseModel(gain=10.0, n_na=1e-09, temperature=290.0)"),
    "SearchBox": Case(
        {"r_max": 500.0, "x_max": 50.0}, {"r_max": 500.0, "x_max": 50.0, "include_open": True},
        {"r_max": 500.0, "x_max": 50.0, "include_open": False},
        "SearchBox(r_max=500.0, x_max=50.0, include_open=True)"),
    "SignalGenerator": Case(
        {"v_s": 1e-6, "r_s": 50.0, "temperature": 290.0},
        {"v_s": 1e-6 + 0j, "r_s": 50.0, "temperature": 290.0},
        {"v_s": 1e-6, "r_s": 75.0, "temperature": 290.0},
        "SignalGenerator(v_s=(1e-06+0j), r_s=50.0, temperature=290.0)"),
    "VoltageAmplifierStage": Case(
        {"gain": 100.0, "n_na": 1e-16, "r_load_in": float("inf"), "r_out": 50.0},
        {"gain": 100.0, "n_na": 1e-16, "r_load_in": float("inf"), "r_out": 50.0},
        {"gain": 100.0, "n_na": 1e-16, "r_load_in": 1e3, "r_out": 50.0},
        "VoltageAmplifierStage(gain=100.0, n_na=1e-16, r_load_in=inf, r_out=50.0)"),
    "Element": Case(
        {"kind": "Z", "name": "Z1", "pos": 1, "neg": 0, "value": 50 + 0j},
        {"kind": "Z", "name": "Z1", "pos": 1, "neg": 0, "value": 50 + 0j, "ctrl_pos": 0, "ctrl_neg": 0},
        {"kind": "Z", "name": "Z1", "pos": 2, "neg": 0, "value": 50 + 0j},
        "Element(kind='Z', name='Z1', pos=1, neg=0, value=(50+0j), ctrl_pos=0, ctrl_neg=0)"),
    "LinearNetlist": Case(
        {"elements": list(_ELEMENTS)}, {"elements": _ELEMENTS}, {"elements": _ELEMENTS[:1] + (
            mna.Element("Z", "Z1", 1, 0, 75 + 0j),)},
        "LinearNetlist(elements=(Element(kind='V', name='V1', pos=1, neg=0, value=(1+0j), ctrl_pos=0, "
        "ctrl_neg=0), Element(kind='Z', name='Z1', pos=1, neg=0, value=(50+0j), ctrl_pos=0, ctrl_neg=0)))"),
    "MnaSolution": Case(
        {"netlist": _NETLIST, "node_voltages": {0: 0j, 1: 1 + 0j}, "branch_currents": {"V1": -0.02 + 0j}},
        {"netlist": _NETLIST, "node_voltages": {0: 0j, 1: 1 + 0j}, "branch_currents": {"V1": -0.02 + 0j}},
        {"netlist": _NETLIST, "node_voltages": {0: 0j, 1: 2 + 0j}, "branch_currents": {"V1": -0.02 + 0j}},
        "MnaSolution(netlist=LinearNetlist(elements=(Element(kind='V', name='V1', pos=1, neg=0, "
        "value=(1+0j), ctrl_pos=0, ctrl_neg=0), Element(kind='Z', name='Z1', pos=1, neg=0, value=(50+0j), "
        "ctrl_pos=0, ctrl_neg=0))), node_voltages={0: 0j, 1: (1+0j)}, branch_currents={'V1': (-0.02+0j)})",
        hashable=False),
    "OpAmpModel": Case(
        {"open_loop_gain": 1e5, "z_id": 2e6},
        {"open_loop_gain": 1e5, "z_id": 2e6 + 0j, "z_cm": None, "r_out": 0.0},
        {"open_loop_gain": 1e5, "z_id": 1e6},
        "OpAmpModel(open_loop_gain=100000.0, z_id=(2000000+0j), z_cm=None, r_out=0.0)"),
    "FrontEndSolution": Case(
        {"v_out": 1j, "i_source": 0j, "z_effective": None, "p_extracted": 0.0},
        {"v_out": 1j, "i_source": 0j, "z_effective": None, "p_extracted": 0.0},
        {"v_out": 1j, "i_source": 0j, "z_effective": None, "p_extracted": 1.0},
        "FrontEndSolution(v_out=1j, i_source=0j, z_effective=None, p_extracted=0.0)"),
    "TransformerMatch": Case(
        {"turns_ratio": 3.0}, {"turns_ratio": 3.0, "cancel_reactance": False},
        {"turns_ratio": 3.0, "cancel_reactance": True},
        "TransformerMatch(turns_ratio=3.0, cancel_reactance=False)"),
    "TerminationStrategy": Case(
        {"kind": "open_circuit"}, {"kind": "open_circuit", "z_l": None}, {"kind": "open_circuit"},
        "TerminationStrategy(kind='open_circuit', z_l=None)", identity=True),
    "ArrayModel": Case(
        {"zms": _ZMS, "i_t": [1]}, {"zms": _ZMS, "i_t": np.array([[1 + 0j]])}, {"zms": _ZMS, "i_t": [1]},
        identity=True),
    "ArrayTermination": Case(
        {"voltages": np.ones((1, 1)), "power": np.zeros(1), "offdiag_ratio": np.zeros(1)},
        {"voltages": np.ones((1, 1)), "power": np.zeros(1), "offdiag_ratio": np.zeros(1)},
        {"voltages": np.ones((1, 1)), "power": np.zeros(1), "offdiag_ratio": np.zeros(1)},
        identity=True),
    "Scenario": Case(
        {"name": "demo", "kind": "capacity", "data": {"name": "demo"}, "base_dir": Path("scenarios")},
        {"name": "demo", "kind": "capacity", "data": {"name": "demo"}, "base_dir": Path("scenarios")},
        {"name": "demo", "kind": "link", "data": {"name": "demo"}, "base_dir": Path("scenarios")},
        f"Scenario(name='demo', kind='capacity', data={{'name': 'demo'}}, base_dir={Path('scenarios')!r})",
        hashable=False),
}
_UNEXPORTED = {"Element": mna.Element, "ArrayTermination": arrays.ArrayTermination, "Scenario": cli.Scenario}


def _class(name: str) -> type:
    return _UNEXPORTED[name] if name in _UNEXPORTED else getattr(rxfront, name)


def _public_value_classes() -> set:
    objects = {name: getattr(rxfront, name) for name in rxfront.__all__}
    return {name for name, obj in objects.items() if isinstance(obj, type) and not issubclass(obj, Exception)}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def test_every_public_value_class_has_a_case():
    assert _public_value_classes() == set(CASES) - set(_UNEXPORTED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_type_contract(name):
    cls, case = _class(name), CASES[name]
    obj = cls(**case.kwargs)
    twin = cls(**case.kwargs)
    other = cls(**case.other)

    # keyword construction: every field stored, defaults filled in, in field order
    assert all(_same(getattr(obj, field), value) for field, value in case.fields.items())
    assert all(_same(getattr(cls(**case.fields), f), v) for f, v in case.fields.items())

    # immutable: fields can be neither assigned nor deleted, nor attributes added
    first = next(iter(case.fields))
    with pytest.raises(AttributeError):
        setattr(obj, first, case.fields[first])
    with pytest.raises(AttributeError):
        delattr(obj, first)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert _same(getattr(obj, first), case.fields[first])

    # repr: Name(field=value, ...) in field order
    text = case.text
    if text is None:
        text = f"{name}(" + ", ".join(f"{f}={getattr(obj, f)!r}" for f in case.fields) + ")"
    assert repr(obj) == text

    # equality and hash compare the field tuple, or identity
    if case.identity:
        assert obj == obj and obj != twin and obj != other
        assert hash(obj) == hash(obj) and hash(obj) != hash(twin)
    else:
        assert obj == twin and not obj != twin
        assert obj != other and not obj == other
        assert obj != case.fields  # another type never compares equal, not even a subclass
        assert obj != type(name, (cls,), {})(**case.kwargs)
        if case.hashable:
            assert hash(obj) == hash(twin)
        else:
            with pytest.raises(TypeError):
                hash(obj)

    # copy.copy gives an object of the same type with the same fields
    dup = copy.copy(obj)
    assert type(dup) is cls
    assert all(getattr(dup, f) is getattr(obj, f) for f in case.fields)
    if not case.identity:
        assert dup == obj
