import json
import math
import random
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from rxfront import cli
from rxfront.shannon import AwgnChannelSpec, capacity, capacity_bound, eb_n0
from rxfront.core import ValidationError

LN2 = math.log(2.0)


def test_capacity_known_point():
    # B=2, P=10, N0=1: 2*log2(6)
    assert capacity(AwgnChannelSpec(10.0, 2.0, 1.0)) == 5.169925001442312


def test_capacity_zero_power():
    assert capacity(AwgnChannelSpec(0.0, 1e6, 1e-18)) == 0.0


def test_capacity_bound_is_wideband_limit():
    assert capacity_bound(1.0, 1.0) == 1.4426950408889634
    # capacity increases with bandwidth but never crosses the bound
    caps = [capacity(AwgnChannelSpec(1.0, b, 1.0)) for b in np.logspace(0, 8, 33)]
    assert all(c < capacity_bound(1.0, 1.0) for c in caps)
    assert all(b > a for a, b in zip(caps, caps[1:]))


def test_eb_n0_known_point():
    assert eb_n0(AwgnChannelSpec(10.0, 2.0, 1.0)) == 1.934264036172708


def test_eb_n0_exceeds_ln2():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = 10.0 ** rng.uniform(-6, 3)
        b = 10.0 ** rng.uniform(0, 7)
        n0 = 10.0 ** rng.uniform(-21, -9)
        assert eb_n0(AwgnChannelSpec(p, b, n0)) > LN2


def test_eb_n0_undefined_at_zero_power():
    with pytest.raises(ValidationError):
        eb_n0(AwgnChannelSpec(0.0, 1.0, 1.0))


def test_spec_validation():
    with pytest.raises(ValidationError):
        AwgnChannelSpec(-1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        AwgnChannelSpec(1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        AwgnChannelSpec(1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        AwgnChannelSpec(math.inf, 1.0, 1.0)


def test_capacity_bound_argument_checks():
    with pytest.raises(ValidationError):
        capacity_bound(-1.0, 1.0)
    with pytest.raises(ValidationError):
        capacity_bound(1.0, 0.0)


def _exact(power, bandwidth, noise_density):
    """Capacity and Eb/N0 in 50-digit decimal, from the floats' exact values."""
    with localcontext() as ctx:
        ctx.prec = 50
        p, b, n0 = map(Decimal, (power, bandwidth, noise_density))
        x = p / (b * n0)
        log1p = x - x * x / 2 + x * x * x / 3 if x < Decimal("1e-20") else (1 + x).ln()
        c = b * log1p / Decimal(2).ln()
        return float(c), float(p / (c * n0))


# P/(B*N0) overflows, underflows, or B*N0 itself leaves the normal range
@pytest.mark.parametrize("power,bandwidth,noise_density", [
    (1e308, 0.5, 1.0), (1e-300, 1e300, 1.0), (1e308, 1e308, 10.0), (1e-10, 1e-200, 1e-120),
    (1.0, 1e-300, 1e-10), (1.0, 1e-300, 1e-300), (1e-300, 1e150, 1e150), (5e-324, 1.0, 1.0),
])
def test_capacity_outside_the_normal_range_of_its_quotient(power, bandwidth, noise_density):
    spec = AwgnChannelSpec(power, bandwidth, noise_density)
    want_c, want_eb = _exact(power, bandwidth, noise_density)
    assert math.isclose(capacity(spec), want_c, rel_tol=1e-14)
    if math.isinf(want_eb):  # Eb/N0 itself is outside the float range: NaN, which a report refuses
        assert math.isnan(eb_n0(spec))
    else:
        assert math.isclose(eb_n0(spec), want_eb, rel_tol=1e-14)


# A normal P/(B*N0) whose capacity underflows: to 0, where P/(C*N0) divided
# by zero, and to the subnormal 1.5e-323, where it gave 0.623, below ln 2;
# and a subnormal quotient, with the same capacity of 0
@pytest.mark.parametrize("power,bandwidth,noise_density", [
    (3.4196045280945803e-228, 4.141057072880865e-101, 7.77400024462095e+132),
    (4.5422101735325105e-34, 1.66724836579262e-108, 4.917704201787063e+289),
    (1e-300, 1.0, 1e30),
])
def test_eb_n0_where_the_capacity_is_not_a_normal_float(tmp_path, capsys, power, bandwidth, noise_density):
    spec = AwgnChannelSpec(power, bandwidth, noise_density)
    assert capacity(spec) < sys.float_info.min
    want = _exact(power, bandwidth, noise_density)[1]
    assert math.isclose(eb_n0(spec), want, rel_tol=1e-14) and eb_n0(spec) >= LN2
    scenario = tmp_path / "capacity.json"
    scenario.write_text(json.dumps(
        {"capacity": {"power": power, "noise_density": noise_density, "bandwidths": [bandwidth]}}))
    assert cli.main(["capacity", "--scenario", str(scenario)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[3] == cli.fmt(want) == "0.69314718056"


def test_capacity_report_prints_the_exact_values_to_12_digits(tmp_path, capsys):
    for power, bandwidth in ((1e308, 0.5), (1e-300, 1e300)):
        scenario = tmp_path / "capacity.json"
        scenario.write_text(json.dumps(
            {"capacity": {"power": power, "noise_density": 1.0, "bandwidths": [bandwidth]}}))
        assert cli.main(["capacity", "--scenario", str(scenario)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1::2] == [cli.fmt(value) for value in _exact(power, bandwidth, 1.0)]


def test_capacity_is_the_direct_formula_bit_for_bit_where_its_quotient_is_normal():
    # where B*N0, the quotient and the capacity's steps are normal floats,
    # capacity is the direct formula, to the bit; where the capacity itself
    # is subnormal, it is the exact value rounded once, where the direct
    # formula loses digits
    rng = random.Random(28)
    draws = [tuple(10.0 ** rng.uniform(-300, 300) for _ in range(3)) for _ in range(50_000)]
    tiny = sys.float_info.min
    draws += [(tiny, 1.0, 1.0), (1.5 * tiny, 1.0, 1.0), (2.0**1023, 1.0, 1.0), (sys.float_info.max, 1.0, 1.0)]
    compared = subnormal = 0
    for power, bandwidth, noise_density in draws:
        noise = bandwidth * noise_density
        if tiny <= noise < math.inf and tiny <= power / noise < math.inf:
            nats = bandwidth * math.log1p(power / noise)
            got = capacity(AwgnChannelSpec(power, bandwidth, noise_density))
            if tiny <= nats / LN2 and tiny <= nats:
                assert got == nats / LN2, (power, bandwidth, noise_density)
                compared += 1
            elif 0 < nats / LN2 < tiny:
                assert got == _exact(power, bandwidth, noise_density)[0], (power, bandwidth, noise_density)
                subnormal += 1
    assert compared > 25_000 and subnormal > 10
