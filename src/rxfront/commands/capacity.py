"""``capacity``: Shannon capacity of a power-limited AWGN channel over a bandwidth sweep."""

from __future__ import annotations

from ..scenario import REQUIRED, Scenario, _from_rows, _list_of, _num, _obj

_CAPACITY = {
    "power": (_num, REQUIRED), "noise_density": (_num, REQUIRED),
    "bandwidths": (_list_of(_num), REQUIRED),
}
FIELDS = {"capacity": (_obj(_CAPACITY), REQUIRED)}
FLAGS = ()


def build(scenario: Scenario):
    from .. import shannon

    section = scenario.data["capacity"]
    power = section["power"]
    n0 = section["noise_density"]
    bound = shannon.capacity_bound(power, n0)  # checks power and noise_density before any bandwidth
    return bound, [shannon.AwgnChannelSpec(power, bandwidth, n0) for bandwidth in section["bandwidths"]]


def solve(model):
    from .. import shannon

    bound, specs = model
    rows = [(spec.bandwidth, shannon.capacity(spec), bound, shannon.eb_n0(spec) if spec.power > 0 else None)
            for spec in specs]
    return _from_rows(("bandwidth", "capacity_bits", "capacity_bound_bits", "eb_n0"), rows), True
