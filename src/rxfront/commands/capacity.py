"""``capacity``: Shannon capacity of a power-limited AWGN channel over a bandwidth sweep."""

from __future__ import annotations

from ..scenario import REQUIRED, Scenario, _from_rows, _list_of, _num, _obj

_CAPACITY = {
    "power": (_num, REQUIRED), "noise_density": (_num, REQUIRED),
    "bandwidths": (_list_of(_num), REQUIRED),
}
FIELDS = {"capacity": (_obj(_CAPACITY), REQUIRED)}
FLAGS = ()


def run(scenario: Scenario):
    from .. import shannon

    section = scenario.data["capacity"]
    power = section["power"]
    n0 = section["noise_density"]
    bound = shannon.capacity_bound(power, n0)

    def row(bandwidth: float) -> tuple:
        spec = shannon.AwgnChannelSpec(power, bandwidth, n0)
        return bandwidth, shannon.capacity(spec), bound, shannon.eb_n0(spec) if power > 0 else None

    rows = [row(bandwidth) for bandwidth in section["bandwidths"]]
    return _from_rows(("bandwidth", "capacity_bits", "capacity_bound_bits", "eb_n0"), rows), True
