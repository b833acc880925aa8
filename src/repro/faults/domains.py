"""Failure domains: the fleet's rack and power-domain topology.

Machines do not fail independently — a top-of-rack switch takes its
whole rack offline, and a power feed takes several racks at once.  The
topology here is deterministic given the fleet size and the grouping
knobs: machine ``i`` sits in rack ``i // machines_per_rack``, and rack
``r`` draws power from domain ``r // racks_per_power_domain``.  Block
assignment (rather than a random shuffle) keeps the mapping a pure
function of the config, so fault schedules never consume RNG deciding
*where* a fault lands — only *when*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class FailureDomains:
    """Rack / power-domain grouping over machine *indices* ``0..n-1``.

    Indices are positions in the cell's machine list (the same order
    :class:`~repro.sim.fleet.FleetState` mirrors), not machine ids.
    """

    n_machines: int
    machines_per_rack: int
    racks_per_power_domain: int

    def __post_init__(self):
        if self.n_machines <= 0:
            raise ValueError("n_machines must be positive")
        if self.machines_per_rack <= 0:
            raise ValueError("machines_per_rack must be positive")
        if self.racks_per_power_domain <= 0:
            raise ValueError("racks_per_power_domain must be positive")

    @property
    def n_racks(self) -> int:
        return -(-self.n_machines // self.machines_per_rack)

    @property
    def n_power_domains(self) -> int:
        return -(-self.n_racks // self.racks_per_power_domain)

    def rack_members(self, rack: int) -> Tuple[int, ...]:
        """Machine indices in ``rack``, ascending."""
        if not 0 <= rack < self.n_racks:
            raise ValueError(f"rack {rack} out of range")
        lo = rack * self.machines_per_rack
        hi = min(lo + self.machines_per_rack, self.n_machines)
        return tuple(range(lo, hi))

    def power_domain_members(self, domain: int) -> Tuple[int, ...]:
        """Machine indices in power ``domain``, ascending."""
        if not 0 <= domain < self.n_power_domains:
            raise ValueError(f"power domain {domain} out of range")
        out: List[int] = []
        lo_rack = domain * self.racks_per_power_domain
        hi_rack = min(lo_rack + self.racks_per_power_domain, self.n_racks)
        for rack in range(lo_rack, hi_rack):
            out.extend(self.rack_members(rack))
        return tuple(out)
