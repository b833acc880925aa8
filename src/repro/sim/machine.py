"""Machines: the fixed description of a cell's heterogeneous nodes.

A machine is its id, capacity, platform and time zone; none of that
changes during a run.  What does change — allocation, up/down and the
instances a machine hosts — is owned by the cell's
:class:`~repro.sim.fleet.FleetState`.  Borg over-commits: the admission
check allows a machine's allocated limits to exceed its physical
capacity by a per-tier over-commit factor, betting that instances
under-use their limits (paper section 4, figure 4).  That check lives
in the placement kernel (:class:`~repro.sim.scheduler.PlacementPolicy`).
"""

from __future__ import annotations

from repro.sim.resources import Resources


class Machine:
    """One node of a cell."""

    # Thousands of machines per cell, read when a fleet is built and a
    # trace is encoded.
    __slots__ = ("machine_id", "capacity", "platform", "utc_offset_hours")

    def __init__(self, machine_id: int, capacity: Resources,
                 platform: str = "default", utc_offset_hours: float = 0.0):
        self.machine_id = machine_id
        self.capacity = capacity
        self.platform = platform
        self.utc_offset_hours = utc_offset_hours

    def __repr__(self) -> str:
        return (f"Machine({self.machine_id}, cap=({self.capacity.cpu:.2f},"
                f" {self.capacity.mem:.2f}), platform={self.platform!r})")
