"""Machines: heterogeneous capacity, allocation accounting, over-commit.

A machine tracks the sum of schedule-time limits of the instances placed
on it.  Borg over-commits: the admission check allows the allocated sum
to exceed physical capacity by a per-tier over-commit factor, betting
that instances under-use their limits (paper section 4, figure 4).  That
check lives in the placement kernel
(:class:`~repro.sim.scheduler.PlacementPolicy`), which reads each
machine's allocation through its :class:`~repro.sim.fleet.FleetState`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.entities import Instance
from repro.sim.resources import Resources
from repro.util.errors import SimulationError

_res = Resources.unchecked


class Machine:
    """One node of a cell."""

    # Same rationale as the entity dataclasses: thousands of machines,
    # attribute reads on every placement and sync.
    __slots__ = ("machine_id", "capacity", "platform", "utc_offset_hours",
                 "_up", "allocated", "instances", "_fleet", "_fleet_index")

    def __init__(self, machine_id: int, capacity: Resources,
                 platform: str = "default", utc_offset_hours: float = 0.0):
        self.machine_id = machine_id
        self.capacity = capacity
        self.platform = platform
        self.utc_offset_hours = utc_offset_hours
        self._up = True
        self.allocated = Resources.ZERO
        #: Insertion-ordered (dict-as-set): iteration order must be
        #: deterministic — a real set would iterate by object address and
        #: make eviction order differ between identical runs.
        self.instances: Dict[Instance, None] = {}
        # The attached FleetState (if any) mirrors this machine's
        # allocation and up/down state in its columnar arrays.
        self._fleet = None
        self._fleet_index = -1

    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        self._up = bool(value)
        if self._fleet is not None:
            self._fleet.sync_up(self._fleet_index, self._up)

    def attach_fleet(self, fleet, index: int) -> None:
        """Bind this machine to a :class:`~repro.sim.fleet.FleetState` slot."""
        self._fleet = fleet
        self._fleet_index = index

    def __repr__(self) -> str:
        return (f"Machine({self.machine_id}, cap=({self.capacity.cpu:.2f},"
                f" {self.capacity.mem:.2f}), alloc=({self.allocated.cpu:.2f},"
                f" {self.allocated.mem:.2f}), n={len(self.instances)})")

    # -- placement ----------------------------------------------------------------

    def place(self, instance: Instance) -> None:
        if not self.up:
            raise SimulationError(f"placing on down machine {self.machine_id}")
        if instance in self.instances:
            raise SimulationError(
                f"instance {instance.instance_id} already on machine {self.machine_id}"
            )
        self.instances[instance] = None
        # Inlined ``allocated + request`` plus the fleet sync: one
        # Resources construction and no re-reads, same float operations
        # (and clamping on the remove side) as the operators.
        alloc = self.allocated
        request = instance.request
        cpu = alloc.cpu + request.cpu
        mem = alloc.mem + request.mem
        self.allocated = _res(cpu, mem)
        fleet = self._fleet
        if fleet is not None:
            fleet.sync_allocated(self._fleet_index, cpu, mem)

    def remove(self, instance: Instance) -> None:
        if instance not in self.instances:
            raise SimulationError(
                f"instance {instance.instance_id} not on machine {self.machine_id}"
            )
        del self.instances[instance]
        alloc = self.allocated
        request = instance.request
        # Same tiny-negative-residue clamp as Resources.__sub__.
        cpu = max(0.0, alloc.cpu - request.cpu)
        mem = max(0.0, alloc.mem - request.mem)
        self.allocated = _res(cpu, mem)
        fleet = self._fleet
        if fleet is not None:
            fleet.sync_allocated(self._fleet_index, cpu, mem)

    # -- preemption support ----------------------------------------------------------

    def preemptible_below(self, rank: int) -> List[Instance]:
        """Instances whose tier rank is strictly below ``rank``, largest first.

        Ordering by descending request size frees the most resources with
        the fewest evictions, which is what a real preemption pass aims
        for.
        """
        victims = [i for i in self.instances if i.tier.rank < rank]
        victims.sort(key=lambda i: (i.tier.rank,
                                    -(i.request.cpu + i.request.mem),
                                    i.instance_id))
        return victims
