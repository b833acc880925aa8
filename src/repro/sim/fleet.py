"""The mutable state of a cell's machines, owned in one place.

A :class:`~repro.sim.machine.Machine` is a fixed description (id,
capacity, platform, time zone).  Everything that changes during a run —
each machine's allocated limits, whether it is up, and which instances
it hosts — lives in :class:`FleetState`, indexed by *slot* (the
machine's position in the cell's machine list).

Allocation and up/down are kept in two forms, written together by the
same mutator: numpy arrays for the placement kernel's full-scan
fallback (one masked ``argmin`` over the fleet) and Python lists for
its sampled path (a scalar sweep over ~12 candidates, where list
indexing beats numpy's per-op dispatch).  Both forms hold the same
IEEE doubles, so the two paths are bit-equivalent (DESIGN.md §10).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

import numpy as np

from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.sim.entities import Instance
    from repro.sim.machine import Machine


class FleetState:
    """Allocation, up/down and residents of every machine of a cell.

    A new state starts with nothing allocated and every machine up.
    """

    def __init__(self, machines: Sequence["Machine"]):
        self.machines: List["Machine"] = list(machines)
        n = len(self.machines)
        self.n = n
        self.machine_id = np.fromiter(
            (m.machine_id for m in self.machines), dtype=np.int64, count=n)
        self.capacity_cpu = np.fromiter(
            (m.capacity.cpu for m in self.machines), dtype=np.float64, count=n)
        self.capacity_mem = np.fromiter(
            (m.capacity.mem for m in self.machines), dtype=np.float64, count=n)
        #: Machine id -> slot.
        self.slot_of: Dict[int, int] = {
            m.machine_id: i for i, m in enumerate(self.machines)}
        self.up = np.ones(n, dtype=bool)
        #: Packed (2, n) float64 matrix: row 0 is allocated CPU, row 1
        #: allocated memory; ``allocated_cpu``/``allocated_mem`` are
        #: views of its rows.
        self.alloc = np.zeros((2, n), dtype=np.float64)
        self.allocated_cpu = self.alloc[0]
        self.allocated_mem = self.alloc[1]
        #: The same state as Python lists, for the sampled placement path.
        self.py_alloc: List[tuple] = [(0.0, 0.0)] * n
        self.py_up: List[bool] = [True] * n
        #: Instances placed on each slot.  Insertion-ordered (dict-as-set):
        #: a real set would iterate by object address and make eviction
        #: order differ between identical runs.
        self.residents: List[Dict["Instance", None]] = [{} for _ in range(n)]
        self._platform_codes: Dict[str, int] = {}
        codes = np.empty(n, dtype=np.int32)
        for i, machine in enumerate(self.machines):
            codes[i] = self._platform_codes.setdefault(
                machine.platform, len(self._platform_codes))
        self.platform_code = codes

    def platform_code_of(self, platform: str) -> int:
        """The integer code of ``platform``; -1 if no machine has it."""
        return self._platform_codes.get(platform, -1)

    def up_count(self) -> int:
        """How many machines are currently up (fault-injection telemetry)."""
        return int(self.up.sum())

    # -- mutators --------------------------------------------------------------

    def place(self, slot: int, instance: "Instance") -> None:
        """Put ``instance`` on the machine at ``slot`` and add its request."""
        if not self.py_up[slot]:
            raise SimulationError(
                f"placing on down machine {self.machines[slot].machine_id}")
        residents = self.residents[slot]
        if instance in residents:
            raise SimulationError(
                f"instance {instance.instance_id} already on machine "
                f"{self.machines[slot].machine_id}")
        residents[instance] = None
        a_cpu, a_mem = self.py_alloc[slot]
        request = instance.request
        cpu = a_cpu + request.cpu
        mem = a_mem + request.mem
        self.py_alloc[slot] = (cpu, mem)
        self.alloc[0, slot] = cpu
        self.alloc[1, slot] = mem

    def remove(self, slot: int, instance: "Instance") -> None:
        """Take ``instance`` off the machine at ``slot``; free its request."""
        residents = self.residents[slot]
        if instance not in residents:
            raise SimulationError(
                f"instance {instance.instance_id} not on machine "
                f"{self.machines[slot].machine_id}")
        del residents[instance]
        a_cpu, a_mem = self.py_alloc[slot]
        request = instance.request
        # Clamp tiny negative residue from float accumulation.
        cpu = max(0.0, a_cpu - request.cpu)
        mem = max(0.0, a_mem - request.mem)
        self.py_alloc[slot] = (cpu, mem)
        self.alloc[0, slot] = cpu
        self.alloc[1, slot] = mem

    def set_up(self, slot: int, up: bool) -> None:
        """Mark the machine at ``slot`` up or down."""
        up = bool(up)
        self.up[slot] = up
        self.py_up[slot] = up

    def preemptible_below(self, slot: int, rank: int) -> List["Instance"]:
        """Residents of ``slot`` with tier rank below ``rank``, largest first.

        Lowest tier first, then descending request size: that frees the
        most resources with the fewest evictions, which is what a real
        preemption pass aims for.
        """
        victims = [i for i in self.residents[slot] if i.tier.rank < rank]
        victims.sort(key=lambda i: (i.tier.rank,
                                    -(i.request.cpu + i.request.mem),
                                    i.instance_id))
        return victims

    # -- diagnostics ----------------------------------------------------------

    def check_consistency(self) -> None:
        """Assert the array and list forms hold the same state (tests).

        The sampled placement path reads ``py_alloc``/``py_up`` and the
        full scan reads ``alloc``/``up``, so the two must agree exactly.
        """
        for i in range(self.n):
            arrays = (self.alloc[0, i], self.alloc[1, i], bool(self.up[i]))
            lists = (*self.py_alloc[i], self.py_up[i])
            if arrays != lists:
                raise AssertionError(
                    f"FleetState forms disagree at slot {i}: "
                    f"arrays={arrays} lists={lists}")

    def __repr__(self) -> str:
        return (f"FleetState(n={self.n}, up={int(self.up.sum())}, "
                f"platforms={len(self._platform_codes)})")
