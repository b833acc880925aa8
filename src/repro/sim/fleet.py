"""Structure-of-arrays fleet state backing the vectorized placement kernel.

:class:`FleetState` mirrors a cell's :class:`~repro.sim.machine.Machine`
list as parallel numpy arrays (capacity, allocation, up/down, platform
code), so admissibility and best-fit scoring over candidate sets become
a handful of vector operations instead of a Python loop per machine.

Building a ``FleetState`` attaches every machine to it.  From then on
the arrays, and the Python-list mirrors ``py_alloc``/``py_up`` the
sampled placement path reads, are kept in sync *incrementally*: a
machine writes its post-mutation allocation and up/down state through
the sync hooks below on every :meth:`~repro.sim.machine.Machine.place`,
:meth:`~repro.sim.machine.Machine.remove`, and ``up`` transition.  The
synced values are copied verbatim from the machine's own accounting (not
recomputed), so ``allocated_cpu[i]`` and ``py_alloc[i][0]`` are
bit-identical to ``machines[i].allocated.cpu`` at all times — the
invariant that makes the kernel's arithmetic exactly equal to the
per-object reference path (see DESIGN.md §10).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.sim.machine import Machine


class FleetState:
    """Columnar mirror of a machine fleet.

    Each machine is bound to this state and keeps it current through the
    sync hooks; a machine belongs to one ``FleetState`` at a time (the
    latest one built over it).
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
        self._id_order: np.ndarray = None  # lazy; machine ids never change
        self.up = np.fromiter((m.up for m in self.machines), dtype=bool, count=n)
        #: Packed (2, n) float64 matrix: row 0 is allocated CPU, row 1
        #: allocated memory.  Dimension-major (transposed) so the sampled
        #: placement path gathers a candidate block with one
        #: ``take(axis=1)`` and every downstream per-dimension view is a
        #: contiguous row; the named ``allocated_cpu``/``allocated_mem``
        #: rows are views into it, so one write updates both forms.
        self.alloc = np.empty((2, n), dtype=np.float64)
        self.alloc[0] = np.fromiter(
            (m.allocated.cpu for m in self.machines), dtype=np.float64, count=n)
        self.alloc[1] = np.fromiter(
            (m.allocated.mem for m in self.machines), dtype=np.float64, count=n)
        self.allocated_cpu = self.alloc[0]
        self.allocated_mem = self.alloc[1]
        #: Python-native mirrors of the same state, kept current by the
        #: same sync hooks.  The sampled placement path examines only
        #: ``candidates`` (~12) machines per call, where list indexing
        #: beats numpy's per-op dispatch by an order of magnitude; the
        #: float values are identical to the array cells (both are
        #: copied verbatim from the machine's accounting).
        self.py_alloc: List[tuple] = [
            (m.allocated.cpu, m.allocated.mem) for m in self.machines]
        self.py_up: List[bool] = [m.up for m in self.machines]
        self._platform_codes: Dict[str, int] = {}
        codes = np.empty(n, dtype=np.int32)
        for i, machine in enumerate(self.machines):
            codes[i] = self._platform_codes.setdefault(
                machine.platform, len(self._platform_codes))
        self.platform_code = codes
        for i, machine in enumerate(self.machines):
            machine.attach_fleet(self, i)

    def platform_code_of(self, platform: str) -> int:
        """The integer code of ``platform``; -1 if no machine has it."""
        return self._platform_codes.get(platform, -1)

    def up_count(self) -> int:
        """How many machines are currently up (fault-injection telemetry)."""
        return int(self.up.sum())

    def capacity_by_id(self, ids: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Gather ``(cpu, mem)`` capacity for an array of machine ids.

        Vectorized replacement for a per-id dict lookup: one
        ``searchsorted`` against the (lazily cached) id-sorted index.
        Unknown ids gather ``np.inf`` for both dimensions — the value a
        capacity clamp treats as "no limit", matching the historical
        ``dict.get(id, inf)`` behavior.
        """
        if self.n == 0:
            inf = np.full(len(ids), np.inf)
            return inf, inf.copy()
        if self._id_order is None:
            self._id_order = np.argsort(self.machine_id, kind="stable")
        order = self._id_order
        sorted_ids = self.machine_id[order]
        pos = np.minimum(np.searchsorted(sorted_ids, ids), self.n - 1)
        hit = sorted_ids[pos] == ids
        src = order[pos]
        cpu = np.where(hit, self.capacity_cpu[src], np.inf)
        mem = np.where(hit, self.capacity_mem[src], np.inf)
        return cpu, mem

    # -- sync hooks (called by Machine) ---------------------------------------

    def sync_allocated(self, index: int, cpu: float, mem: float) -> None:
        """Copy a machine's post-mutation allocation into the arrays."""
        self.alloc[0, index] = cpu
        self.alloc[1, index] = mem
        self.py_alloc[index] = (cpu, mem)

    def sync_up(self, index: int, up: bool) -> None:
        """Record a machine's up/down transition."""
        self.up[index] = up
        self.py_up[index] = up

    # -- diagnostics ----------------------------------------------------------

    def check_consistency(self) -> None:
        """Assert both mirrors equal the machines' own accounting (tests).

        The sampled placement path reads ``py_alloc``/``py_up`` and the
        full scan reads ``alloc``/``up``, so both are compared.
        """
        for i, machine in enumerate(self.machines):
            own = (machine.allocated.cpu, machine.allocated.mem, machine.up)
            arrays = (self.alloc[0, i], self.alloc[1, i], bool(self.up[i]))
            lists = (*self.py_alloc[i], self.py_up[i])
            if arrays != own or lists != own:
                raise AssertionError(
                    f"FleetState out of sync at machine index {i}: "
                    f"arrays={arrays} lists={lists} machine={own}")

    def __repr__(self) -> str:
        return (f"FleetState(n={self.n}, up={int(self.up.sum())}, "
                f"platforms={len(self._platform_codes)})")
