"""The best-effort batch scheduler's admission queue.

Like Omega, Borg runs multiple schedulers; the batch scheduler manages
the aggregate best-effort-batch workload *for throughput* by queueing
jobs until the cell can handle them, after which the job is handed to
the regular Borg scheduler (paper section 3, "Batch queuing").  Jobs
held here are in the QUEUED state; admission emits ENABLE.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List

from repro.sim.entities import Collection
from repro.sim.resources import Resources


@dataclass(frozen=True)
class BatchParams:
    """Admission-control knobs."""

    #: Admit queued beb jobs while the beb tier's allocated CPU is below
    #: this fraction of cell capacity.
    beb_cpu_allocation_target: float = 0.55
    #: Same threshold for memory.
    beb_mem_allocation_target: float = 0.55
    #: How often the queue re-evaluates admission, seconds.
    check_interval: float = 60.0


class BatchQueue:
    """FIFO admission control for best-effort-batch collections."""

    def __init__(self, params: BatchParams, cell_capacity: Resources):
        self.params = params
        self.cell_capacity = cell_capacity
        self._queue: deque = deque()
        #: Sum of requests of currently-admitted, still-live beb collections.
        self.beb_allocated = Resources.ZERO

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, collection: Collection) -> None:
        self._queue.append(collection)

    def _collection_request(self, collection: Collection) -> Resources:
        total = Resources.ZERO
        for inst in collection.instances:
            total = total + inst.request
        return total

    def _admits(self, request: Resources) -> bool:
        """Budget check: would admitting ``request`` stay under target?

        A nearly-empty budget always admits the queue head — otherwise a
        job whose request alone exceeds the budget would deadlock the
        queue forever.
        """
        cap = self.cell_capacity
        p = self.params
        budget_cpu = cap.cpu * p.beb_cpu_allocation_target
        budget_mem = cap.mem * p.beb_mem_allocation_target
        if (self.beb_allocated.cpu <= 0.05 * budget_cpu
                and self.beb_allocated.mem <= 0.05 * budget_mem):
            return True
        return (self.beb_allocated.cpu + request.cpu <= budget_cpu
                and self.beb_allocated.mem + request.mem <= budget_mem)

    def admit_ready(self) -> List[Collection]:
        """Admit queued jobs while their requests fit the beb budget.

        Skips (drops from the queue) collections that terminated while
        queued — a user can kill a queued job.
        """
        admitted: List[Collection] = []
        while self._queue:
            head = self._queue[0]
            if head.is_done:
                self._queue.popleft()
                continue
            request = self._collection_request(head)
            if not self._admits(request):
                break
            self._queue.popleft()
            self.beb_allocated = self.beb_allocated + request
            admitted.append(head)
        return admitted

    def release(self, collection: Collection) -> None:
        """Return an admitted collection's share on termination."""
        self.beb_allocated = self.beb_allocated - self._collection_request(collection)
