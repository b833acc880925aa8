"""Placement: machine selection, over-commit admission, and preemption.

Borg's scheduling algorithms are "generally relatively simple greedy
heuristics" (paper section 10); we implement the classic shape: feasibility
check under per-dimension over-commit factors, best-fit scoring over a
sampled candidate set (power-of-k-choices keeps month-scale runs fast
without changing behavior materially), and priority preemption — a
production-tier task may evict lower-tier instances to make room.

Every entry point takes the cell's :class:`~repro.sim.fleet.FleetState`,
and placement runs as a kernel over it: candidate sampling draws from a
pre-drawn index block, the sampled candidates are swept over the
fleet's Python-list mirrors, and the full-scan fallback is one masked
``argmin`` over its arrays.  The kernel is bit-equivalent to the
per-machine reference methods :meth:`PlacementPolicy._admissible` /
:meth:`PlacementPolicy._score` (same float operations in the same
order; see DESIGN.md §10 and the equivalence property test).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.sim.entities import Instance
from repro.sim.fleet import FleetState
from repro.sim.machine import Machine
from repro.sim.resources import Resources


@dataclass(frozen=True)
class SchedulerParams:
    """Placement-policy knobs (per era)."""

    #: Admission over-commit factor for CPU (allocated may reach
    #: capacity * factor).  2011 over-committed CPU aggressively; 2019
    #: over-commits CPU and memory comparably (paper section 4).
    overcommit_cpu: float = 1.5
    #: Admission over-commit factor for memory.
    overcommit_mem: float = 1.4
    #: Number of randomly sampled candidate machines per placement.
    candidates: int = 12
    #: Scheduler processes the pending queue in rounds this many seconds
    #: apart (drives the figure 10 scheduling-delay distribution).
    round_interval: float = 5.0
    #: Maximum placement decisions per round.
    round_capacity: int = 2000


#: Candidate machines examined per preemption search.
PREEMPTION_CANDIDATES = 24


class PlacementPolicy:
    """Stateless placement decisions over a machine fleet."""

    #: Size of the pre-drawn candidate-index block.  One bulk
    #: ``integers()`` call amortizes the numpy Generator overhead across
    #: hundreds of placements; consuming the block strictly in order
    #: keeps the index sequence bit-identical to per-call draws (numpy
    #: fills bounded integers sequentially from the bit stream).
    INDEX_BLOCK = 4096

    def __init__(self, params: SchedulerParams, rng: np.random.Generator):
        self.params = params
        self.rng = rng
        self._idx_block: Optional[np.ndarray] = None
        self._idx_pos = 0
        self._idx_bound = -1
        # Request-independent per-fleet arrays (admission bounds, score
        # denominators), rebuilt when a different FleetState shows up.
        # Machine capacities never change during a run, so the cache
        # stays valid across allocation and up/down churn.
        self._consts_for: Optional[FleetState] = None
        self._adm_cpu: Optional[np.ndarray] = None
        self._adm_mem: Optional[np.ndarray] = None
        self._headroom_cpu: Optional[np.ndarray] = None
        self._headroom_mem: Optional[np.ndarray] = None
        self._den_cpu: Optional[np.ndarray] = None
        self._den_mem: Optional[np.ndarray] = None
        # Counter handles bound once: the hot path pays one integer add
        # per placement, not a registry lookup (same budget rule as the
        # cell event loop).
        self._ctr_attempts = obs.counter("sim.placement.attempts")
        self._ctr_full_scans = obs.counter("sim.placement.full_scans")
        self._ctr_preemptions = obs.counter("sim.placement.preemption_searches")
        # Python-native per-machine constants for the sampled path (one
        # six-tuple per machine); built alongside the arrays in
        # _fleet_consts.  With ~12 candidates per placement, a scalar
        # sweep over plain lists beats the vectorized gather: each numpy
        # op pays ~1-2 µs of dispatch regardless of width, and the
        # sampled kernel needed ~15 of them per call.
        self._py_consts: Optional[List[tuple]] = None
        self._py_platform: Optional[List[int]] = None

    def _fleet_consts(self, fleet: FleetState) -> None:
        """(Re)build the per-fleet constant arrays for ``fleet``.

        Elementwise precomputation is bit-exact: indexing a precomputed
        ``capacity * factor + eps`` array yields the same float64 as
        computing it per candidate.
        """
        if self._consts_for is fleet:
            return
        self._consts_for = fleet
        self._adm_cpu = fleet.capacity_cpu * self.params.overcommit_cpu + 1e-12
        self._adm_mem = fleet.capacity_mem * self.params.overcommit_mem + 1e-12
        self._headroom_cpu = fleet.capacity_cpu * self.params.overcommit_cpu
        self._headroom_mem = fleet.capacity_mem * self.params.overcommit_mem
        self._den_cpu = np.maximum(fleet.capacity_cpu, 1e-9)
        self._den_mem = np.maximum(fleet.capacity_mem, 1e-9)
        # The same six constants as one Python tuple per machine, for
        # the scalar sampled path.  ``tolist`` round-trips float64
        # exactly (a Python float *is* an IEEE double), so indexing
        # these tuples yields bit-identical values to the arrays.
        self._py_consts = list(zip(
            self._adm_cpu.tolist(), self._adm_mem.tolist(),
            self._headroom_cpu.tolist(), self._headroom_mem.tolist(),
            self._den_cpu.tolist(), self._den_mem.tolist(),
        ))
        self._py_platform = fleet.platform_code.tolist()

    # ------------------------------------------------------------ reference
    # Scalar reference implementations.  The vectorized kernel below is
    # bit-equivalent to looping these over machines; the equivalence
    # property test holds the two paths together.

    def _admissible(self, machine: Machine, request: Resources,
                    constraint: str = "") -> bool:
        if not machine.up:
            return False
        if constraint and machine.platform != constraint:
            return False
        cap = machine.capacity
        alloc = machine.allocated
        return (alloc.cpu + request.cpu <= cap.cpu * self.params.overcommit_cpu + 1e-12
                and alloc.mem + request.mem <= cap.mem * self.params.overcommit_mem + 1e-12)

    def _score(self, machine: Machine, request: Resources) -> float:
        """Best-fit score: smaller is better (tighter remaining headroom)."""
        cap = machine.capacity
        free_cpu = cap.cpu * self.params.overcommit_cpu - machine.allocated.cpu - request.cpu
        free_mem = cap.mem * self.params.overcommit_mem - machine.allocated.mem - request.mem
        return max(free_cpu / max(cap.cpu, 1e-9), free_mem / max(cap.mem, 1e-9))

    # --------------------------------------------------------------- kernel

    def _draw_indices(self, n: int, k: int) -> np.ndarray:
        """``k`` candidate indices in [0, n): next slice of the block.

        Bit-identical to ``rng.integers(0, n, size=k)`` called per
        placement, as long as ``n`` stays constant (it does for a cell
        run; a changed bound restarts the block).
        """
        if n != self._idx_bound:
            self._idx_bound = n
            self._idx_block = None
        block = self._idx_block
        if block is not None and self._idx_pos + k <= len(block):
            out = block[self._idx_pos:self._idx_pos + k]
            self._idx_pos += k
            return out
        out = np.empty(k, dtype=np.int64)
        filled = 0
        while filled < k:
            if block is None or self._idx_pos >= len(block):
                block = self.rng.integers(0, n, size=max(self.INDEX_BLOCK, k))
                self._idx_block = block
                self._idx_pos = 0
            take = min(k - filled, len(block) - self._idx_pos)
            out[filled:filled + take] = block[self._idx_pos:self._idx_pos + take]
            self._idx_pos += take
            filled += take
        return out

    def _admissible_mask(self, fleet: FleetState, request: Resources,
                         constraint: str, code: int) -> np.ndarray:
        """Vector admissibility over the whole fleet."""
        ok = (fleet.up
              & (fleet.allocated_cpu + request.cpu <= self._adm_cpu)
              & (fleet.allocated_mem + request.mem <= self._adm_mem))
        if constraint:
            ok = ok & (fleet.platform_code == code)
        return ok

    def _score_at(self, fleet: FleetState, idx: np.ndarray,
                  request: Resources) -> np.ndarray:
        """Vector best-fit scores for the machines at ``idx``."""
        free_cpu = (self._headroom_cpu[idx]
                    - fleet.allocated_cpu[idx] - request.cpu)
        free_mem = (self._headroom_mem[idx]
                    - fleet.allocated_mem[idx] - request.mem)
        return np.maximum(free_cpu / self._den_cpu[idx],
                          free_mem / self._den_mem[idx])

    def find_machine(self, fleet: FleetState, request: Resources,
                     constraint: str = "") -> Optional[Machine]:
        """Best-fit over a sampled candidate set; None if nothing admits.

        ``constraint``, when non-empty, restricts placement to machines of
        that platform (a machine-attribute constraint).
        """
        self._ctr_attempts.inc()
        n = fleet.n
        if n == 0:
            return None
        self._fleet_consts(fleet)
        code = fleet.platform_code_of(constraint) if constraint else -1
        sampled: Optional[np.ndarray] = None
        if self.params.candidates < n:
            # Sampling with replacement: far cheaper than a permutation
            # draw, and an occasional duplicate candidate is harmless.
            # The candidate sweep is a *scalar* Python loop over the
            # fleet's list mirrors: at ~12 candidates the per-op numpy
            # dispatch of a vectorized gather dwarfs the arithmetic.
            # The float operations (and their order) are identical to
            # _admissible_mask/_score_at and to the scalar reference —
            # Python floats are the same IEEE doubles — and "first
            # strictly-smaller score wins" is exactly the masked argmin
            # tie-break, so placements are bit-identical to the
            # vectorized kernel (the equivalence property test holds
            # all three spellings together).
            idx = self._draw_indices(n, self.params.candidates)
            py_alloc = fleet.py_alloc
            py_up = fleet.py_up
            consts = self._py_consts
            platform = self._py_platform
            req_cpu = request.cpu
            req_mem = request.mem
            best_i = -1
            best_score = float("inf")
            for i in idx.tolist():
                if not py_up[i]:
                    continue
                a_cpu, a_mem = py_alloc[i]
                adm_cpu, adm_mem, head_cpu, head_mem, den_cpu, den_mem = consts[i]
                if a_cpu + req_cpu > adm_cpu or a_mem + req_mem > adm_mem:
                    continue
                if constraint and platform[i] != code:
                    continue
                free_cpu = (head_cpu - a_cpu - req_cpu) / den_cpu
                free_mem = (head_mem - a_mem - req_mem) / den_mem
                score = free_cpu if free_cpu >= free_mem else free_mem
                if score < best_score:
                    best_score = score
                    best_i = i
            if best_i >= 0:
                return fleet.machines[best_i]
            sampled = idx
        # Sampled set failed: full scan so feasibility is never missed.
        # The sampled indices were just proven inadmissible, so they are
        # masked out instead of being examined a second time.
        self._ctr_full_scans.inc()
        ok = self._admissible_mask(fleet, request, constraint, code)
        if sampled is not None:
            ok[sampled] = False
        hits = np.flatnonzero(ok)
        if len(hits) == 0:
            return None
        best = hits[self._score_at(fleet, hits, request).argmin()]
        return fleet.machines[int(best)]

    def find_preemption(self, fleet: FleetState, request: Resources,
                        rank: int,
                        constraint: str = "") -> Optional[Tuple[Machine, List[Instance]]]:
        """A machine where evicting lower-rank instances admits ``request``.

        Returns the machine plus the minimal victim prefix (largest
        victims first), or None if no machine can be freed.  Only
        instances with tier rank strictly below ``rank`` are eligible —
        production never evicts production (section 2).
        """
        self._ctr_preemptions.inc()
        machines = fleet.machines
        n = fleet.n
        if n == 0:
            return None
        # Preemption search is expensive (victim enumeration per machine);
        # sample a candidate set like placement does.
        if n <= PREEMPTION_CANDIDATES:
            candidates = list(machines)
        else:
            candidates = [machines[i]
                          for i in self._draw_indices(n, PREEMPTION_CANDIDATES)]
        best: Optional[Tuple[Machine, List[Instance]]] = None
        best_victims = float("inf")
        for m in candidates:
            if not m.up or not request.fits_in(m.capacity):
                continue
            if constraint and m.platform != constraint:
                continue
            victims = m.preemptible_below(rank)
            if not victims:
                continue
            freed = Resources.ZERO
            chosen: List[Instance] = []
            # Simulate the allocation after each eviction until it fits.
            for v in victims:
                freed = freed + v.request
                chosen.append(v)
                alloc = m.allocated - freed
                if (alloc.cpu + request.cpu <= m.capacity.cpu * self.params.overcommit_cpu
                        and alloc.mem + request.mem
                        <= m.capacity.mem * self.params.overcommit_mem):
                    if len(chosen) < best_victims:
                        best = (m, list(chosen))
                        best_victims = len(chosen)
                    break
        return best


class PendingQueue:
    """The scheduler's pending set, ordered by (tier rank desc, FIFO).

    Production-tier work is always dispatched before best-effort work,
    which is what makes production scheduling delays the fastest in
    figure 10b.

    Implemented as one FIFO deque per tier rank: ``push`` appends in
    O(1), ``pop_batch`` drains rank buckets highest-rank-first (O(1)
    amortized per item — no per-round re-sort of already-ordered items),
    and ``remove_dead`` filters buckets in place instead of rebuilding
    the whole queue.  Dispatch order is exactly the old sort order
    ``(-tier.rank, arrival seq)``: within a rank bucket FIFO order *is*
    arrival order, and buckets are visited by descending rank.
    """

    def __init__(self):
        self._buckets: Dict[int, Deque[Instance]] = {}
        self._ranks: List[int] = []  # bucket keys, kept sorted descending
        self._size = 0

    def push(self, instance: Instance) -> None:
        # .collection.tier directly: Instance.tier is a delegating
        # property, and this is the queue's per-requeue hot path.
        rank = instance.collection.tier.rank
        bucket = self._buckets.get(rank)
        if bucket is None:
            bucket = self._buckets[rank] = deque()
            self._ranks.append(rank)
            self._ranks.sort(reverse=True)
        bucket.append(instance)
        self._size += 1

    def pop_batch(self, limit: int) -> List[Instance]:
        """Remove and return up to ``limit`` instances in dispatch order."""
        if limit <= 0 or self._size == 0:
            return []
        batch: List[Instance] = []
        for rank in self._ranks:
            bucket = self._buckets[rank]
            while bucket and len(batch) < limit:
                batch.append(bucket.popleft())
            if len(batch) >= limit:
                break
        self._size -= len(batch)
        return batch

    def remove_dead(self) -> None:
        """Drop instances whose collection already terminated."""
        for rank in self._ranks:
            bucket = self._buckets[rank]
            if not bucket:
                continue
            alive = [i for i in bucket if not i.collection.is_done]
            if len(alive) != len(bucket):
                self._size -= len(bucket) - len(alive)
                bucket.clear()
                bucket.extend(alive)

    def __len__(self) -> int:
        return self._size
