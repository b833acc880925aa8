"""The discrete-event engine driving one Borg cell.

``CellSim`` consumes a pre-generated workload (collections with submit
times, shapes, planned outcomes) and plays it against a machine fleet:
batch-queue admission, round-based scheduling with preemption, task
restarts, machine maintenance, dependency cascade kills, and usage
sampling.  The output is a :class:`CellResult` holding the event log,
the usage-sample arrays, and the final collection states.

There is one event loop, with or without a flight recorder: the
recorder only adds a guarded sampling step before boundary-crossing
events, so a recorded run produces the same trace and counters.  The
outage handlers share one take-down path and every stop that sends
work back to the scheduler shares one requeue path.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.faults.schedule import FaultEvent, FaultParams, generate_fault_schedule
from repro.obs.recorder import CellRecorder
from repro.sim.autopilot import AutopilotParams
from repro.sim.batch import BatchParams, BatchQueue
from repro.sim.dependencies import DependencyManager
from repro.sim.entities import (
    Collection,
    CollectionType,
    EndReason,
    Instance,
    InstanceState,
    SchedulerKind,
)
from repro.sim.events import (
    EVICT_CODE,
    FAIL_CODE,
    SCHEDULE_CODE,
    SCHEDULE_NEW,
    SUBMIT_CODE,
    EventLog,
    EventType,
    event_code,
)
from repro.sim.fleet import FleetState
from repro.sim.machine import Machine
from repro.sim.priority import Tier
from repro.sim.resources import Resources
from repro.sim.scheduler import PendingQueue, PlacementPolicy, SchedulerParams
from repro.sim.usage import (
    AUTOPILOT_CODES,
    TIER_CODES,
    UsageBatch,
    UsageModel,
    UsageModelParams,
)

# Re-exported for consumers that treat the cell module as the simulator
# façade (tests import TIER_CODES from here).
__all__ = ["CellSim", "CellResult", "TIER_CODES", "_reconcile_machine_usage"]
from repro.util.errors import SimulationError
from repro.util.rng import RngFactory
from repro.util.timeutil import HOUR_SECONDS

_END_EVENT = {
    EndReason.FINISH: EventType.FINISH,
    EndReason.EVICT: EventType.EVICT,
    EndReason.KILL: EventType.KILL,
    EndReason.FAIL: EventType.FAIL,
}
_END_CODE = {reason: event_code(event) for reason, event in _END_EVENT.items()}



@dataclass(frozen=True)
class CellConfig:
    """Everything that parameterizes one cell's behavior."""

    name: str
    era: str  # "2011" | "2019"
    utc_offset_hours: float = 0.0
    horizon: float = 24 * HOUR_SECONDS
    scheduler: SchedulerParams = field(default_factory=SchedulerParams)
    batch: BatchParams = field(default_factory=BatchParams)
    usage: UsageModelParams = field(default_factory=UsageModelParams)
    autopilot: AutopilotParams = field(default_factory=AutopilotParams)
    sample_period: float = 300.0
    #: Whether a best-effort batch queue exists (2019 only; section 3).
    batch_queueing: bool = True
    #: Infrastructure-eviction hazard per running instance per hour, by tier.
    eviction_rate_per_hour: Dict[Tier, float] = field(default_factory=lambda: {
        Tier.FREE: 0.004, Tier.BEB: 0.003, Tier.MID: 0.002,
        Tier.PROD: 0.00005, Tier.MONITORING: 0.00002,
    })
    #: Task-level crash/restart hazard per running instance per hour
    #: (drives the figure 9 "churn" ratio).
    restart_rate_per_hour: float = 0.5
    #: Machine maintenance events per machine per 30 days (~1/month).
    machine_downtime_per_month: float = 1.0
    #: Maintenance outage duration, seconds.
    machine_downtime_duration: float = 900.0
    #: Tiers allowed to preempt lower tiers.
    preempting_tiers: Tuple[Tier, ...] = (Tier.PROD, Tier.MONITORING)
    #: Correlated fault injection (rack/power-domain outages, rolling
    #: upgrades, resubmission storms).  ``None`` — the default — keeps
    #: the cell byte-identical to a pre-fault-injection run: no extra
    #: RNG draws, no extra events (DESIGN.md §14).
    faults: Optional[FaultParams] = None

    def __post_init__(self):
        if self.era not in ("2011", "2019"):
            raise ValueError(f"era must be '2011' or '2019', got {self.era!r}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


@dataclass
class SimCounters:
    """Cheap integrity/diagnostic counters maintained during the run."""

    jobs_submitted: int = 0
    alloc_sets_submitted: int = 0
    tasks_created: int = 0
    schedule_events: int = 0
    reschedule_events: int = 0
    evictions: int = 0
    task_restarts: int = 0
    preemption_victims: int = 0
    machine_downtimes: int = 0
    batch_queued: int = 0
    cascade_kills: int = 0
    fault_events: int = 0
    fault_machine_outages: int = 0
    resubmissions: int = 0
    resubmit_chain_exhausted: int = 0
    resubmit_budget_exhausted: int = 0


@dataclass
class CellResult:
    """Everything a trace encoder or analysis needs from one cell run."""

    config: CellConfig
    machines: List[Machine]
    collections: List[Collection]
    events: EventLog
    usage: Dict[str, np.ndarray]
    counters: SimCounters

    @property
    def capacity(self) -> Resources:
        cpu = sum(m.capacity.cpu for m in self.machines)
        mem = sum(m.capacity.mem for m in self.machines)
        return Resources(cpu, mem)


#: Rows per block in which the reconcile builds its sort words.
_KEY_BLOCK_ROWS = 1 << 16


def _reconcile_machine_usage(usage: Dict[str, np.ndarray], slots: np.ndarray,
                             fleet: FleetState, sample_period: float) -> None:
    """Throttle sampled usage to physical machine capacity, in place.

    Per-instance usage is generated independently, so on an over-committed
    machine the within-window sum can exceed what the hardware can
    deliver.  Real Borg machines throttle CPU (work conserving) and
    pressure memory under contention; we model both as a proportional
    per-(machine, window) scale-down to 98% of capacity.  This is also
    what makes the section-9 "usage <= machine capacity" trace invariant
    hold by construction rather than by luck.

    ``slots`` gives each row's fleet slot (``UsageBatch.finalize``); a
    slot outside the fleet raises :class:`SimulationError`.  Each group
    sum is ``np.add.reduceat`` over the group's rows in row order, as
    :func:`repro.table.segment.segments` would order them, so the sums
    (and the reference spelling in ``tests/reconcile_oracles.py``) agree
    byte for byte.  That stable order comes from one in-place sort of
    int64 words holding the group key above the row index, which needs
    no stable-sort buffer.  Only the rows of over-capacity groups are
    rescaled.
    """
    if not len(slots):
        return
    if int(slots.min()) < 0 or int(slots.max()) >= fleet.n:
        raise SimulationError("usage rows name a slot outside the fleet")
    order, bounds, group_slot = _group_rows(
        slots, usage["window_start"], fleet.n, sample_period)
    _throttle(usage["avg_cpu"], usage["max_cpu"],
              fleet.capacity_cpu[group_slot], order, bounds)
    _throttle(usage["avg_mem"], usage["max_mem"],
              fleet.capacity_mem[group_slot], order, bounds)


def _group_rows(slots: np.ndarray, window_start: np.ndarray, n_slots: int,
                sample_period: float
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, bounds, group_slot)``: rows grouped by (slot, window).

    Group ``g`` is rows ``order[bounds[g]:bounds[g + 1]]``, in row order,
    on slot ``group_slot[g]``; the window is ``trunc(start / period)``,
    as ``astype(np.int64)`` takes it.
    """
    n = len(slots)
    # trunc of a division is monotone, so the extremes bound the windows.
    w_lo = int(window_start.min() / sample_period)
    n_windows = int(window_start.max() / sample_period) - w_lo + 1
    row_bits = (n - 1).bit_length()
    if (n_windows * n_slots - 1).bit_length() + row_bits > 63:
        raise SimulationError(
            f"{n} usage rows over {n_windows} windows x {n_slots} machines "
            "do not fit one 63-bit sort key")
    # words = (slot * n_windows + window - w_lo) << row_bits | row, built
    # in row blocks so that no full-size temporary exists beside it.  A
    # machine's windows sit side by side, which keeps the group sizes
    # that reduceat walks through predictable.
    words = np.empty(n, dtype=np.int64)
    for r0 in range(0, n, _KEY_BLOCK_ROWS):
        r1 = min(r0 + _KEY_BLOCK_ROWS, n)
        block = words[r0:r1]
        np.multiply(slots[r0:r1], n_windows, out=block, dtype=np.int64)
        block += (window_start[r0:r1] / sample_period).astype(np.int64)
        block -= w_lo
        block <<= row_bits
        block |= np.arange(r0, r1)
    words.sort()
    order = words & ((1 << row_bits) - 1)
    words >>= row_bits
    change = np.empty(n + 1, dtype=bool)
    change[0] = change[n] = True
    np.not_equal(words[1:], words[:-1], out=change[1:n])
    bounds = np.flatnonzero(change)
    del change
    return order, bounds, words[bounds[:-1]] // n_windows


def _throttle(avg: np.ndarray, peak: np.ndarray, limits: np.ndarray,
              order: np.ndarray, bounds: np.ndarray) -> None:
    """Scale down, in place, both columns' rows of every group whose
    ``avg`` sum exceeds 98% of its limit, to that 98%.

    Group ``g`` is rows ``order[bounds[g]:bounds[g + 1]]``.  Rows of the
    other groups are left as they are (the reference multiplies them by
    1.0, which changes no float).
    """
    sums = np.add.reduceat(np.take(avg, order), bounds[:-1])
    over = np.flatnonzero(sums > limits * 0.98)
    if not over.size:
        return
    factors = (limits[over] * 0.98) / sums[over]
    sizes = bounds[over + 1] - bounds[over]
    # The over-capacity groups' positions in ``order``, then their rows.
    pos = np.repeat(bounds[over] - (np.cumsum(sizes) - sizes), sizes)
    pos += np.arange(len(pos))
    rows = np.take(order, pos)
    del pos
    scale = np.repeat(factors, sizes)
    for column in (avg, peak):
        values = np.take(column, rows)
        values *= scale
        np.put(column, rows, values)


def _flush_tallies(dispatch: Dict[str, list], counters: Dict[str, obs.Counter],
                   total: obs.Counter) -> None:
    """Move the event loop's per-kind tallies into the obs counters."""
    n = 0
    for kind, entry in dispatch.items():
        counters[kind].inc(entry[1])
        n += entry[1]
        entry[1] = 0
    total.inc(n)


class CellSim:
    """Runs one cell to its horizon."""

    def __init__(self, config: CellConfig, machines: Sequence[Machine],
                 workload: Sequence[Collection], rng: RngFactory,
                 recorder: Optional["CellRecorder"] = None):
        if not machines:
            raise SimulationError("a cell needs at least one machine")
        self.workload = sorted(workload, key=lambda c: c.submit_time)
        # Every instance logs a SUBMIT (and gets its log id) the moment
        # its collection is submitted, so a logged instance means the
        # collections were already simulated and carry that run's state.
        if any(c.instances and c.instances[0].log_id != -1
               for c in self.workload):
            raise SimulationError(
                "workload was already simulated: a CellSim needs freshly "
                "generated collections")
        self.config = config
        #: The cell's machines (``fleet.machines``, in slot order) and
        #: their mutable state (allocation, up/down, residents), indexed
        #: by slot; the placement kernel reads it.
        self.fleet = FleetState(machines)
        self.rng = rng
        self.events = EventLog()
        self.counters = SimCounters()

        self._horizon = config.horizon
        #: The event queue: a binary heap of ``(time, seq, kind, payload)``
        #: entries (see :meth:`_push`).
        self._queue: List[Tuple[float, int, str, object]] = []
        self._seq = itertools.count()
        self._pending = PendingQueue()
        #: Tasks that failed placement wait here and are retried on a
        #: slower cadence than fresh arrivals — re-scanning a saturated
        #: cell for the same hard-to-fit shapes every round is wasted work.
        self._parked = PendingQueue()
        self._parked_retry_at = 0.0
        self._parked_retry_interval = max(30.0, config.scheduler.round_interval)
        self._round_scheduled = False
        self._batch_check_scheduled = False
        self._collections: Dict[int, Collection] = {}
        self._deps = DependencyManager()
        self._policy = PlacementPolicy(self.fleet, config.scheduler,
                                       rng.stream("placement"))
        self._usage_model = UsageModel(config.usage, config.sample_period,
                                       config.utc_offset_hours)
        #: Run intervals queued for batched sample generation (one
        #: vectorized pass at finalize instead of numpy calls per stop).
        self._usage = UsageBatch(self._usage_model, config.autopilot,
                                 self.fleet.machine_id)
        cell_capacity = Resources(
            sum(m.capacity.cpu for m in self.fleet.machines),
            sum(m.capacity.mem for m in self.fleet.machines),
        )
        self._batch = BatchQueue(config.batch, cell_capacity)
        self._batch_admitted: set = set()
        #: tasks hosted inside each alloc instance
        self._alloc_tenants: Dict[Tuple[int, int], List[Instance]] = {}

        #: Optional flight recorder (``simulate --record``); sampling is
        #: driven from the event loop behind an ``is not None`` guard
        #: (RPR007), so an unrecorded run pays one comparison per event.
        self.recorder = recorder
        if recorder is not None:
            recorder.attach({"pending": self._pending.__len__,
                             "parked": self._parked.__len__},
                            counters_probe=lambda: vars(self.counters))

        self._rng_hazard = rng.stream("hazards")
        self._rng_usage = rng.stream("usage")
        self._rng_machine = rng.stream("machine-downtime")
        # Fault-injection state.  Everything here is created only when
        # faults are configured: an unfaulted cell must not consume RNG
        # streams or change its event sequence in any way.
        self._resubmit_policy = (config.faults.resubmit
                                 if config.faults is not None else None)
        if config.faults is not None:
            self._fault_domains = config.faults.domains_for(self.fleet.n)
            self._rng_faults = rng.stream("faults")
        if self._resubmit_policy is not None:
            self._rng_resubmit = rng.stream("resubmit")
            #: collection_id -> (chain root id, attempt number so far).
            self._resubmit_meta: Dict[int, Tuple[int, int]] = {}
            #: Remaining per-user retry budget (the storm brake).
            self._user_retry_left: Dict[str, int] = {}
            # Resubmitted clones need fresh ids far above the workload's
            # own id range (uniqueness is per-cell).
            max_id = max((c.collection_id for c in self.workload), default=0)
            self._resubmit_ids = itertools.count(max_id + 1_000_000)
        # Hazard-arming fast path: exponential scales precomputed per
        # tier (same float64 division, done once instead of per arming)
        # and the generator methods bound once.  Every schedule event
        # arms hazards, so this path runs once per placement.
        self._hazard_exp = self._rng_hazard.exponential
        self._hazard_random = self._rng_hazard.random
        self._evict_scale = {
            tier.rank: HOUR_SECONDS / rate
            for tier, rate in config.eviction_rate_per_hour.items() if rate > 0
        }
        self._restart_scale = (
            HOUR_SECONDS / config.restart_rate_per_hour
            if config.restart_rate_per_hour > 0 else 0.0
        )

    # ------------------------------------------------------------------ setup

    def _push(self, time: float, kind: str, payload: object) -> None:
        # Nothing scheduled at or past the horizon is ever processed (the
        # run loop used to pop-and-discard the first such entry), so those
        # events are dropped at the source instead of parked in the queue.
        # Observable behavior is identical; the queue stays dramatically
        # smaller, because most hazard delays (hours to years, per tier
        # rate) overshoot the horizon.
        #
        # ``seq`` is a per-cell monotone counter, so the heap pops the
        # smallest ``(time, seq)``: ties at one timestamp resolve in push
        # order (FIFO), and ``kind``/``payload`` are never compared.
        if time < self._horizon:
            heappush(self._queue, (time, next(self._seq), kind, payload))

    def _seed_events(self) -> None:
        for collection in self.workload:
            if collection.submit_time < self.config.horizon:
                self._push(collection.submit_time, "submit", collection)
        # Machine maintenance: Poisson(~1/month) per machine.
        rate = self.config.machine_downtime_per_month / (30 * 24 * HOUR_SECONDS)
        if rate > 0:
            for slot in range(self.fleet.n):
                t = float(self._rng_machine.exponential(1.0 / rate))
                while t < self.config.horizon:
                    self._push(t, "machine_down", slot)
                    t += self.config.machine_downtime_duration
                    t += float(self._rng_machine.exponential(1.0 / rate))
        # Correlated fault schedule (rack/power crashes, maintenance
        # windows, rolling upgrades) — only when configured.
        if self.config.faults is not None:
            schedule = generate_fault_schedule(
                self.config.faults, self._fault_domains,
                self.config.horizon, self._rng_faults)
            for fault in schedule:
                self._push(fault.time, "fault", fault)

    # ------------------------------------------------------------------- run

    def run(self) -> CellResult:
        """Execute the cell simulation and return its result."""
        # The run allocates hundreds of thousands of interlinked objects
        # (events, instances, heap entries) that all stay reachable until
        # the result is returned, so cyclic-GC passes during the loop are
        # pure overhead — they scan an ever-growing live graph and free
        # nothing.  Collection is deferred, not skipped: anything garbage
        # is reclaimed at the caller's next GC once this returns.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with obs.span("sim.run"):
                return self._run()
        finally:
            if was_enabled:
                gc.enable()

    def _run(self) -> CellResult:
        with obs.span("sim.seed_events"):
            self._seed_events()
        horizon = self.config.horizon
        handlers = {
            "submit": self._on_submit,
            "enable": self._on_enable,
            "round": self._on_round,
            "batch_check": self._on_batch_check,
            "collection_end": self._on_collection_end,
            "evict": self._on_evict_hazard,
            "restart": self._on_restart_hazard,
            "machine_down": self._on_machine_down,
            "machine_up": self._on_machine_up,
            "collection_timeout": self._on_collection_timeout,
            "fault": self._on_fault,
            "resubmit": self._on_resubmit,
        }
        # The loop only bumps plain integers: one dict probe per event
        # finds the handler and its per-kind tally in a shared slot.  The
        # tallies move into the obs counters before every recorder frame
        # (so a frame holds exactly the events before it) and once after
        # the loop, so the totals never depend on whether a recorder is
        # attached (instrumentation overhead is budgeted at <= 5% of
        # simulator throughput).
        dispatch = {kind: [handler, 0] for kind, handler in handlers.items()}
        counters = {kind: obs.counter("sim.events." + kind)
                    for kind in handlers}
        total = obs.counter("sim.events_processed")
        recorder = self.recorder
        # _push drops anything at or past the horizon, so the loop drains
        # the queue to empty — no boundary check per event.  Exhaustion
        # is signalled by heappop() raising IndexError rather than a truth
        # test per iteration (zero-cost try in 3.11).
        queue = self._queue
        with obs.span("sim.event_loop"):
            while True:
                try:
                    time, _, kind, payload = heappop(queue)
                except IndexError:
                    break
                # Sampled *before* the boundary-crossing event runs, so a
                # frame at t=k·interval holds exactly the state of all
                # events strictly before it.
                if recorder is not None and time >= recorder.next_due:
                    _flush_tallies(dispatch, counters, total)
                    recorder.tick(time)
                entry = dispatch[kind]
                entry[1] += 1
                entry[0](time, payload)
            _flush_tallies(dispatch, counters, total)
        with obs.span("sim.finalize"):
            self._finalize(horizon)
            usage, slots = self._usage.finalize(self._rng_usage)
        with obs.span("sim.reconcile_usage"):
            _reconcile_machine_usage(usage, slots, self.fleet,
                                     self.config.sample_period)
        self._export_obs_counters(usage)
        if recorder is not None:
            # Trailing boundaries (hours after the last event) repeat the
            # closing state; the horizon frame carries the full exported
            # cell counters.
            recorder.finish(horizon)
        return CellResult(
            config=self.config,
            machines=self.fleet.machines,
            collections=list(self._collections.values()),
            events=self.events,
            usage=usage,
            counters=self.counters,
        )

    def _export_obs_counters(self, usage: Dict[str, np.ndarray]) -> None:
        """Publish the run's integrity counters into the obs registry."""
        registry = obs.get_registry()
        for name, value in vars(self.counters).items():
            registry.inc("sim." + name, value)
        registry.inc("sim.usage_rows", len(usage["window_start"]))
        registry.gauge("sim.machines", self.fleet.n)
        registry.gauge("sim.machines_up", self.fleet.up_count())
        registry.gauge("sim.collections", len(self._collections))

    # -------------------------------------------------------------- handlers

    def _on_submit(self, t: float, collection: Collection) -> None:
        self._collections[collection.collection_id] = collection
        self._deps.register(collection)
        if collection.is_alloc_set:
            self.counters.alloc_sets_submitted += 1
        else:
            self.counters.jobs_submitted += 1
        self.counters.tasks_created += collection.num_instances
        self.events.collection(t, collection, EventType.SUBMIT)
        for instance in collection.instances:
            self.events.submit(t, instance)

        use_batch_queue = (
            self.config.batch_queueing
            and collection.scheduler is SchedulerKind.BATCH
            and not collection.is_alloc_set
        )
        if use_batch_queue:
            self.counters.batch_queued += 1
            self.events.collection(t, collection, EventType.QUEUE)
            for instance in collection.instances:
                instance.state = InstanceState.QUEUED
            self._batch.enqueue(collection)
            self._ensure_batch_check(t)
        else:
            self._enable(t, collection, log_event=False)

    def _ensure_batch_check(self, t: float) -> None:
        if not self._batch_check_scheduled:
            self._batch_check_scheduled = True
            self._push(t + self.config.batch.check_interval, "batch_check", None)

    def _on_batch_check(self, t: float, _payload) -> None:
        self._batch_check_scheduled = False
        for collection in self._batch.admit_ready():
            self._batch_admitted.add(collection.collection_id)
            self._enable(t, collection, log_event=True)
        if len(self._batch):
            self._ensure_batch_check(t)

    def _on_enable(self, t: float, collection: Collection) -> None:
        self._enable(t, collection, log_event=True)

    def _enable(self, t: float, collection: Collection, log_event: bool) -> None:
        if collection.is_done:
            return
        collection.enable_time = t
        if log_event:
            self.events.collection(t, collection, EventType.ENABLE)
        # A job that never manages to start is eventually abandoned by its
        # user; without this, admitted-but-unplaceable work would hold the
        # batch budget forever.
        self._push(t + max(1.5 * collection.planned_duration, 1800.0),
                   "collection_timeout", collection)
        for instance in collection.instances:
            if instance.state in (InstanceState.SUBMITTED, InstanceState.QUEUED):
                instance.state = InstanceState.PENDING
                self._pending.push(instance)
        self._ensure_round(t)

    def _ensure_round(self, t: float) -> None:
        if not self._round_scheduled and (len(self._pending) or len(self._parked)):
            self._round_scheduled = True
            interval = self.config.scheduler.round_interval
            next_round = (int(t / interval) + 1) * interval
            self._push(next_round, "round", None)

    def _on_round(self, t: float, _payload) -> None:
        with obs.span("sim.round"):
            self._round(t)

    def _round(self, t: float) -> None:
        self._round_scheduled = False
        with obs.span("sim.round.admit"):
            self._pending.remove_dead()
            if self._parked and t >= self._parked_retry_at:
                self._parked_retry_at = t + self._parked_retry_interval
                self._parked.remove_dead()
                for instance in self._parked.pop_batch(len(self._parked)):
                    self._pending.push(instance)
            obs.gauge("sim.queue.pending_depth", len(self._pending))
            obs.gauge("sim.queue.parked_depth", len(self._parked))
            obs.observe("sim.queue.pending_depth_dist", len(self._pending))
            batch = self._pending.pop_batch(self.config.scheduler.round_capacity)
        with obs.span("sim.round.place"):
            self._place_batch(t, batch)

    def _place_batch(self, t: float, batch: List[Instance]) -> None:
        deferred: List[Instance] = []
        # Failure-dominance pruning: within one round resources only
        # shrink, so a request at least as large (on both dimensions) as
        # one that already failed cannot fit either — skip the scan.
        # Preempting tiers get their own cache since they can make room.
        failed: Dict[Tuple[bool, str], Tuple[float, float]] = {}
        progressed = False
        preempting_tiers = self.config.preempting_tiers
        for instance in batch:
            collection = instance.collection
            if (collection.end_reason is not None
                    or instance.state is not InstanceState.PENDING):
                continue
            preempts = collection.tier in preempting_tiers
            cache_key = (preempts, collection.constraint)
            f_cpu, f_mem = failed.get(cache_key, (float("inf"), float("inf")))
            req = instance.request
            if req.cpu >= f_cpu and req.mem >= f_mem:
                deferred.append(instance)
                continue
            if self._try_place(t, instance):
                progressed = True
            else:
                failed[cache_key] = (min(f_cpu, req.cpu), min(f_mem, req.mem))
                deferred.append(instance)
        for instance in deferred:
            self._parked.push(instance)
        # Event-driven retry: if this round placed nothing, re-running it
        # before any resources free again would do the same failing work
        # over; the next round is armed by whichever event frees capacity
        # (an instance stopping, a machine returning, a new enable).
        if progressed:
            self._ensure_round(t)

    # ------------------------------------------------------------- placement

    def _try_place(self, t: float, instance: Instance) -> bool:
        collection = instance.collection
        # Tasks targeted at an alloc set go inside a live alloc instance.
        if (not instance.is_alloc_instance
                and collection.alloc_collection_id is not None):
            host = self._find_alloc_room(collection.alloc_collection_id, instance.request)
            if host is not None:
                self._start_in_alloc(t, instance, host)
                return True
            # No alloc room (alloc set still pending, or full): fall through
            # to direct machine placement, as Borg does.

        slot = self._policy.find_machine(instance.request, instance.constraint)
        if slot is None and instance.tier in self.config.preempting_tiers:
            found = self._policy.find_preemption(
                instance.request, instance.tier.rank, instance.constraint)
            if found is not None:
                slot, victims = found
                for victim in victims:
                    self.counters.preemption_victims += 1
                    self._evict_instance(t, victim)
        if slot is None:
            return False
        self.fleet.place(slot, instance)
        self._start_running(t, instance, self.fleet.machines[slot].machine_id)
        return True

    def _find_alloc_room(self, alloc_collection_id: int,
                         request: Resources) -> Optional[Instance]:
        alloc_set = self._collections.get(alloc_collection_id)
        if alloc_set is None or alloc_set.is_done:
            return None
        for alloc_instance in alloc_set.instances:
            if (alloc_instance.state is InstanceState.RUNNING
                    and request.fits_in(alloc_instance.available_in_alloc())):
                return alloc_instance
        return None

    def _start_in_alloc(self, t: float, instance: Instance, host: Instance) -> None:
        host.claimed = host.claimed + instance.request
        instance.alloc_instance = host
        self._alloc_tenants.setdefault(host.instance_id, []).append(instance)
        self._start_running(t, instance, host.machine_id)

    def _start_running(self, t: float, instance: Instance, machine_id: int) -> None:
        instance.state = InstanceState.RUNNING
        instance.start_time = t
        instance.machine_id = machine_id
        instance.n_schedules += 1
        instance.incarnation += 1
        is_new = instance.n_schedules == 1
        self.counters.schedule_events += 1
        if not is_new:
            self.counters.reschedule_events += 1
        self.events.instance(t, instance,
                             SCHEDULE_NEW if is_new else SCHEDULE_CODE,
                             machine_id)

        collection = instance.collection
        if collection.first_running_time is None:
            collection.first_running_time = t
            # The collection's planned lifetime starts with its first
            # running task (services run until ended; batch work runs for
            # its drawn duration).
            self._push(t + collection.planned_duration, "collection_end", collection)

        self._arm_hazards(t, instance)

    def _hazard_cap(self, collection: Collection) -> float:
        """Latest time a hazard for ``collection`` can still do anything.

        The collection's end event is already scheduled (hazards are only
        armed after the first instance runs) and its lifetime is never
        extended, so a hazard firing at or after that end — or at/after
        the horizon — is guaranteed to find the instance dead (or the
        run over) and no-op.  At the exact end time the end event wins
        the tie: it was pushed earlier, so it carries the lower seq.
        Dropping those pushes changes no trace bytes and no RNG draws
        (the delay is drawn before the cap check; stale hazard handlers
        return before touching any RNG stream).
        """
        end = collection.first_running_time + collection.planned_duration
        return end if end < self._horizon else self._horizon

    def _arm_hazards(self, t: float, instance: Instance) -> None:
        collection = instance.collection
        cap = self._hazard_cap(collection)
        scale = self._evict_scale.get(collection.tier.rank)
        if scale is not None:
            delay = float(self._hazard_exp(scale))
            if t + delay < cap:
                self._push(t + delay, "evict", (instance, instance.incarnation))
        if self._restart_scale and not instance.is_alloc_instance:
            delay = float(self._hazard_exp(self._restart_scale))
            if t + delay < cap:
                self._push(t + delay, "restart", (instance, instance.incarnation))

    # ------------------------------------------------------------ stop paths

    def _stop_run(self, t: float, instance: Instance) -> None:
        """Close the current run: bookkeeping + usage samples."""
        machine_id = instance.machine_id
        start = instance.start_time
        if start is None or machine_id is None:
            raise SimulationError(f"stopping non-running instance {instance.instance_id}")
        fleet = self.fleet
        slot = fleet.slot_of[machine_id]
        if instance.alloc_instance is not None:
            host = instance.alloc_instance
            host.claimed = host.claimed - instance.request
            tenants = self._alloc_tenants.get(host.instance_id)
            if tenants and instance in tenants:
                tenants.remove(instance)
            instance.alloc_instance = None
        elif instance in fleet.residents[slot]:
            fleet.remove(slot, instance)
        instance.record_stop(t)
        instance.incarnation += 1
        self._emit_usage(instance, start, t, slot)

    def _emit_usage(self, instance: Instance, start: float, end: float,
                    slot: int) -> None:
        """Queue the closed run interval for batched sample generation.

        Only scalars are captured here; the actual sampling happens in
        one vectorized pass at finalize (``UsageBatch``), drawing from
        the dedicated usage RNG stream in this same interval order.
        """
        if end <= start:
            return
        collection = instance.collection
        # The packed tier code is the tier's rank (TIER_CODES is defined
        # that way), so the hot path reads the plain .rank attribute
        # instead of hashing an enum member per interval.
        if instance.is_alloc_instance:
            # Alloc instances are reservations: they contribute allocation
            # (their limit) but no usage of their own — usage comes from
            # the tenant tasks scheduled inside them, which are sampled on
            # the same machine.  Emitting usage here would double-count.
            self._usage.add_alloc(
                collection_id=collection.collection_id,
                instance_index=instance.index,
                slot=slot,
                tier_code=collection.tier.rank,
                autopilot_code=AUTOPILOT_CODES[collection.autopilot_mode],
                start=start, end=end,
                cpu_limit=instance.request.cpu,
                mem_limit=instance.request.mem,
            )
            return
        self._usage.add_task(
            collection_id=collection.collection_id,
            instance_index=instance.index,
            slot=slot,
            tier_code=collection.tier.rank,
            autopilot_code=AUTOPILOT_CODES[collection.autopilot_mode],
            in_alloc=collection.alloc_collection_id is not None,
            start=start, end=end,
            cpu_limit=instance.request.cpu,
            mem_limit=instance.request.mem,
            cpu_fraction=collection.cpu_usage_fraction,
            mem_fraction=collection.mem_usage_fraction,
        )

    def _evict_instance(self, t: float, instance: Instance) -> None:
        """Infrastructure eviction: stop, log EVICT, requeue for placement."""
        if instance.state is not InstanceState.RUNNING:
            return
        # Evicting an alloc instance first evicts its tenants.
        if instance.is_alloc_instance:
            for tenant in list(self._alloc_tenants.get(instance.instance_id, [])):
                self._evict_instance(t, tenant)
        machine_id = instance.machine_id
        self._stop_run(t, instance)
        self.counters.evictions += 1
        self.events.instance(t, instance, EVICT_CODE, machine_id)
        self._requeue(t, instance)

    def _requeue(self, t: float, instance: Instance) -> None:
        """Send a stopped instance back to the pending queue (new SUBMIT)."""
        instance.state = InstanceState.PENDING
        self.events.instance(t, instance, SUBMIT_CODE)
        self._pending.push(instance)
        self._ensure_round(t)

    def _on_evict_hazard(self, t: float, payload) -> None:
        instance, incarnation = payload
        if (instance.incarnation != incarnation
                or instance.state is not InstanceState.RUNNING
                or instance.collection.end_reason is not None):
            return
        self._evict_instance(t, instance)

    def _on_restart_hazard(self, t: float, payload) -> None:
        # The hottest handler (on engine-2k, 44,880 of the 51,352
        # processed events are restart fires): collection fetched once,
        # is_done spelled as the raw end_reason test, the hazard cap
        # inlined, and the FAIL/SUBMIT/SCHEDULE triple logged as one
        # crash-loop record.  RNG draw order and trace bytes are
        # unchanged.
        instance, incarnation = payload
        collection = instance.collection
        if (instance.incarnation != incarnation
                or instance.state is not InstanceState.RUNNING
                or collection.end_reason is not None):
            return
        # A task-level crash: the incarnation FAILs and is rescheduled.
        machine_id = instance.machine_id
        counters = self.counters
        counters.task_restarts += 1
        if self._hazard_random() < 0.10:
            # Occasionally the restart lands elsewhere: full stop + requeue.
            self.events.instance(t, instance, FAIL_CODE, machine_id)
            self._stop_run(t, instance)
            self._requeue(t, instance)
            return
        # The common crash-loop case: the local agent restarts the task in
        # place within seconds.  Modeled as a logical restart — new SUBMIT
        # and SCHEDULE events (the figure 9 "churn"), same machine, run
        # interval uninterrupted.
        instance.n_schedules += 1
        counters.schedule_events += 1
        counters.reschedule_events += 1
        self.events.crash_loop(t, instance, machine_id)
        restart_scale = self._restart_scale
        if restart_scale:
            delay = float(self._hazard_exp(restart_scale))
            fire = t + delay
            end = collection.first_running_time + collection.planned_duration
            cap = end if end < self._horizon else self._horizon
            if fire < cap:
                self._push(fire, "restart", (instance, incarnation))

    def _on_machine_down(self, t: float, slot: int) -> None:
        if not self.fleet.py_up[slot]:
            return
        self.counters.machine_downtimes += 1
        # Maintenance is planned: production work is *drained* — migrated
        # ahead of the outage rather than evicted.  This is Borg's
        # eviction-rate SLO protecting important collections (section
        # 5.2: <0.2% of prod collections ever see an eviction despite ~1
        # maintenance/machine/month).
        self._take_down(t, slot, self.config.machine_downtime_duration,
                        drain=True)

    def _take_down(self, t: float, slot: int, duration: float,
                   drain: bool) -> None:
        """Take the up machine at ``slot`` offline for ``duration`` seconds.

        Its residents are stopped: with ``drain``, preempting-tier work
        is drained (requeued without an EVICT) and the rest evicted;
        without it, everything is evicted.
        """
        self.fleet.set_up(slot, False)
        machine = self.fleet.machines[slot]
        self.events.machine(t, machine.machine_id, "REMOVE",
                            machine.capacity.cpu, machine.capacity.mem)
        for instance in list(self.fleet.residents[slot]):
            if drain and instance.tier in self.config.preempting_tiers:
                self._drain_instance(t, instance)
            else:
                self._evict_instance(t, instance)
        self._push(t + duration, "machine_up", slot)

    def _drain_instance(self, t: float, instance: Instance) -> None:
        """Gracefully migrate an instance off its machine (no EVICT)."""
        if instance.state is not InstanceState.RUNNING:
            return
        if instance.is_alloc_instance:
            for tenant in list(self._alloc_tenants.get(instance.instance_id, [])):
                self._drain_instance(t, tenant)
        self._stop_run(t, instance)
        self._requeue(t, instance)

    def _on_machine_up(self, t: float, slot: int) -> None:
        self.fleet.set_up(slot, True)
        machine = self.fleet.machines[slot]
        self.events.machine(t, machine.machine_id, "ADD",
                            machine.capacity.cpu, machine.capacity.mem)
        self._ensure_round(t)

    def _on_fault(self, t: float, fault: FaultEvent) -> None:
        """A correlated outage: a rack or power domain goes down at once.

        Planned outages (maintenance windows, rolling upgrades) drain
        production work like baseline per-machine maintenance; unplanned
        crashes evict *everything* — a dead switch does not honor the
        eviction SLO.  Machines already down (overlapping outage) are
        skipped, mirroring :meth:`_on_machine_down`; their earlier
        ``machine_up`` event still governs their return.
        """
        self.counters.fault_events += 1
        planned = fault.kind != "crash"
        for slot in fault.machine_indices:
            if not self.fleet.py_up[slot]:
                continue
            self.counters.fault_machine_outages += 1
            self._take_down(t, slot, fault.duration, drain=planned)

    # --------------------------------------------------------- terminations

    def _on_collection_end(self, t: float, collection: Collection) -> None:
        if collection.is_done:
            return
        self._terminate_collection(t, collection, collection.planned_end)

    def _on_collection_timeout(self, t: float, collection: Collection) -> None:
        """User gives up on a job that never started running."""
        if collection.is_done or collection.first_running_time is not None:
            return
        self._terminate_collection(t, collection, EndReason.KILL)

    def _terminate_collection(self, t: float, collection: Collection,
                              reason: EndReason) -> None:
        collection.end_reason = reason
        collection.end_time = t
        code = _END_CODE[reason]
        for instance in collection.instances:
            if instance.state is InstanceState.RUNNING:
                machine_id = instance.machine_id
                self._stop_run(t, instance)
                self.events.instance(t, instance, code, machine_id)
            elif instance.state is not InstanceState.DEAD:
                self.events.instance(t, instance, code)
            instance.state = InstanceState.DEAD
            instance.end_reason = reason
        self.events.collection(t, collection, _END_EVENT[reason])
        if collection.collection_id in self._batch_admitted:
            self._batch_admitted.discard(collection.collection_id)
            self._batch.release(collection)
        # The termination freed capacity: let waiting work try again.
        self._ensure_round(t)
        # Failed jobs come back: users and frameworks retry with backoff
        # (fault injection only; never triggers for KILL/FINISH/EVICT).
        if (self._resubmit_policy is not None and reason is EndReason.FAIL
                and not collection.is_alloc_set):
            self._maybe_resubmit(t, collection)
        # Dependency cascade: children are killed when the parent exits.
        for child in self._deps.on_termination(collection):
            self.counters.cascade_kills += 1
            self._terminate_collection(t, child, EndReason.KILL)

    # --------------------------------------------------------- resubmission

    def _maybe_resubmit(self, t: float, collection: Collection) -> None:
        """Schedule a failed job's resubmission, if its chain/budget allow.

        Pure bookkeeping — no RNG: the backoff is the policy's
        deterministic bounded-exponential schedule, so per-chain delays
        strictly increase up to the cap (a property the event-invariant
        suite verifies from the log alone).
        """
        policy = self._resubmit_policy
        root_id, attempts = self._resubmit_meta.get(
            collection.collection_id, (collection.collection_id, 0))
        attempt = attempts + 1
        if attempt > policy.max_attempts:
            self.counters.resubmit_chain_exhausted += 1
            return
        left = self._user_retry_left.setdefault(collection.user,
                                                policy.user_retry_budget)
        if left <= 0:
            self.counters.resubmit_budget_exhausted += 1
            return
        self._user_retry_left[collection.user] = left - 1
        delay = policy.delay(attempt)
        self._push(t + delay, "resubmit", (collection, root_id, attempt, delay))

    def _on_resubmit(self, t: float, payload) -> None:
        """Re-enter a failed job as a fresh collection (new id, new SUBMIT).

        That is how the real trace shows resubmissions — repeated
        near-identical collections from the same user; the
        :class:`~repro.sim.events.ResubmitEvent` side stream carries the
        chain provenance analyses need.
        """
        failed, root_id, attempt, delay = payload
        policy = self._resubmit_policy
        # Crash loops: most retries of a genuinely broken job fail again.
        refail = bool(self._rng_resubmit.random() < policy.refail_prob)
        clone = Collection(
            collection_id=next(self._resubmit_ids),
            collection_type=CollectionType.JOB,
            priority=failed.priority,
            tier=failed.tier,
            user=failed.user,
            submit_time=t,
            scheduler=failed.scheduler,
            alloc_collection_id=failed.alloc_collection_id,
            autopilot_mode=failed.autopilot_mode,
            constraint=failed.constraint,
            planned_duration=failed.planned_duration,
            planned_end=EndReason.FAIL if refail else EndReason.FINISH,
            cpu_usage_fraction=failed.cpu_usage_fraction,
            mem_usage_fraction=failed.mem_usage_fraction,
        )
        for index, instance in enumerate(failed.instances):
            clone.instances.append(Instance(
                collection=clone, index=index, request=instance.request,
            ))
        self._resubmit_meta[clone.collection_id] = (root_id, attempt)
        self.counters.resubmissions += 1
        self.events.resubmit(t, clone.collection_id, failed.collection_id,
                             root_id, attempt, delay, clone.user,
                             clone.tier._value_)
        self._on_submit(t, clone)

    def _finalize(self, horizon: float) -> None:
        """Close run intervals of instances still running at the horizon.

        No termination events are logged for them — like the real trace,
        work still running when the observation window closes is
        right-censored.
        """
        for collection in self._collections.values():
            for instance in collection.instances:
                if instance.state is InstanceState.RUNNING:
                    self._stop_run(horizon, instance)
