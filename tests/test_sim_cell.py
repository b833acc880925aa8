"""Integration tests for the cell engine on a small, hand-built workload."""

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.obs.recorder import CellRecorder
from repro.sim import CellConfig, CellSim, EventType, Machine, Resources, Tier
from repro.sim.cell import TIER_CODES, _reconcile_machine_usage
from repro.sim.entities import (
    Collection,
    CollectionType,
    EndReason,
    Instance,
    SchedulerKind,
)
from repro.sim.events import TERMINAL_EVENTS
from repro.sim.fleet import FleetState
from repro.trace import encode_cell
from repro.util.errors import SimulationError
from repro.util.rng import RngFactory
from repro.workload import small_test_scenario


def make_config(**overrides):
    defaults = dict(
        name="test", era="2019", horizon=4 * 3600.0,
        restart_rate_per_hour=0.0,
        eviction_rate_per_hour={t: 0.0 for t in Tier},
        machine_downtime_per_month=0.0,
    )
    defaults.update(overrides)
    return CellConfig(**defaults)


def make_job(cid, tier=Tier.PROD, submit=0.0, duration=1800.0, n=1,
             cpu=0.1, mem=0.1, end=EndReason.FINISH, parent=None,
             scheduler=SchedulerKind.BORG, alloc_id=None,
             autopilot="none"):
    c = Collection(
        collection_id=cid, collection_type=CollectionType.JOB,
        priority=200 if tier is Tier.PROD else 50, tier=tier, user="u",
        submit_time=submit, scheduler=scheduler, parent_id=parent,
        alloc_collection_id=alloc_id, planned_duration=duration,
        planned_end=end, autopilot_mode=autopilot,
        cpu_usage_fraction=0.5, mem_usage_fraction=0.5,
    )
    for i in range(n):
        c.instances.append(Instance(collection=c, index=i,
                                    request=Resources(cpu, mem)))
    return c


def run_cell(workload, machines=None, config=None, seed=0):
    config = config or make_config()
    machines = machines or [Machine(i, Resources(1.0, 1.0)) for i in range(4)]
    sim = CellSim(config, machines, workload, RngFactory(seed))
    return sim.run()


def events_of(result, cid, stream="collection"):
    if stream == "collection":
        return [e for e in result.events.collection_events if e.collection_id == cid]
    return [e for e in result.events.instance_events if e.collection_id == cid]


class TestBasicLifecycle:
    def test_job_runs_and_finishes(self):
        result = run_cell([make_job(1, duration=1800.0)])
        types = [e.event for e in events_of(result, 1)]
        assert types == [EventType.SUBMIT, EventType.FINISH]
        collection = result.collections[0]
        assert collection.end_reason is EndReason.FINISH
        assert collection.end_time == pytest.approx(
            collection.first_running_time + 1800.0)

    def test_instance_events_sequence(self):
        result = run_cell([make_job(1)])
        types = [e.event for e in events_of(result, 1, "instance")]
        assert types == [EventType.SUBMIT, EventType.SCHEDULE, EventType.FINISH]

    def test_usage_samples_generated(self):
        result = run_cell([make_job(1, duration=3600.0)])
        assert len(result.usage["window_start"]) >= 10  # 300s windows
        assert (result.usage["avg_cpu"] > 0).all()

    def test_usage_tier_codes(self):
        result = run_cell([make_job(1, tier=Tier.PROD)])
        assert set(result.usage["tier_code"].tolist()) == {TIER_CODES[Tier.PROD]}

    def test_scheduling_delay_within_round_interval(self):
        result = run_cell([make_job(1, submit=100.0)])
        c = result.collections[0]
        delay = c.first_running_time - c.enable_time
        assert 0 <= delay <= 2 * 5.0 + 1.0

    def test_planned_kill_and_fail(self):
        result = run_cell([
            make_job(1, end=EndReason.KILL),
            make_job(2, end=EndReason.FAIL),
        ])
        reasons = {c.collection_id: c.end_reason for c in result.collections}
        assert reasons[1] is EndReason.KILL
        assert reasons[2] is EndReason.FAIL

    def test_censored_job_has_no_terminal_event(self):
        result = run_cell([make_job(1, duration=999_999.0)])
        types = [e.event for e in events_of(result, 1)]
        assert EventType.FINISH not in types
        # But its usage up to the horizon was recorded.
        assert result.usage["window_start"].max() < 4 * 3600.0

    def test_multi_task_job(self):
        result = run_cell([make_job(1, n=5)])
        schedules = [e for e in events_of(result, 1, "instance")
                     if e.event is EventType.SCHEDULE]
        assert len(schedules) == 5
        assert result.counters.tasks_created == 5


class TestBatchQueue:
    def test_beb_job_gets_queue_and_enable(self):
        job = make_job(1, tier=Tier.BEB, scheduler=SchedulerKind.BATCH)
        result = run_cell([job])
        types = [e.event for e in events_of(result, 1)]
        assert types[:3] == [EventType.SUBMIT, EventType.QUEUE, EventType.ENABLE]

    def test_no_batch_queue_in_2011(self):
        config = make_config(era="2011", batch_queueing=False)
        job = make_job(1, tier=Tier.BEB, scheduler=SchedulerKind.BATCH)
        result = run_cell([job], config=config)
        types = [e.event for e in events_of(result, 1)]
        assert EventType.QUEUE not in types

    def test_queue_throttles_second_job(self):
        # Budget (0.55 * 4 cpu = 2.2) held by the first huge job.
        first = make_job(1, tier=Tier.BEB, scheduler=SchedulerKind.BATCH,
                         n=20, cpu=0.105, mem=0.105, duration=3600.0)
        second = make_job(2, tier=Tier.BEB, scheduler=SchedulerKind.BATCH,
                          submit=60.0, n=4, cpu=0.1, mem=0.1)
        result = run_cell([first, second])
        enable_2 = [e for e in events_of(result, 2)
                    if e.event is EventType.ENABLE][0]
        end_1 = [e for e in events_of(result, 1)
                 if e.event in TERMINAL_EVENTS][0]
        assert enable_2.time >= end_1.time


class TestDependenciesInCell:
    def test_cascade_kill(self):
        parent = make_job(1, duration=1800.0, end=EndReason.FINISH)
        child = make_job(2, submit=10.0, duration=999_999.0, parent=1)
        result = run_cell([parent, child])
        reasons = {c.collection_id: c.end_reason for c in result.collections}
        assert reasons[2] is EndReason.KILL
        ends = {c.collection_id: c.end_time for c in result.collections}
        assert ends[2] == pytest.approx(ends[1])
        assert result.counters.cascade_kills == 1

    def test_child_ending_first_not_cascaded(self):
        parent = make_job(1, duration=7000.0)
        child = make_job(2, submit=10.0, duration=600.0, parent=1,
                         end=EndReason.FINISH)
        result = run_cell([parent, child])
        reasons = {c.collection_id: c.end_reason for c in result.collections}
        assert reasons[2] is EndReason.FINISH


class TestPreemption:
    def test_prod_preempts_free(self):
        machines = [Machine(0, Resources(1.0, 1.0))]
        config = make_config()
        filler = make_job(1, tier=Tier.FREE, n=9, cpu=0.2, mem=0.2,
                          duration=999_999.0)
        filler.priority = 25
        prod = make_job(2, tier=Tier.PROD, submit=600.0, cpu=0.3, mem=0.3,
                        duration=600.0)
        result = run_cell([filler, prod], machines=machines, config=config)
        assert result.counters.preemption_victims >= 1
        evicts = [e for e in events_of(result, 1, "instance")
                  if e.event is EventType.EVICT]
        assert evicts
        # Victim was resubmitted (is_new False on its later SUBMIT).
        resubmits = [e for e in events_of(result, 1, "instance")
                     if e.event is EventType.SUBMIT and not e.is_new]
        assert resubmits

    def test_free_does_not_preempt(self):
        machines = [Machine(0, Resources(1.0, 1.0))]
        filler = make_job(1, tier=Tier.BEB, n=9, cpu=0.2, mem=0.2,
                          duration=999_999.0, scheduler=SchedulerKind.BORG)
        filler.priority = 110
        free = make_job(2, tier=Tier.FREE, submit=600.0, cpu=0.5, mem=0.5)
        free.priority = 25
        result = run_cell([filler, free], machines=machines)
        assert result.counters.preemption_victims == 0


class TestHazards:
    def test_restarts_produce_churn(self):
        config = make_config(restart_rate_per_hour=5.0)
        result = run_cell([make_job(1, duration=3 * 3600.0)], config=config)
        assert result.counters.task_restarts > 0
        fails = [e for e in events_of(result, 1, "instance")
                 if e.event is EventType.FAIL]
        assert fails
        # The collection itself still ends normally.
        assert result.collections[0].end_reason is EndReason.FINISH

    def test_eviction_hazard_reschedules(self):
        config = make_config(
            eviction_rate_per_hour={t: (30.0 if t is Tier.FREE else 0.0)
                                    for t in Tier},
        )
        job = make_job(1, tier=Tier.FREE, duration=2 * 3600.0)
        job.priority = 25
        result = run_cell([job], config=config)
        assert result.counters.evictions >= 1
        evicts = [e for e in events_of(result, 1, stream="instance")
                  if e.instance_index == 0 and e.event is EventType.EVICT]
        assert len(evicts) >= 1

    def test_machine_downtime_evicts_and_recovers(self):
        config = make_config(machine_downtime_per_month=10_000.0,
                             machine_downtime_duration=600.0)
        machines = [Machine(0, Resources(1.0, 1.0))]
        result = run_cell([make_job(1, duration=3.5 * 3600.0)],
                          machines=machines, config=config)
        assert result.counters.machine_downtimes >= 1
        assert len(result.events.machine_events) >= 2
        kinds = {e.event for e in result.events.machine_events}
        assert {"REMOVE", "ADD"} <= kinds


class TestAllocSets:
    def _alloc_set(self, cid=10, n=2, size=0.4):
        c = Collection(
            collection_id=cid, collection_type=CollectionType.ALLOC_SET,
            priority=200, tier=Tier.PROD, user="u", submit_time=0.0,
            planned_duration=999_999.0, planned_end=EndReason.KILL,
        )
        for i in range(n):
            c.instances.append(Instance(collection=c, index=i,
                                        request=Resources(size, size)))
        return c

    def test_task_placed_inside_alloc(self):
        alloc = self._alloc_set()
        job = make_job(1, submit=60.0, alloc_id=10, cpu=0.1, mem=0.1)
        result = run_cell([alloc, job])
        # The task ran on the machine hosting one of the alloc instances.
        task_runs = [e.machine_id for e in events_of(result, 1, "instance")
                     if e.event is EventType.SCHEDULE]
        alloc_machines = {e.machine_id for e in events_of(result, 10, "instance")
                          if e.event is EventType.SCHEDULE}
        assert task_runs and task_runs[0] in alloc_machines
        u = result.usage
        task_rows = u["machine_id"][u["collection_id"] == 1]
        assert len(task_rows) and set(task_rows.tolist()) <= alloc_machines

    def test_alloc_instances_emit_reservation_rows(self):
        alloc = self._alloc_set()
        result = run_cell([alloc])
        u = result.usage
        assert len(u["window_start"]) > 0
        assert float(u["avg_cpu"].sum()) == 0.0        # reservations: no usage
        assert float(u["cpu_limit"].sum()) > 0.0       # but they hold limits

    def test_overflow_falls_back_to_machines(self):
        alloc = self._alloc_set(n=1, size=0.15)
        job = make_job(1, submit=60.0, alloc_id=10, n=6, cpu=0.1, mem=0.1)
        result = run_cell([alloc, job])
        # All six tasks ran even though the alloc fits at most one.
        schedules = [e for e in events_of(result, 1, "instance")
                     if e.event is EventType.SCHEDULE]
        assert len(schedules) == 6


class TestTimeouts:
    def test_unplaceable_job_killed_eventually(self):
        machines = [Machine(0, Resources(0.2, 0.2))]
        config = make_config(horizon=6 * 3600.0)
        # Request exceeds every machine even with over-commit: never places.
        job = make_job(1, cpu=0.9, mem=0.9, duration=600.0)
        result = run_cell([job], machines=machines, config=config)
        c = result.collections[0]
        assert c.end_reason is EndReason.KILL
        assert c.first_running_time is None


class TestReconcile:
    """Rows are grouped by (fleet slot, window) and each group is scaled
    to 98% of its machine's capacity; ``tests/test_reconcile_oracle.py``
    checks the result byte for byte against the reference spelling."""

    def test_overloaded_window_scaled_to_capacity(self):
        usage = {
            "window_start": np.array([0.0, 0.0]),
            "avg_cpu": np.array([0.8, 0.8]),
            "max_cpu": np.array([0.9, 0.9]),
            "avg_mem": np.array([0.1, 0.1]),
            "max_mem": np.array([0.1, 0.1]),
        }
        machines = [Machine(0, Resources(1.0, 1.0))]
        _reconcile_machine_usage(usage, np.array([0, 0], dtype=np.int32),
                                 FleetState(machines), 300.0)
        assert float(usage["avg_cpu"].sum()) == pytest.approx(0.98)
        assert float(usage["avg_mem"].sum()) == pytest.approx(0.2)  # untouched

    def test_underloaded_window_untouched(self):
        usage = {
            "window_start": np.array([0.0]),
            "avg_cpu": np.array([0.3]),
            "max_cpu": np.array([0.4]),
            "avg_mem": np.array([0.3]),
            "max_mem": np.array([0.4]),
        }
        _reconcile_machine_usage(
            usage, np.array([0], dtype=np.int32),
            FleetState([Machine(0, Resources(1.0, 1.0))]), 300.0)
        assert usage["avg_cpu"][0] == 0.3

    def test_capacity_is_gathered_by_slot(self):
        """Slot 0 holds machine id 70 (small) and slot 1 machine id 5
        (large): each row is throttled by its slot's capacity, whatever
        the machine ids are."""
        usage = {
            "window_start": np.array([0.0, 0.0, 300.0]),
            "avg_cpu": np.array([0.6, 0.6, 0.6]),
            "max_cpu": np.array([0.7, 0.7, 0.7]),
            "avg_mem": np.array([0.1, 0.1, 0.1]),
            "max_mem": np.array([0.1, 0.1, 0.1]),
        }
        fleet = FleetState([Machine(70, Resources(0.5, 1.0)),
                            Machine(5, Resources(2.0, 1.0))])
        _reconcile_machine_usage(usage, np.array([0, 1, 0], dtype=np.int32),
                                 fleet, 300.0)
        assert usage["avg_cpu"].tolist() == [0.5 * 0.98, 0.6, 0.5 * 0.98]

    @pytest.mark.parametrize("slot", [1, -1])
    def test_slot_outside_the_fleet_raises(self, slot):
        """Groups are keyed by fleet slot, so a machine the fleet does not
        hold has no capacity to throttle against: rather than leave its
        rows unthrottled (what an unknown id did when groups were keyed
        by machine id), the reconcile refuses them.  The simulator never
        produces one: ``_stop_run`` resolves every slot through
        ``FleetState.slot_of``."""
        usage = {
            "window_start": np.array([0.0, 0.0]),
            "avg_cpu": np.array([0.3, 0.3]),
            "max_cpu": np.array([0.4, 0.4]),
            "avg_mem": np.array([0.3, 0.3]),
            "max_mem": np.array([0.4, 0.4]),
        }
        with pytest.raises(SimulationError, match="outside the fleet"):
            _reconcile_machine_usage(
                usage, np.array([0, slot], dtype=np.int32),
                FleetState([Machine(0, Resources(1.0, 1.0))]), 300.0)

    def test_empty_usage_ok(self):
        usage = {"window_start": np.empty(0)}
        _reconcile_machine_usage(usage, np.empty(0, dtype=np.int32),
                                 FleetState([]), 300.0)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        workload = lambda: [make_job(i, submit=i * 30.0, n=2) for i in range(1, 6)]
        a = run_cell(workload(), seed=7)
        b = run_cell(workload(), seed=7)
        assert len(a.events.instance_events) == len(b.events.instance_events)
        assert a.usage["avg_cpu"].tolist() == b.usage["avg_cpu"].tolist()

    def test_different_seed_different_usage(self):
        workload = lambda: [make_job(1, duration=3 * 3600.0)]
        a = run_cell(workload(), seed=1)
        b = run_cell(workload(), seed=2)
        assert a.usage["avg_cpu"].tolist() != b.usage["avg_cpu"].tolist()


def _trace_sha256(result) -> str:
    """SHA-256 over every encoded table's columns, byte-exact."""
    trace = encode_cell(result)
    h = hashlib.sha256()
    for name in sorted(trace.tables):
        table = trace.tables[name]
        h.update(name.encode())
        for col in table.column_names:
            values = table.column(col).values
            h.update(col.encode())
            if values.dtype == object:
                h.update(str(values.tolist()).encode())
            else:
                h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


class TestRecorderParity:
    """Recording a run must not change it, and a frame at ``t`` must hold
    exactly the events before ``t``."""

    @staticmethod
    def _run(recorder):
        scenario = small_test_scenario(seed=11, machines_per_cell=12,
                                       horizon_hours=6.0, faults="heavy",
                                       archetype_mix="mixed")
        with obs.scoped_registry() as registry:
            result = scenario.run(recorder=recorder)
        counters = {k: v for k, v in registry.snapshot().counters.items()
                    if k.startswith("sim.")}
        return scenario, result, counters

    @pytest.fixture(scope="class")
    def runs(self):
        recorder = CellRecorder("g", interval=1800.0)
        return self._run(None), self._run(recorder), recorder.frames

    def test_trace_bytes_identical(self, runs):
        (_, plain, _), (_, recorded, _), _ = runs
        assert recorded.counters.resubmissions > 0  # the faulted paths ran
        assert _trace_sha256(recorded) == _trace_sha256(plain)

    def test_final_counters_identical(self, runs):
        (_, _, plain), (_, _, recorded), _ = runs
        assert plain["sim.events_processed"] > 0
        assert recorded == plain

    def test_frame_holds_exactly_the_events_before_it(self, runs):
        _, (scenario, result, _), frames = runs
        assert len(frames) == 12
        submits = [c.submit_time for c in scenario.workload]
        resubmits = [e.time for e in result.events.resubmit_events]
        for frame in frames:
            t = frame["t_sim"]
            counters = frame["counters"]
            assert counters["sim.events.submit"] == \
                sum(1 for s in submits if s < t)
            assert counters["sim.events.resubmit"] == \
                sum(1 for s in resubmits if s < t)


class TestWorkloadReuse:
    """A run mutates its workload's collections; machines stay fixed."""

    @staticmethod
    def _scenario():
        return small_test_scenario(seed=3, machines_per_cell=12,
                                   horizon_hours=3.0, faults="heavy")

    def test_second_run_of_a_workload_raises_at_once(self):
        scenario = self._scenario()
        scenario.run()
        with obs.scoped_registry() as registry:
            with pytest.raises(SimulationError, match="already simulated"):
                scenario.run()
        # Raised by the constructor: not one event was processed.
        assert "sim.events_processed" not in registry.snapshot().counters

    def test_fresh_workloads_over_one_machine_list_match(self):
        first = self._scenario()
        second = self._scenario()
        second.machines = first.machines
        a = first.run()
        assert a.counters.fault_machine_outages > 0  # machines went down
        b = second.run()
        assert all(x is y for x, y in zip(b.machines, a.machines))
        assert _trace_sha256(b) == _trace_sha256(a)
