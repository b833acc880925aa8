"""Unit tests for scheduler policy, batch queue, dependencies, autopilot, usage."""

import numpy as np
import pytest

from repro.sim import Machine, Resources, Tier
from repro.sim.autopilot import AutopilotMode, AutopilotParams, limit_trajectory, peak_slack
from repro.sim.batch import BatchParams, BatchQueue
from repro.sim.dependencies import DependencyManager
from repro.sim.entities import Collection, CollectionType, EndReason, Instance
from repro.sim.fleet import FleetState
from repro.sim.scheduler import PendingQueue, PlacementPolicy, SchedulerParams
from repro.sim.usage import UsageModel, UsageModelParams, diurnal_factor
from tests.usage_oracles import sample_interval, window_starts


def _collection(tier=Tier.PROD, cid=1, n=0, cpu=0.1, mem=0.1):
    c = Collection(collection_id=cid, collection_type=CollectionType.JOB,
                   priority=200, tier=tier, user="u", submit_time=0.0)
    for i in range(n):
        c.instances.append(Instance(collection=c, index=i,
                                    request=Resources(cpu, mem)))
    return c


class TestPlacementPolicy:
    def _policy(self, fleet, **kw):
        return PlacementPolicy(fleet, SchedulerParams(**kw),
                               np.random.default_rng(0))

    def test_finds_feasible_machine(self):
        fleet = FleetState([Machine(i, Resources(0.5, 0.5)) for i in range(10)])
        policy = self._policy(fleet, overcommit_cpu=1.0, overcommit_mem=1.0)
        assert policy.find_machine(Resources(0.3, 0.3)) is not None

    def test_none_when_infeasible(self):
        fleet = FleetState([Machine(i, Resources(0.2, 0.2)) for i in range(10)])
        policy = self._policy(fleet, overcommit_cpu=1.0, overcommit_mem=1.0)
        assert policy.find_machine(Resources(0.5, 0.1)) is None

    def test_overcommit_admits_above_capacity(self):
        request = Resources(1.2, 0.5)  # above capacity x 1.0 on CPU
        for overcommit, admitted in ((1.0, False), (1.5, True)):
            fleet = FleetState([Machine(0, Resources(1.0, 1.0))])
            policy = self._policy(fleet, overcommit_cpu=overcommit,
                                  overcommit_mem=overcommit)
            found = policy.find_machine(request)
            assert (found is not None) is admitted

    def test_down_machine_admits_nothing(self):
        fleet = FleetState([Machine(0, Resources(1.0, 1.0))])
        fleet.set_up(0, False)
        policy = self._policy(fleet, overcommit_cpu=1.5, overcommit_mem=1.5)
        assert policy.find_machine(Resources(0.01, 0.01)) is None

    def test_full_scan_rescues_rare_fit(self):
        # Only 1 of 200 machines fits; sampling alone would often miss it.
        machines = [Machine(i, Resources(0.1, 0.1)) for i in range(199)]
        machines.append(Machine(199, Resources(1.0, 1.0)))
        fleet = FleetState(machines)
        policy = self._policy(fleet, overcommit_cpu=1.0, overcommit_mem=1.0,
                              candidates=4)
        found = policy.find_machine(Resources(0.5, 0.5))
        assert found is not None and fleet.machines[found].machine_id == 199

    def test_best_fit_prefers_tighter_machine(self):
        fleet = FleetState([Machine(0, Resources(1.0, 1.0)),
                            Machine(1, Resources(1.0, 1.0))])
        filler = _collection(Tier.PROD, 1, n=1, cpu=0.85, mem=0.85).instances[0]
        fleet.place(0, filler)  # slot 0 near full, slot 1 empty
        policy = self._policy(fleet, overcommit_cpu=1.0, overcommit_mem=1.0,
                              candidates=16)
        assert policy.find_machine(Resources(0.1, 0.1)) == 0

    def test_preemption_finds_victims(self):
        fleet = FleetState([Machine(0, Resources(1.0, 1.0))])
        victim = _collection(Tier.FREE, 1, n=1, cpu=0.9, mem=0.9).instances[0]
        fleet.place(0, victim)
        policy = self._policy(fleet, overcommit_cpu=1.0, overcommit_mem=1.0)
        found = policy.find_preemption(Resources(0.5, 0.5), Tier.PROD.rank)
        assert found is not None
        slot, victims = found
        assert slot == 0 and victims == [victim]

    def test_preemption_ignores_equal_or_higher_tiers(self):
        fleet = FleetState([Machine(0, Resources(1.0, 1.0))])
        prod = _collection(Tier.PROD, 1, n=1, cpu=0.9, mem=0.9).instances[0]
        fleet.place(0, prod)
        policy = self._policy(fleet, overcommit_cpu=1.0, overcommit_mem=1.0)
        assert policy.find_preemption(Resources(0.5, 0.5),
                                      Tier.PROD.rank) is None

    def test_preemption_skips_too_small_machines(self):
        fleet = FleetState([Machine(0, Resources(0.3, 0.3))])
        victim = _collection(Tier.FREE, 1, n=1, cpu=0.2, mem=0.2).instances[0]
        fleet.place(0, victim)
        policy = self._policy(fleet, overcommit_cpu=1.0, overcommit_mem=1.0)
        assert policy.find_preemption(Resources(0.5, 0.5),
                                      Tier.PROD.rank) is None

    def test_empty_fleet(self):
        policy = self._policy(FleetState([]))
        assert policy.find_machine(Resources(0.1, 0.1)) is None
        assert policy.find_preemption(Resources(0.1, 0.1), 3) is None


class TestPendingQueue:
    def test_priority_order_then_fifo(self):
        q = PendingQueue()
        beb = _collection(Tier.BEB, 1, n=2).instances
        prod = _collection(Tier.PROD, 2, n=1).instances
        q.push(beb[0])
        q.push(prod[0])
        q.push(beb[1])
        batch = q.pop_batch(10)
        assert batch[0].tier is Tier.PROD
        assert batch[1] is beb[0] and batch[2] is beb[1]

    def test_pop_batch_limit(self):
        q = PendingQueue()
        for inst in _collection(Tier.BEB, 1, n=5).instances:
            q.push(inst)
        assert len(q.pop_batch(2)) == 2
        assert len(q) == 3

    def test_remove_dead(self):
        q = PendingQueue()
        c = _collection(Tier.BEB, 1, n=2)
        for inst in c.instances:
            q.push(inst)
        c.end_reason = EndReason.KILL
        q.remove_dead()
        assert len(q) == 0

    def test_strict_tier_order_all_tiers(self):
        # Dispatch visits rank buckets strictly highest-rank-first, no
        # matter the arrival order of the tiers.
        q = PendingQueue()
        arrival = [Tier.BEB, Tier.MONITORING, Tier.FREE, Tier.PROD, Tier.MID]
        for cid, tier in enumerate(arrival, start=1):
            q.push(_collection(tier, cid, n=1).instances[0])
        ranks = [inst.tier.rank for inst in q.pop_batch(10)]
        assert ranks == sorted(ranks, reverse=True)

    def test_fifo_within_tier_across_collections(self):
        # Within one rank bucket, dispatch order is exactly arrival
        # order — even when pushes from different collections interleave.
        q = PendingQueue()
        a = _collection(Tier.BEB, 1, n=3).instances
        b = _collection(Tier.BEB, 2, n=3).instances
        pushed = [a[0], b[0], a[1], b[1], a[2], b[2]]
        for inst in pushed:
            q.push(inst)
        assert q.pop_batch(10) == pushed

    def test_pop_batch_spans_rank_boundary(self):
        # A limit cutting across buckets takes the whole higher bucket
        # first; the remainder keeps FIFO order for the next round.
        q = PendingQueue()
        prod = _collection(Tier.PROD, 1, n=2).instances
        beb = _collection(Tier.BEB, 2, n=3).instances
        for inst in beb + prod:
            q.push(inst)
        assert q.pop_batch(3) == [prod[0], prod[1], beb[0]]
        assert q.pop_batch(10) == [beb[1], beb[2]]
        assert len(q) == 0

    def test_remove_dead_keeps_live_fifo_order(self):
        q = PendingQueue()
        dead = _collection(Tier.BEB, 1, n=2)
        live = _collection(Tier.BEB, 2, n=2)
        q.push(dead.instances[0])
        q.push(live.instances[0])
        q.push(dead.instances[1])
        q.push(live.instances[1])
        dead.end_reason = EndReason.KILL
        q.remove_dead()
        assert len(q) == 2
        assert q.pop_batch(10) == list(live.instances)

    def test_dispatch_order_matches_sort_reference(self):
        # Randomized pushes: pop order must equal the old implementation's
        # sort key (-tier.rank, arrival sequence).
        rng = np.random.default_rng(8)
        tiers = [Tier.FREE, Tier.BEB, Tier.MID, Tier.PROD, Tier.MONITORING]
        q = PendingQueue()
        pushed = []
        for cid in range(40):
            tier = tiers[int(rng.integers(0, len(tiers)))]
            inst = _collection(tier, cid, n=1).instances[0]
            q.push(inst)
            pushed.append(inst)
        expected = [inst for _, inst in sorted(
            enumerate(pushed), key=lambda p: (-p[1].tier.rank, p[0]))]
        got = []
        while len(q):
            got.extend(q.pop_batch(7))
        assert got == expected

    def test_pop_batch_zero_and_empty(self):
        q = PendingQueue()
        assert q.pop_batch(0) == []
        assert q.pop_batch(5) == []
        q.push(_collection(Tier.BEB, 1, n=1).instances[0])
        assert q.pop_batch(0) == []
        assert len(q) == 1


class TestBatchQueue:
    def _queue(self, cpu_target=0.5, mem_target=0.5):
        return BatchQueue(BatchParams(beb_cpu_allocation_target=cpu_target,
                                      beb_mem_allocation_target=mem_target),
                          Resources(10.0, 10.0))

    def test_admits_within_budget(self):
        q = self._queue()
        c = _collection(Tier.BEB, 1, n=4, cpu=0.5, mem=0.5)  # 2.0 total
        q.enqueue(c)
        assert q.admit_ready() == [c]
        assert q.beb_allocated.cpu == pytest.approx(2.0)

    def test_holds_when_budget_full(self):
        q = self._queue()
        first = _collection(Tier.BEB, 1, n=8, cpu=0.6, mem=0.6)  # 4.8 of 5.0
        second = _collection(Tier.BEB, 2, n=2, cpu=0.5, mem=0.5)
        q.enqueue(first)
        q.enqueue(second)
        assert q.admit_ready() == [first]
        assert len(q) == 1

    def test_release_frees_budget(self):
        q = self._queue()
        first = _collection(Tier.BEB, 1, n=8, cpu=0.6, mem=0.6)
        second = _collection(Tier.BEB, 2, n=2, cpu=0.5, mem=0.5)
        q.enqueue(first)
        q.enqueue(second)
        q.admit_ready()
        q.release(first)
        assert q.admit_ready() == [second]

    def test_oversized_head_admitted_when_empty(self):
        q = self._queue()
        whale = _collection(Tier.BEB, 1, n=20, cpu=0.9, mem=0.9)  # 18 > budget 5
        q.enqueue(whale)
        assert q.admit_ready() == [whale]

    def test_dead_collections_skipped(self):
        q = self._queue()
        c = _collection(Tier.BEB, 1, n=1)
        c.end_reason = EndReason.KILL
        q.enqueue(c)
        assert q.admit_ready() == []
        assert len(q) == 0


class TestDependencies:
    def test_cascade_returns_live_children(self):
        deps = DependencyManager()
        parent = _collection(cid=1)
        child = _collection(cid=2)
        child.parent_id = 1
        deps.register(child)
        assert deps.on_termination(parent) == [child]

    def test_dead_children_excluded(self):
        deps = DependencyManager()
        parent = _collection(cid=1)
        child = _collection(cid=2)
        child.parent_id = 1
        child.end_reason = EndReason.FINISH
        deps.register(child)
        assert deps.on_termination(parent) == []

    def test_no_parent_no_registration(self):
        deps = DependencyManager()
        orphan = _collection(cid=3)
        deps.register(orphan)
        assert deps._children == {}

    def test_grandchildren_via_repeated_calls(self):
        deps = DependencyManager()
        a, b, c = _collection(cid=1), _collection(cid=2), _collection(cid=3)
        b.parent_id, c.parent_id = 1, 2
        deps.register(b)
        deps.register(c)
        first = deps.on_termination(a)
        assert first == [b]
        assert deps.on_termination(b) == [c]

    def test_on_termination_pops(self):
        deps = DependencyManager()
        parent, child = _collection(cid=1), _collection(cid=2)
        child.parent_id = 1
        deps.register(child)
        deps.on_termination(parent)
        assert deps.on_termination(parent) == []


class TestAutopilot:
    def test_none_mode_keeps_limit(self):
        usage = np.asarray([0.1, 0.2, 0.1])
        limits = limit_trajectory(AutopilotMode.NONE, 1.0, usage)
        assert limits.tolist() == [1.0, 1.0, 1.0]

    def test_fully_shrinks_towards_peak(self):
        usage = np.full(50, 0.1)
        limits = limit_trajectory(AutopilotMode.FULLY, 1.0, usage)
        assert limits[0] == 1.0
        assert limits[-1] == pytest.approx(0.11, abs=0.01)  # peak * margin

    def test_constrained_floor_binds(self):
        usage = np.full(50, 0.1)
        params = AutopilotParams(min_limit_fraction_constrained=0.55)
        limits = limit_trajectory(AutopilotMode.CONSTRAINED, 1.0, usage, params)
        assert limits[-1] == pytest.approx(0.55)

    def test_limits_never_below_current_usage(self):
        rng = np.random.default_rng(0)
        usage = rng.uniform(0.05, 0.6, 200)
        limits = limit_trajectory(AutopilotMode.FULLY, 1.0, usage)
        assert (limits >= usage - 1e-12).all()

    def test_limits_never_exceed_initial(self):
        usage = np.full(20, 0.2)
        limits = limit_trajectory(AutopilotMode.FULLY, 1.0, usage)
        assert (limits <= 1.0).all()

    def test_causality(self):
        # Changing a later sample must not change earlier limits.
        base = np.full(30, 0.1)
        bumped = base.copy()
        bumped[20] = 0.9
        a = limit_trajectory(AutopilotMode.FULLY, 1.0, base)
        b = limit_trajectory(AutopilotMode.FULLY, 1.0, bumped)
        assert a[:20].tolist() == b[:20].tolist()

    def test_peak_slack_formula(self):
        slack = peak_slack(np.asarray([1.0, 0.5]), np.asarray([0.4, 0.5]))
        assert slack.tolist() == [0.6, 0.0]

    def test_peak_slack_zero_limit(self):
        assert peak_slack(np.asarray([0.0]), np.asarray([0.0])).tolist() == [0.0]

    def test_peak_slack_shape_mismatch(self):
        with pytest.raises(ValueError):
            peak_slack(np.zeros(2), np.zeros(3))

    def test_empty_usage(self):
        assert len(limit_trajectory(AutopilotMode.FULLY, 1.0, np.empty(0))) == 0


class TestUsageModel:
    def _model(self, period=300.0):
        return UsageModel(UsageModelParams(), sample_period=period)

    def test_window_grid_alignment(self):
        model = self._model()
        starts = window_starts(model, 450.0, 1000.0)
        assert starts.tolist() == [300.0, 600.0, 900.0]

    def test_empty_interval(self):
        model = self._model()
        assert len(window_starts(model, 100.0, 100.0)) == 0

    def test_sample_interval_columns_and_lengths(self):
        model = self._model()
        rng = np.random.default_rng(0)
        out = sample_interval(model, rng, 0.0, 1500.0, 0.4, 0.5, 0.5, 0.6)
        assert len(out["window_start"]) == 5
        assert set(out) == {"window_start", "duration", "avg_cpu", "max_cpu",
                            "avg_mem", "max_mem"}

    def test_partial_windows_have_short_durations(self):
        model = self._model()
        rng = np.random.default_rng(0)
        out = sample_interval(model, rng, 100.0, 500.0, 0.4, 0.5, 0.5, 0.6)
        assert out["duration"][0] == pytest.approx(200.0)
        assert out["duration"][-1] == pytest.approx(200.0)

    def test_memory_hard_capped_at_limit(self):
        model = self._model()
        rng = np.random.default_rng(1)
        out = sample_interval(model, rng, 0.0, 86400.0, 0.4, 0.5, 0.9, 0.95)
        assert (out["avg_mem"] <= 0.5 + 1e-12).all()
        assert (out["max_mem"] <= 0.5 + 1e-12).all()

    def test_cpu_can_exceed_limit_but_bounded(self):
        model = self._model()
        rng = np.random.default_rng(2)
        out = sample_interval(model, rng, 0.0, 86400.0, 0.4, 0.5, 0.95, 0.5)
        assert (out["max_cpu"] <= 0.4 * 1.15 + 1e-12).all()

    def test_max_at_least_avg(self):
        model = self._model()
        rng = np.random.default_rng(3)
        out = sample_interval(model, rng, 0.0, 86400.0, 0.4, 0.5, 0.5, 0.5)
        assert (out["max_cpu"] >= out["avg_cpu"] - 1e-12).all()
        assert (out["max_mem"] >= out["avg_mem"] - 1e-12).all()

    def test_mean_usage_near_fraction(self):
        model = UsageModel(UsageModelParams(diurnal_amplitude=0.0), 300.0)
        rng = np.random.default_rng(4)
        out = sample_interval(model, rng, 0.0, 30 * 86400.0, 1.0, 1.0, 0.5, 0.5)
        assert float(out["avg_cpu"].mean()) == pytest.approx(0.5, rel=0.05)

    def test_bad_period(self):
        with pytest.raises(ValueError):
            UsageModel(sample_period=0.0)

    def test_diurnal_rate_factor_peaks_afternoon(self):
        afternoon = diurnal_factor(15 * 3600.0, 0.0, 0.25)
        night = diurnal_factor(3 * 3600.0, 0.0, 0.25)
        assert afternoon > night

    def test_diurnal_respects_utc_offset(self):
        # 7am UTC is 3pm in Singapore (UTC+8).
        assert (diurnal_factor(7 * 3600.0, 8.0, 0.25)
                == pytest.approx(diurnal_factor(15 * 3600.0, 0.0, 0.25)))
