"""End-to-end integration tests: scenario -> sim -> trace -> analyses.

These exercise the whole stack on the shared session fixtures and check
cross-module accounting identities plus the paper's *qualitative*
findings at small scale.
"""

import numpy as np
import pytest

from repro.analysis import allocsets, autoscaling, sched_delay, submission, terminations
from repro.analysis.common import job_usage_integrals
from repro.trace import encode_cell, validate_trace
from repro.workload import small_test_scenario


class TestEventAccounting:
    def test_every_task_has_submit_event(self, result_2019, trace_2019):
        n_submits = int((
            (trace_2019.instance_events.column("type").values == "SUBMIT")
            & trace_2019.instance_events.column("is_new").values
        ).sum())
        assert n_submits == result_2019.counters.tasks_created

    def test_schedule_counter_matches_events(self, result_2019, trace_2019):
        n_schedules = int((
            trace_2019.instance_events.column("type").values == "SCHEDULE"
        ).sum())
        assert n_schedules == result_2019.counters.schedule_events

    def test_collection_terminal_counts(self, result_2019, trace_2019):
        done = sum(1 for c in result_2019.collections if c.is_done)
        types = trace_2019.collection_events.column("type").values
        terminal = int(np.isin(types, ("FINISH", "KILL", "FAIL", "EVICT")).sum())
        assert terminal == done

    def test_usage_only_for_scheduled_instances(self, result_2019, trace_2019):
        scheduled = set()
        ie = trace_2019.instance_events
        ids = ie.column("collection_id").values
        idx = ie.column("instance_index").values
        types = ie.column("type").values
        for i in range(len(ie)):
            if types[i] == "SCHEDULE":
                scheduled.add((int(ids[i]), int(idx[i])))
        iu = trace_2019.instance_usage
        pairs = set(zip(iu.column("collection_id").values.tolist(),
                        iu.column("instance_index").values.tolist()))
        assert pairs <= scheduled

    def test_run_intervals_within_collection_lifetime(self, result_2019):
        # No run of a collection outlives it: neither its instances'
        # events nor their usage windows end after the collection does.
        end_time = {c.collection_id: c.end_time for c in result_2019.collections
                    if c.end_time is not None}
        assert end_time
        for e in result_2019.events.instance_events:
            if e.collection_id in end_time:
                assert e.time <= end_time[e.collection_id] + 1e-6
        u = result_2019.usage
        run_end = u["window_start"] + u["duration"]
        for cid, end in end_time.items():
            assert (run_end[u["collection_id"] == cid] <= end + 1e-6).all()


class TestInvariantPipeline:
    def test_both_eras_validate_clean(self, trace_2019, trace_2011):
        assert validate_trace(trace_2019) == []
        assert validate_trace(trace_2011) == []

    def test_another_seed_validates(self):
        result = small_test_scenario(seed=23).run()
        assert validate_trace(encode_cell(result)) == []


class TestQualitativeFindings:
    """The paper's headline observations, at reduced scale."""

    def test_heavy_tail_top_share(self, traces_2019):
        table = job_usage_integrals(traces_2019[0])
        values = table.column("ncu_hours").values
        values = values[values > 0]
        from repro.stats import top_share
        assert top_share(values, 0.01) > 0.3  # far above uniform's 1%

    def test_parent_jobs_killed_more(self, traces_2019):
        rep = terminations.termination_report(traces_2019)
        assert rep.kill_rate_with_parent > rep.kill_rate_without_parent + 0.15

    def test_autopilot_reduces_slack(self, traces_2019):
        s = autoscaling.summarize_slack(traces_2019)
        assert s.median_slack["fully"] < s.median_slack["none"]

    def test_alloc_jobs_use_memory_harder(self, traces_2019):
        rep = allocsets.alloc_set_report(traces_2019)
        assert rep.mem_utilization_in_alloc > rep.mem_utilization_outside + 0.05

    def test_evictions_concentrated_outside_prod(self, traces_2019):
        rep = terminations.termination_report(traces_2019)
        if rep.collections_with_evictions_fraction > 0:
            assert rep.prod_collections_evicted_fraction <= \
                rep.collections_with_evictions_fraction + 0.05

    def test_most_jobs_schedule_quickly(self, traces_2019):
        delays = sched_delay.scheduling_delays(traces_2019[0])
        median = float(np.median(delays.column("delay").values))
        assert median < 30.0

    def test_submission_rates_positive(self, traces_2019, traces_2011):
        g = submission.growth_factors(traces_2011[0], traces_2019)
        assert g["resubmit_ratio_2019"] > g["resubmit_ratio_2011"]


class TestScenarioPlumbing:
    def test_capacity_property(self):
        sc = small_test_scenario(seed=5)
        assert sc.capacity.cpu == pytest.approx(
            sum(m.capacity.cpu for m in sc.machines))

    def test_rerun_is_deterministic(self):
        a = small_test_scenario(seed=9).run()
        b = small_test_scenario(seed=9).run()
        assert len(a.events.instance_events) == len(b.events.instance_events)
        np.testing.assert_array_equal(a.usage["avg_cpu"], b.usage["avg_cpu"])

    def test_horizon_respected(self, trace_2019):
        for name in ("collection_events", "instance_events"):
            times = trace_2019.tables[name].column("time").values
            if len(times):
                assert times.max() <= trace_2019.horizon
