"""Tests for the analysis modules against simulated traces.

These check structural correctness (accounting identities, orderings,
ranges) rather than paper point values — EXPERIMENTS.md and the
benchmark harness own the paper-vs-measured comparison at full scale.
"""

import numpy as np
import pytest

from repro.analysis import (
    allocation,
    allocsets,
    autoscaling,
    consumption,
    correlation,
    machine_util,
    machines,
    report,
    sched_delay,
    submission,
    summary,
    tasks_per_job,
    terminations,
    transitions,
    utilization,
)
from repro.analysis.common import (
    TIER_ORDER,
    alloc_set_ids,
    hourly_tier_series,
    job_usage_integrals,
)
from repro.util.timeutil import HOUR_SECONDS


class TestCommon:
    def test_alloc_set_ids(self, trace_2019):
        ids = alloc_set_ids(trace_2019)
        assert ids.size  # the 2019 workload creates alloc sets
        assert (np.diff(ids) > 0).all()  # sorted and unique
        kinds = dict(zip(
            trace_2019.collection_events.column("collection_id").values.tolist(),
            trace_2019.collection_events.column("collection_type").values.tolist(),
        ))
        assert all(kinds[i] == "alloc_set" for i in ids)

    def test_job_integrals_conserve_total_usage(self, trace_2019):
        iu = trace_2019.instance_usage
        total = float((iu.column("avg_cpu").values
                       * iu.column("duration").values).sum()) / HOUR_SECONDS
        table = job_usage_integrals(trace_2019, include_alloc_sets=True)
        assert float(table.column("ncu_hours").sum()) == pytest.approx(total, rel=1e-9)

    def test_job_integrals_exclude_alloc_sets_by_default(self, trace_2019):
        with_allocs = job_usage_integrals(trace_2019, include_alloc_sets=True)
        without = job_usage_integrals(trace_2019)
        assert len(without) < len(with_allocs)

    def test_hourly_series_shape_and_range(self, trace_2019):
        series = hourly_tier_series(trace_2019, "cpu", "usage")
        n_hours = int(trace_2019.horizon_hours)
        assert set(series) == set(TIER_ORDER)
        for values in series.values():
            assert len(values) == n_hours
            assert (values >= 0).all()

    def test_usage_below_allocation(self, trace_2019):
        for resource in ("cpu", "mem"):
            usage = sum(hourly_tier_series(trace_2019, resource, "usage").values())
            alloc = sum(hourly_tier_series(trace_2019, resource, "allocation").values())
            # Hour-by-hour, usage should not exceed allocated limits by
            # more than CPU work-conserving slack.
            assert (usage <= alloc * 1.2 + 0.05).all()

    def test_bad_arguments(self, trace_2019):
        with pytest.raises(ValueError):
            hourly_tier_series(trace_2019, "disk", "usage")
        with pytest.raises(ValueError):
            hourly_tier_series(trace_2019, "cpu", "wishes")


class TestUtilization:
    def test_total_fraction_sane(self, trace_2019):
        total = utilization.total_usage_fraction(trace_2019, "cpu")
        assert 0.1 < total < 1.0

    def test_mean_across_cells_matches_single(self, trace_2019):
        single = utilization.usage_timeseries(trace_2019, "cpu")
        mean = utilization.mean_usage_timeseries([trace_2019], "cpu")
        for tier in single:
            np.testing.assert_allclose(single[tier], mean[tier])

    def test_by_cell_keys(self, trace_2019):
        out = utilization.usage_by_cell([trace_2019], "cpu")
        assert list(out) == [trace_2019.cell]

    def test_stacked_rows(self, trace_2019):
        rows = utilization.stacked_rows(utilization.usage_timeseries(trace_2019))
        assert rows[0]["total"] == pytest.approx(
            sum(rows[0][t] for t in TIER_ORDER))

    def test_empty_trace_list_rejected(self):
        with pytest.raises(ValueError):
            utilization.mean_usage_timeseries([], "cpu")


class TestAllocation:
    def test_allocation_exceeds_usage(self, trace_2019):
        for resource in ("cpu", "mem"):
            alloc = allocation.total_allocation_fraction(trace_2019, resource)
            used = utilization.total_usage_fraction(trace_2019, resource)
            assert alloc > used

    def test_overcommit_ratio_keys(self, trace_2019):
        ratios = allocation.overcommit_ratio(trace_2019)
        assert set(ratios) == {"cpu", "mem"}

    def test_2011_cpu_overcommitted_more_than_mem(self, trace_2011):
        ratios = allocation.overcommit_ratio(trace_2011)
        assert ratios["cpu"] > ratios["mem"]


class TestMachineUtil:
    def test_snapshot_window_aligned(self, trace_2019):
        w = machine_util.snapshot_window_start(trace_2019)
        assert w % trace_2019.sample_period == 0
        assert 0 <= w < trace_2019.horizon

    def test_ccdf_covers_all_machines(self, trace_2019):
        ccdf = machine_util.machine_utilization_ccdf(trace_2019, "cpu")
        assert ccdf.n_samples == len(trace_2019.machine_attributes)

    def test_utilization_in_unit_range(self, trace_2019):
        w = machine_util.snapshot_window_start(trace_2019)
        values = machine_util.machine_utilization_at(trace_2019, w, "cpu")
        assert all(0.0 <= v <= 1.2 for v in values.values())

    def test_summary_fields(self, trace_2019):
        s = machine_util.summarize_machine_utilization(trace_2019, "mem")
        assert s.cell == trace_2019.cell
        assert 0 <= s.median <= 1.2
        assert 0 <= s.fraction_above_80pct <= 1


class TestTransitions:
    def test_pending_to_running_dominates(self, trace_2019):
        counts = transitions.instance_transitions(trace_2019)
        assert counts[("PENDING", "RUNNING")] > 0
        assert counts[("NONE", "PENDING")] > 0

    def test_batch_jobs_visit_queued(self, trace_2019):
        counts = transitions.collection_transitions(trace_2019)
        assert counts[("PENDING", "QUEUED")] > 0
        assert counts[("QUEUED", "PENDING")] > 0

    def test_table_sorted_descending(self, trace_2019):
        rows = transitions.transition_table(trace_2019)
        totals = [r[2] + r[3] for r in rows]
        assert totals == sorted(totals, reverse=True)
        assert all(t > 0 for t in totals)


class TestSubmission:
    def test_counts_exclude_alloc_sets(self, trace_2019):
        ce = trace_2019.collection_events
        n_job_submits = int(((ce.column("type").values == "SUBMIT")
                             & (ce.column("collection_type").values == "job")).sum())
        counts = submission.job_submission_counts(trace_2019)
        assert counts.sum() <= n_job_submits  # warm-up hour dropped

    def test_all_at_least_new(self, trace_2019):
        new = submission.task_submission_counts(trace_2019, "new")
        all_tasks = submission.task_submission_counts(trace_2019, "all")
        assert (all_tasks >= new).all()

    def test_summary_ratio_nonnegative(self, trace_2019):
        s = submission.summarize_submissions(trace_2019)
        assert s.resubmit_to_new_ratio >= 0

    def test_growth_factor_structure(self, trace_2011, trace_2019):
        growth = submission.growth_factors(trace_2011, [trace_2019])
        assert set(growth) == {
            "mean_job_rate_growth", "median_job_rate_growth",
            "median_all_task_rate_growth", "resubmit_ratio_2011",
            "resubmit_ratio_2019",
        }

    def test_bad_which(self, trace_2019):
        with pytest.raises(ValueError):
            submission.task_submission_counts(trace_2019, "some")


class TestSchedDelay:
    def test_delays_nonnegative(self, trace_2019):
        delays = sched_delay.scheduling_delays(trace_2019).column("delay").values
        assert len(delays) > 0
        assert (delays >= 0).all()

    def test_tier_ccdfs_present(self, trace_2019):
        ccdfs = sched_delay.delay_ccdf_by_tier([trace_2019])
        assert set(ccdfs) <= set(TIER_ORDER)
        assert "prod" in ccdfs

    def test_prod_not_slower_than_beb_median(self, trace_2019):
        ccdfs = sched_delay.delay_ccdf_by_tier([trace_2019])
        if "beb" in ccdfs and "prod" in ccdfs:
            prod = ccdfs["prod"].quantile_of_exceedance(0.5)
            beb = ccdfs["beb"].quantile_of_exceedance(0.5)
            assert prod <= beb + 5.0

    def test_median_positive(self, trace_2019):
        assert sched_delay.median_delay(trace_2019) >= 0


class TestTasksPerJob:
    def test_widths_at_least_one(self, trace_2019):
        for values in tasks_per_job.tasks_per_job(trace_2019).values():
            assert (values >= 1).all()

    def test_beb_wider_than_prod(self, trace_2019):
        pct = tasks_per_job.width_percentiles([trace_2019], (95,))
        if "beb" in pct and "prod" in pct:
            assert pct["beb"][95] >= pct["prod"][95]


class TestConsumption:
    def test_report_heavy_tailed(self, traces_2019):
        rep = consumption.consumption_report(traces_2019, "cpu")
        assert rep.summary.squared_cv > 3.0
        assert rep.summary.top_1pct_share > 0.2

    def test_mem_report(self, traces_2019):
        rep = consumption.consumption_report(traces_2019, "mem")
        assert rep.summary.n > 100

    def test_ccdf_spans_orders_of_magnitude(self, traces_2019):
        ccdf = consumption.usage_ccdf(traces_2019, "cpu")
        assert ccdf.xs.max() / ccdf.xs.min() > 1e4

    def test_table2_keys(self, traces_2011, traces_2019):
        out = consumption.table2(traces_2011, traces_2019)
        assert set(out) == {"2011 cpu", "2019 cpu", "2011 mem", "2019 mem"}

    def test_bad_resource(self, traces_2019):
        with pytest.raises(ValueError):
            consumption.consumption_report(traces_2019, "disk")


class TestCorrelation:
    def test_positive_correlation(self, traces_2019):
        rep = correlation.cpu_mem_correlation(traces_2019, bucket_width=0.5,
                                              min_bucket_count=2)
        assert rep.pearson_r > 0.5
        assert rep.n_jobs > 100


class TestAutoscaling:
    def test_modes_present(self, traces_2019):
        ccdfs = autoscaling.slack_ccdf_by_mode(traces_2019)
        assert set(ccdfs) == {"fully", "constrained", "none"}

    def test_fully_beats_manual(self, traces_2019):
        s = autoscaling.summarize_slack(traces_2019)
        assert s.median_slack["fully"] < s.median_slack["none"]
        assert s.fully_vs_manual_saving > 0

    def test_slack_fraction_range(self, trace_2019):
        for values in autoscaling.peak_slack_samples(trace_2019).values():
            if values.size:
                assert (values >= 0).all() and (values <= 1).all()


class TestAllocSetsAnalysis:
    def test_report_ranges(self, traces_2019):
        rep = allocsets.alloc_set_report(traces_2019)
        d = rep.as_dict()
        for key, value in d.items():
            assert 0 <= value <= 1, key
        assert rep.alloc_set_fraction_of_collections > 0
        assert rep.jobs_in_alloc_fraction > 0
        assert rep.in_alloc_prod_fraction > 0.5
        assert rep.mem_utilization_in_alloc > rep.mem_utilization_outside


class TestTerminations:
    def test_parent_kill_effect(self, traces_2019):
        rep = terminations.termination_report(traces_2019)
        assert rep.kill_rate_with_parent > rep.kill_rate_without_parent

    def test_eviction_stats_ranges(self, traces_2019):
        rep = terminations.termination_report(traces_2019)
        assert 0 <= rep.collections_with_evictions_fraction <= 1
        assert rep.prod_collections_evicted_fraction <= \
            rep.collections_with_evictions_fraction + 1.0

    def test_end_reasons_counted(self, traces_2019):
        rep = terminations.termination_report(traces_2019)
        assert sum(rep.end_reason_counts.values()) > 0


class TestSummaryAndMachines:
    def test_table1_columns(self, traces_2011, traces_2019):
        rows = summary.table1(traces_2011, traces_2019)
        assert rows[0]["era"] == "2011" and rows[1]["era"] == "2019"
        assert rows[1]["alloc_sets"] and not rows[0]["alloc_sets"]
        assert rows[1]["batch_queueing"] and not rows[0]["batch_queueing"]
        assert rows[1]["vertical_scaling"] and not rows[0]["vertical_scaling"]

    def test_mixed_eras_rejected(self, trace_2011, trace_2019):
        with pytest.raises(ValueError):
            summary.era_summary([trace_2011, trace_2019])

    def test_shapes_sorted_by_count(self, traces_2019):
        points = machines.machine_shapes(traces_2019)
        counts = [p.count for p in points]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == len(traces_2019[0].machine_attributes)

    def test_fleet_summary(self, traces_2019):
        out = machines.fleet_summary(traces_2019)
        assert out["machines"] == len(traces_2019[0].machine_attributes)
        assert out["hardware_platforms"] >= 1


class TestReport:
    def test_full_report_renders(self, traces_2011, traces_2019):
        text = report.full_report(traces_2011, traces_2019)
        for needle in ("Table 1", "Figure 2", "Figure 6", "Figure 10",
                       "Table 2", "Figure 14", "Section 5.1", "Section 5.2"):
            assert needle in text
        assert len(text) > 3000
