"""Tests for the batch-queue analysis."""

import numpy as np

from repro.analysis import batch_queue


class TestQueueWaits:
    def test_waits_nonnegative(self, trace_2019):
        waits = batch_queue.queue_waits(trace_2019)
        assert waits.size > 0  # the 2019 workload batch-queues beb jobs
        assert (waits >= 0).all()

    def test_2011_has_no_queue(self, trace_2011):
        assert batch_queue.queue_waits(trace_2011).size == 0


class TestDepthSeries:
    def test_depth_shape_and_nonnegative(self, trace_2019):
        series = batch_queue.queue_depth_series(trace_2019)
        assert len(series) == int(np.ceil(trace_2019.horizon / 3600))
        assert (series >= 0).all()

    def test_empty_for_2011(self, trace_2011):
        assert batch_queue.queue_depth_series(trace_2011).max() == 0


class TestReport:
    def test_report_fields(self, traces_2019):
        rep = batch_queue.batch_queue_report(traces_2019)
        d = rep.as_dict()
        assert 0 < rep.queued_fraction_of_beb_jobs <= 1.0
        assert rep.median_wait_seconds >= 0
        assert rep.p90_wait_seconds >= rep.median_wait_seconds
        assert len(d) == 4

    def test_report_handles_2011(self, traces_2011):
        rep = batch_queue.batch_queue_report(traces_2011)
        assert rep.queued_fraction_of_beb_jobs == 0.0
