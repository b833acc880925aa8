"""Tests for size-stratified trace sampling."""

import pytest

from repro.analysis.common import job_usage_integrals
from repro.trace import validate_trace
from repro.trace.sample import sample_trace


class TestSampling:
    def test_sample_is_smaller(self, trace_2019):
        sampled, info = sample_trace(trace_2019, mouse_fraction=0.1)
        assert info.kept_collections < info.total_collections
        assert len(sampled.collection_events) < len(trace_2019.collection_events)

    def test_load_mostly_preserved(self, trace_2019):
        # Keep the top 5% by size (at unit-test scale the top 1% is only
        # a handful of jobs); the hogs carry the load.
        sampled, _ = sample_trace(trace_2019, mouse_fraction=0.1,
                                  hog_quantile=0.95)
        original = float(job_usage_integrals(trace_2019)
                         .column("ncu_hours").sum())
        kept = float(job_usage_integrals(sampled).column("ncu_hours").sum())
        assert kept > 0.7 * original

    def test_count_reweighting_recovers_population(self, trace_2019):
        sampled, info = sample_trace(trace_2019, mouse_fraction=0.25, seed=3)
        n_kept_mice = info.kept_collections - info.hogs_kept
        # Alloc sets are all kept; remove them from the mouse estimate.
        ce = sampled.collection_events
        n_alloc = len(ce.filter(
            (ce.column("type") == "SUBMIT")
            & (ce.column("collection_type") == "alloc_set")
        ).distinct("collection_id"))
        estimated = (n_kept_mice - n_alloc) / info.mouse_sampling_rate \
            + info.hogs_kept + n_alloc
        assert estimated == pytest.approx(info.total_collections, rel=0.2)

    def test_sample_still_validates(self, trace_2019):
        sampled, _ = sample_trace(trace_2019, mouse_fraction=0.2)
        # Note: per-machine usage can only shrink, timestamps unchanged.
        assert validate_trace(sampled) == []

    def test_alloc_sets_always_kept(self, trace_2019):
        sampled, _ = sample_trace(trace_2019, mouse_fraction=0.01, seed=1)
        def alloc_count(trace):
            ce = trace.collection_events
            return len(ce.filter(
                (ce.column("type") == "SUBMIT")
                & (ce.column("collection_type") == "alloc_set")
            ).distinct("collection_id"))
        assert alloc_count(sampled) == alloc_count(trace_2019)

    def test_full_fraction_keeps_everything(self, trace_2019):
        sampled, info = sample_trace(trace_2019, mouse_fraction=1.0)
        assert info.kept_collections == info.total_collections

    def test_deterministic(self, trace_2019):
        a, _ = sample_trace(trace_2019, mouse_fraction=0.3, seed=5)
        b, _ = sample_trace(trace_2019, mouse_fraction=0.3, seed=5)
        assert len(a.collection_events) == len(b.collection_events)

    def test_bad_arguments(self, trace_2019):
        with pytest.raises(ValueError):
            sample_trace(trace_2019, mouse_fraction=0.0)
        with pytest.raises(ValueError):
            sample_trace(trace_2019, hog_quantile=0.3)
