"""Tests for the diurnal-cycle analysis (section 4.1)."""

import numpy as np
import pytest

from repro.analysis import diurnal


class TestLocalHourProfile:
    def test_profile_shape(self, trace_2019):
        profile = diurnal.usage_by_local_hour(trace_2019, "cpu")
        assert profile.shape == (24,)
        assert (profile >= 0).all()

    def test_profile_tracks_total_usage(self, trace_2019):
        # The time-weighted mean of the profile equals overall utilization.
        from repro.analysis.utilization import total_usage_fraction
        profile = diurnal.usage_by_local_hour(trace_2019, "cpu")
        n_hours = int(trace_2019.horizon / 3600)
        bins = ((np.arange(n_hours) + trace_2019.utc_offset_hours) % 24).astype(int)
        weights = np.bincount(bins, minlength=24)
        mean = float((profile * weights).sum() / weights.sum())
        assert mean == pytest.approx(total_usage_fraction(trace_2019, "cpu"),
                                     rel=0.05)

    def test_bad_resource(self, trace_2019):
        with pytest.raises(ValueError):
            diurnal.usage_by_local_hour(trace_2019, "disk")

    def test_amplitude_nonnegative(self, trace_2019):
        assert diurnal.diurnal_amplitude(trace_2019) >= 0


class TestUtcSnapshot:
    def test_snapshot_covers_cells(self, traces_2019):
        snap = diurnal.load_at_utc_hour(traces_2019, utc_hour=7.0)
        assert set(snap.load_by_cell) == {t.cell for t in traces_2019}

    def test_local_hours_respect_offsets(self, trace_2019):
        snap = diurnal.load_at_utc_hour([trace_2019], utc_hour=7.0)
        expected = (7.0 + trace_2019.utc_offset_hours) % 24
        assert snap.local_hour_by_cell[trace_2019.cell] == pytest.approx(expected)
