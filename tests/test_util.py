"""Unit tests for the util package: RNG streams, time helpers, units."""

import pytest

from repro.util import (
    DAY_SECONDS,
    HOUR_SECONDS,
    RngFactory,
    clamp,
    hour_index,
    hours,
    normalize,
    safe_div,
    sample_index,
)
from repro.util.errors import ReproError, SchemaError, SimulationError, ValidationError
from repro.util.timeutil import days, local_hour, overlap


class TestRngFactory:
    def test_streams_cached_by_name(self):
        f = RngFactory(1)
        assert f.stream("a") is f.stream("a")

    def test_streams_independent_by_name(self):
        f = RngFactory(1)
        a = f.stream("a").random(5)
        b = f.stream("b").random(5)
        assert a.tolist() != b.tolist()

    def test_same_seed_same_streams(self):
        a = RngFactory(7).stream("x").random(5)
        b = RngFactory(7).stream("x").random(5)
        assert a.tolist() == b.tolist()

    def test_order_independent(self):
        f1 = RngFactory(3)
        f1.stream("first")
        v1 = f1.stream("second").random(3)
        f2 = RngFactory(3)
        v2 = f2.stream("second").random(3)
        assert v1.tolist() == v2.tolist()

    def test_different_seeds_differ(self):
        a = RngFactory(1).stream("x").random(3)
        b = RngFactory(2).stream("x").random(3)
        assert a.tolist() != b.tolist()

    def test_child_factories_deterministic_and_distinct(self):
        parent = RngFactory(5)
        c1 = parent.child("cell-a").stream("s").random(3)
        c2 = parent.child("cell-b").stream("s").random(3)
        c1_again = RngFactory(5).child("cell-a").stream("s").random(3)
        assert c1.tolist() != c2.tolist()
        assert c1.tolist() == c1_again.tolist()

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngFactory("seed")

    def test_repr(self):
        f = RngFactory(0)
        f.stream("abc")
        assert "abc" in repr(f)


class TestTimeutil:
    def test_constants(self):
        assert HOUR_SECONDS == 3600
        assert DAY_SECONDS == 24 * HOUR_SECONDS

    def test_hours_days(self):
        assert hours(2) == 7200
        assert days(1) == DAY_SECONDS

    def test_hour_index(self):
        assert hour_index(0.0) == 0
        assert hour_index(3599.9) == 0
        assert hour_index(3600.0) == 1

    def test_sample_index(self):
        assert sample_index(299.0) == 0
        assert sample_index(300.0) == 1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            hour_index(-1.0)
        with pytest.raises(ValueError):
            sample_index(-0.1)

    def test_overlap(self):
        assert overlap(0, 10, 5, 20) == 5
        assert overlap(0, 10, 10, 20) == 0
        assert overlap(5, 6, 0, 100) == 1

    def test_local_hour_offsets(self):
        # Midnight UTC is 8am in Singapore (UTC+8).
        assert local_hour(0.0, 8.0) == pytest.approx(8.0)
        # And 5pm the previous day at UTC-7.
        assert local_hour(0.0, -7.0) == pytest.approx(17.0)

    def test_local_hour_wraps(self):
        assert 0 <= local_hour(123456.0, 8.0) < 24


class TestUnits:
    def test_clamp(self):
        assert clamp(1.5) == 1.0
        assert clamp(-0.5) == 0.0
        assert clamp(0.25) == 0.25
        assert clamp(5, 0, 10) == 5

    def test_clamp_empty_range(self):
        with pytest.raises(ValueError):
            clamp(1.0, 2.0, 1.0)

    def test_safe_div(self):
        assert safe_div(4, 2) == 2
        assert safe_div(4, 0) == 0.0
        assert safe_div(4, 0, default=-1.0) == -1.0

    def test_normalize_peak_is_one(self):
        out = normalize([1.0, 2.0, 4.0])
        assert out.tolist() == [0.25, 0.5, 1.0]

    def test_normalize_zero_and_empty(self):
        assert normalize([0.0, 0.0]).tolist() == [0.0, 0.0]
        assert len(normalize([])) == 0


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(SchemaError, ReproError)
        assert issubclass(SimulationError, ReproError)
        assert issubclass(ValidationError, ReproError)

    def test_validation_error_message(self):
        err = ValidationError("inv-name", "details here")
        assert err.invariant == "inv-name"
        assert "details here" in str(err)
