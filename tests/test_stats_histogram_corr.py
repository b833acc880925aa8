"""Unit tests for histograms and correlation helpers."""

import numpy as np
import pytest

from repro.stats import (
    bucketed_medians,
    histogram,
    pearson,
)


class TestHistogram:
    def test_counts(self):
        counts = histogram([0.1, 0.5, 0.9, 0.95], edges=[0.0, 0.5, 1.0])
        assert counts.tolist() == [1, 3]

    def test_out_of_range_clipped(self):
        counts = histogram([-5.0, 99.0], edges=[0.0, 1.0, 2.0])
        assert counts.sum() == 2

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            histogram([1.0], edges=[1.0])
        with pytest.raises(ValueError):
            histogram([1.0], edges=[1.0, 0.5])

    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        samples = rng.random(1000)
        assert histogram(samples, np.linspace(0, 1, 22)).sum() == 1000


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(7)
        assert abs(pearson(rng.random(5000), rng.random(5000))) < 0.05

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 1, 1], [1, 2, 3])


class TestBucketedMedians:
    def test_medians_per_bucket(self):
        x = [0.1, 0.2, 1.5, 1.9]
        y = [1.0, 3.0, 10.0, 20.0]
        centers, medians = bucketed_medians(x, y, bucket_width=1.0)
        assert centers.tolist() == [0.5, 1.5]
        assert medians.tolist() == [2.0, 15.0]

    def test_min_bucket_count_filters(self):
        x = [0.1, 1.5]
        y = [1.0, 2.0]
        centers, _ = bucketed_medians(x, y, min_bucket_count=2)
        assert len(centers) == 0

    def test_bad_width(self):
        with pytest.raises(ValueError):
            bucketed_medians([1.0], [1.0], bucket_width=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bucketed_medians([], [])

    def test_linear_relation_recovered(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 50, 20_000)
        y = 0.6 * x * rng.lognormal(0, 0.2, 20_000)
        centers, medians = bucketed_medians(x, y, bucket_width=1.0, min_bucket_count=5)
        from repro.stats import pearson as p
        assert p(centers, medians) > 0.98
