"""Unit tests for empirical CCDFs."""

import numpy as np
import pytest

from repro.stats import empirical_ccdf


class TestEmpiricalCcdf:
    def test_basic_points(self):
        c = empirical_ccdf([1.0, 2.0, 2.0, 5.0])
        assert c.at(0.5) == 1.0
        assert c.at(1.0) == 0.75
        assert c.at(2.0) == 0.25
        assert c.at(5.0) == 0.0

    def test_between_sample_values(self):
        c = empirical_ccdf([1.0, 3.0])
        assert c.at(2.0) == 0.5

    def test_below_minimum_is_one(self):
        c = empirical_ccdf([5.0, 6.0])
        assert c.at(-10.0) == 1.0

    def test_above_maximum_is_zero(self):
        c = empirical_ccdf([5.0])
        assert c.at(100.0) == 0.0

    def test_n_samples_recorded(self):
        assert empirical_ccdf([1, 2, 3]).n_samples == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_ccdf([])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            empirical_ccdf([1.0, float("nan")])

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(2.0, 500)
        c = empirical_ccdf(samples)
        for x in (0.1, 1.0, 3.0, 10.0):
            assert c.at(x) == pytest.approx(float((samples > x).mean()))

    def test_probs_decrease(self):
        c = empirical_ccdf(np.random.default_rng(0).random(100))
        assert (np.diff(c.probs) <= 0).all()

    def test_as_series_copies(self):
        c = empirical_ccdf([1.0, 2.0])
        xs, ps = c.as_series()
        xs[0] = 99.0
        assert c.xs[0] == 1.0

    def test_quantile_of_exceedance(self):
        c = empirical_ccdf([1.0, 2.0, 3.0, 4.0])
        # smallest x with Pr(X > x) <= 0.5 is 2.0
        assert c.quantile_of_exceedance(0.5) == 2.0
        assert c.quantile_of_exceedance(0.0) == 4.0

    def test_quantile_bad_p(self):
        with pytest.raises(ValueError):
            empirical_ccdf([1.0]).quantile_of_exceedance(1.5)
