"""Unit tests for Pareto tail fitting and heavy-tailed samplers."""

import numpy as np
import pytest

from repro.stats import (
    bounded_pareto_sample,
    fit_pareto_ccdf,
    fit_pareto_mle,
)
from repro.stats.distributions import bounded_pareto_quantile, stratified_uniforms


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _pareto_draws(rng, alpha, x_min, size):
    """Unbounded Pareto(alpha) samples with scale ``x_min`` (inverse CDF)."""
    return x_min / np.power(1.0 - rng.random(size), 1.0 / alpha)


class TestSamplers:
    def test_bounded_pareto_within_bounds(self, rng):
        samples = bounded_pareto_sample(rng, 0.7, 1.0, 100.0, 10_000)
        assert samples.min() >= 1.0 and samples.max() <= 100.0

    def test_bounded_pareto_bad_bounds(self, rng):
        with pytest.raises(ValueError):
            bounded_pareto_sample(rng, 0.7, 5.0, 1.0, 10)

    def test_quantile_monotone(self):
        us = np.linspace(0.0, 0.999, 50)
        qs = bounded_pareto_quantile(us, 0.69, 1.0, 1000.0)
        assert (np.diff(qs) > 0).all()

    def test_quantile_endpoints(self):
        assert bounded_pareto_quantile(0.0, 1.0, 2.0, 50.0) == pytest.approx(2.0)
        assert bounded_pareto_quantile(1.0 - 1e-12, 1.0, 2.0, 50.0) == pytest.approx(50.0, rel=1e-3)

    def test_stratified_uniforms_cover_strata(self, rng):
        u = stratified_uniforms(rng, 100)
        assert sorted(np.floor(np.sort(u) * 100).astype(int).tolist()) == list(range(100))

    def test_stratified_uniforms_empty(self, rng):
        assert len(stratified_uniforms(rng, 0)) == 0


class TestFits:
    def test_regression_fit_recovers_alpha(self, rng):
        samples = bounded_pareto_sample(rng, 0.69, 1.0, 50_000.0, 50_000)
        fit = fit_pareto_ccdf(samples, x_min=1.0, upper_quantile=0.9999)
        assert fit.alpha == pytest.approx(0.69, abs=0.06)
        assert fit.r_squared > 0.98

    def test_mle_fit_recovers_alpha(self, rng):
        samples = _pareto_draws(rng, 1.2, 1.0, 50_000)
        fit = fit_pareto_mle(samples, x_min=1.0)
        assert fit.alpha == pytest.approx(1.2, abs=0.05)

    def test_fit_ignores_body_below_x_min(self, rng):
        body = rng.random(10_000) * 0.5
        tail = bounded_pareto_sample(rng, 0.8, 1.0, 10_000.0, 5_000)
        fit = fit_pareto_ccdf(np.concatenate([body, tail]), x_min=1.0)
        assert fit.alpha == pytest.approx(0.8, abs=0.08)

    def test_too_few_tail_samples(self, rng):
        with pytest.raises(ValueError, match="need >= 10"):
            fit_pareto_ccdf([0.1, 0.2, 2.0], x_min=1.0)

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            fit_pareto_ccdf([])

    def test_bad_upper_quantile(self, rng):
        samples = _pareto_draws(rng, 1.0, 1.0, 100)
        with pytest.raises(ValueError):
            fit_pareto_ccdf(samples, upper_quantile=1.5)

    def test_model_ccdf_evaluates(self, rng):
        samples = _pareto_draws(rng, 1.0, 1.0, 10_000)
        fit = fit_pareto_ccdf(samples)
        model = fit.ccdf(np.array([1.0, 10.0]))
        assert model[0] == pytest.approx(1.0)
        assert 0 < model[1] < 1

    def test_fit_metadata(self, rng):
        samples = bounded_pareto_sample(rng, 1.0, 1.0, 1000.0, 5000)
        fit = fit_pareto_ccdf(samples, x_min=1.0)
        assert fit.n_tail > 1000
        assert fit.x_min == 1.0
        assert fit.x_max <= 1000.0
