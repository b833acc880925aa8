"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.queueing import pollaczek_khinchine
from repro.sim.autopilot import AutopilotMode, limit_trajectory, peak_slack
from repro.sim.priority import (
    Tier,
    tier_of_priority_2011,
    tier_of_priority_2019,
)
from repro.sim.resources import Resources
from repro.stats import (
    empirical_ccdf,
    squared_cv,
    top_share,
)
from repro.stats.distributions import bounded_pareto_quantile, stratified_uniforms
from repro.stats.tails import split_hogs_mice
from repro.table import Table, segments

finite_floats = st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=1e-6, max_value=1e6,
                            allow_nan=False, allow_infinity=False)
samples = st.lists(finite_floats, min_size=1, max_size=200)


class TestCcdfProperties:
    @given(samples)
    def test_probs_in_unit_interval_and_monotone(self, xs):
        c = empirical_ccdf(xs)
        assert ((c.probs >= 0) & (c.probs <= 1)).all()
        assert (np.diff(c.probs) <= 1e-12).all()

    @given(samples, finite_floats)
    def test_at_matches_definition(self, xs, x):
        c = empirical_ccdf(xs)
        direct = float((np.asarray(xs) > x).mean())
        assert abs(c.at(x) - direct) < 1e-12

    @given(samples)
    def test_extremes(self, xs):
        c = empirical_ccdf(xs)
        assert c.at(min(xs) - 1.0) == 1.0
        assert c.at(max(xs)) == 0.0


class TestTailProperties:
    @given(st.lists(positive_floats, min_size=2, max_size=200),
           st.floats(min_value=0.01, max_value=1.0))
    def test_top_share_bounds(self, xs, fraction):
        share = top_share(xs, fraction)
        assert 0.0 <= share <= 1.0 + 1e-12
        # The top fraction carries at least its proportional share.
        k = max(1, int(round(len(xs) * fraction)))
        assert share >= k / len(xs) - 1e-9

    @given(st.lists(positive_floats, min_size=2, max_size=200))
    def test_split_partitions_everything(self, xs):
        split = split_hogs_mice(xs, 0.1)
        assert split.hog_count + split.mouse_count == len(xs)
        np.testing.assert_allclose(split.hogs.sum() + split.mice.sum(),
                                   float(np.sum(xs)), rtol=1e-9)
        if split.mice.size:
            assert split.hogs.min() >= split.mice.max() - 1e-12

    @given(st.lists(st.floats(min_value=0.1, max_value=1e4,
                              allow_nan=False), min_size=2, max_size=100))
    def test_cv2_scale_invariance(self, xs):
        a = squared_cv(xs)
        b = squared_cv([x * 37.5 for x in xs])
        assert abs(a - b) <= 1e-6 * max(1.0, a)


class TestParetoQuantileProperties:
    @given(st.floats(min_value=0.0, max_value=0.999999),
           st.floats(min_value=0.2, max_value=3.0),
           st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=1.5, max_value=1e5))
    def test_quantile_within_bounds(self, u, alpha, x_min, ratio):
        x_max = x_min * ratio
        q = float(bounded_pareto_quantile(u, alpha, x_min, x_max))
        assert x_min - 1e-9 <= q <= x_max + 1e-6

    @given(st.integers(min_value=1, max_value=500), st.integers(0, 2**31))
    def test_stratified_uniforms_marginals(self, n, seed):
        rng = np.random.default_rng(seed)
        u = stratified_uniforms(rng, n)
        assert len(u) == n
        assert ((u >= 0) & (u < 1)).all()
        # Exactly one point per stratum.
        strata = np.floor(np.sort(u) * n).astype(int)
        assert (strata == np.arange(n)).all()


class TestQueueingProperties:
    @given(st.floats(min_value=0.0, max_value=0.99),
           st.floats(min_value=0.0, max_value=1e6))
    def test_pk_monotone_in_cv2(self, rho, cv2):
        assert pollaczek_khinchine(rho, cv2 + 1.0) >= pollaczek_khinchine(rho, cv2)

    @given(st.floats(min_value=0.0, max_value=0.98),
           st.floats(min_value=0.0, max_value=1e6))
    def test_pk_monotone_in_rho(self, rho, cv2):
        assert pollaczek_khinchine(rho + 0.01, cv2) >= pollaczek_khinchine(rho, cv2)


class TestAutopilotProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    min_size=1, max_size=100),
           st.sampled_from(list(AutopilotMode)))
    def test_limits_bounded_and_cover_usage(self, usage, mode):
        usage = np.asarray(usage)
        initial = 1.0
        limits = limit_trajectory(mode, initial, usage)
        assert (limits <= initial + 1e-12).all()
        assert (limits >= usage - 1e-9).all() or mode is AutopilotMode.NONE
        slack = peak_slack(limits, np.minimum(usage, limits))
        assert ((slack >= 0) & (slack <= 1)).all()


class TestResourceProperties:
    resources = st.builds(Resources,
                          st.floats(min_value=0, max_value=100, allow_nan=False),
                          st.floats(min_value=0, max_value=100, allow_nan=False))

    @given(resources, resources)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(resources, resources)
    def test_sub_never_negative(self, a, b):
        out = a - b
        assert out.cpu >= 0 and out.mem >= 0

    @given(resources, resources)
    def test_fits_in_consistent_with_sub(self, a, b):
        if a.fits_in(b):
            slack = b - a
            assert slack.cpu >= -1e-9 and slack.mem >= -1e-9


class TestPriorityProperties:
    @given(st.integers(min_value=0, max_value=450))
    def test_2019_total_mapping(self, priority):
        assert tier_of_priority_2019(priority) in Tier

    @given(st.integers(min_value=0, max_value=11))
    def test_2011_total_mapping(self, band):
        assert tier_of_priority_2011(band) in Tier

    @given(st.integers(min_value=0, max_value=449))
    def test_2019_monotone_in_priority(self, p):
        assert tier_of_priority_2019(p + 1).rank >= tier_of_priority_2019(p).rank


class TestTableProperties:
    @given(st.lists(st.integers(min_value=-5, max_value=5), max_size=100))
    def test_segments_partition_rows(self, values):
        keys = np.asarray(values, dtype=np.int64)
        order, starts = segments(keys)
        unique, counts = np.unique(keys, return_counts=True)
        assert keys[order][starts].tolist() == unique.tolist()
        assert np.diff(starts, append=len(keys)).tolist() == counts.tolist()
        for group in np.split(order, starts[1:]):
            assert (np.diff(group) > 0).all()  # stable: input order kept

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                    min_size=1, max_size=100))
    def test_sort_is_permutation(self, values):
        t = Table({"x": values})
        out = t.sort("x")
        assert sorted(values) == out.column("x").to_list()

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                    min_size=1, max_size=50))
    def test_filter_complement(self, values):
        t = Table({"x": values})
        above = t.filter(t["x"] > 0)
        below = t.filter(~(t["x"] > 0))
        assert len(above) + len(below) == len(t)
