"""Figure 2: hourly usage by tier, 2011 vs 2019."""

import numpy as np

from repro.analysis import utilization
from repro.analysis.common import TIER_ORDER


def test_fig2_usage_timeseries(bench_traces_2011, bench_traces_2019):
    series = {}
    for resource in ("cpu", "mem"):
        series[("2011", resource)] = utilization.usage_timeseries(
            bench_traces_2011[0], resource)
        series[("2019", resource)] = utilization.mean_usage_timeseries(
            bench_traces_2019, resource)

    print("\nFigure 2 (reproduced): mean-of-series usage fractions")
    averages = {}
    for (era, resource), tiers in series.items():
        means = {t: float(np.mean(v)) for t, v in tiers.items()}
        averages[(era, resource)] = means
        parts = "  ".join(f"{t}={means[t]:.3f}" for t in TIER_ORDER)
        print(f"  {era} {resource}: {parts}  total={sum(means.values()):.3f}")

    for resource in ("cpu", "mem"):
        m11 = averages[("2011", resource)]
        m19 = averages[("2019", resource)]
        # Workload migration: beb grew substantially, free shrank (section 4).
        assert m19["beb"] > 1.3 * m11["beb"]
        assert m19["free"] < m11["free"]
        # beb is ~20% of cell capacity in 2019.
        assert 0.10 < m19["beb"] < 0.35
        # The mid tier exists only in 2019.
        assert m11["mid"] == 0.0 and m19["mid"] > 0.0
        # Production usage roughly constant across the eras.
        assert m19["prod"] > 0.5 * m11["prod"]
