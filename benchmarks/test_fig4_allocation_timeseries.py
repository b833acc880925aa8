"""Figure 4: hourly allocation by tier — the over-commit picture."""

import numpy as np

from repro.analysis import allocation, utilization
from repro.analysis.common import TIER_ORDER


def test_fig4_allocation_timeseries(bench_traces_2011,
                                    bench_traces_2019):
    series = {}
    for resource in ("cpu", "mem"):
        series[("2011", resource)] = allocation.allocation_timeseries(
            bench_traces_2011[0], resource)
        series[("2019", resource)] = allocation.mean_allocation_timeseries(
            bench_traces_2019, resource)

    print("\nFigure 4 (reproduced): mean allocation fraction of capacity")
    totals = {}
    for (era, resource), tiers in series.items():
        total = float(np.mean(sum(tiers[t] for t in TIER_ORDER)))
        totals[(era, resource)] = total
        parts = "  ".join(f"{t}={float(np.mean(v)):.3f}"
                          for t, v in sorted(tiers.items()))
        print(f"  {era} {resource}: total={total:.2f}  ({parts})")

    # 2019: both dimensions consistently allocated above 100% of capacity.
    assert totals[("2019", "cpu")] > 1.0
    assert totals[("2019", "mem")] > 0.9
    # 2011: CPU over-committed much more than memory.
    assert totals[("2011", "cpu")] > totals[("2011", "mem")] + 0.15
    # 2019 over-commits memory comparably to CPU (ratio far closer to 1).
    ratio_2019 = totals[("2019", "cpu")] / totals[("2019", "mem")]
    ratio_2011 = totals[("2011", "cpu")] / totals[("2011", "mem")]
    assert ratio_2019 < ratio_2011
    # Allocation sits well above usage in every era/resource.
    for era, traces in (("2011", bench_traces_2011), ("2019", bench_traces_2019)):
        for resource in ("cpu", "mem"):
            used = float(np.mean([
                utilization.total_usage_fraction(t, resource) for t in traces
            ]))
            assert totals[(era, resource)] > used
