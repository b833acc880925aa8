"""Figure 10: job scheduling delay CCDFs, per cell and per tier."""

import numpy as np

from repro.analysis import sched_delay
from repro.analysis.common import TIER_ORDER


def test_fig10_sched_delay(bench_traces_2011, bench_traces_2019):
    by_tier_2011 = sched_delay.delay_ccdf_by_tier(bench_traces_2011)
    by_tier_2019 = sched_delay.delay_ccdf_by_tier(bench_traces_2019)
    medians_2019 = [sched_delay.median_delay(t) for t in bench_traces_2019]
    median_2011 = sched_delay.median_delay(bench_traces_2011[0])

    grid = [1, 2, 5, 10, 20, 30, 60, 120]
    print("\nFigure 10 (reproduced): Pr(delay > x seconds)")
    print(f"  x = {grid}")
    for label, pooled in (("2011", by_tier_2011), ("2019", by_tier_2019)):
        for tier in TIER_ORDER:
            if tier not in pooled:
                continue
            values = "  ".join(f"{pooled[tier].at(x):5.2f}" for x in grid)
            print(f"  {label} {tier:>5s}: {values}")
    print(f"  medians: 2011={median_2011:.1f}s  "
          f"2019 mean-of-cells={np.mean(medians_2019):.1f}s")

    # Median scheduling delay decreased 2011 -> 2019.
    assert float(np.mean(medians_2019)) < median_2011
    # Production jobs are scheduled fastest in 2019 (figure 10b); allow a
    # small tolerance for statistical ties at the median.
    prod_median = by_tier_2019["prod"].quantile_of_exceedance(0.5)
    for tier in ("beb", "mid"):
        if tier in by_tier_2019:
            tier_median = by_tier_2019[tier].quantile_of_exceedance(0.5)
            assert prod_median <= tier_median + 0.5
    # The 2019 distribution has a tail (some jobs wait much longer).
    assert by_tier_2019["beb"].at(20.0) > 0.0
