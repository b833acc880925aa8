"""Figure 11: CCDF of tasks per job by tier."""

from repro.analysis import tasks_per_job
from repro.analysis.common import TIER_ORDER


def test_fig11_tasks_per_job(bench_traces_2019):
    pct = tasks_per_job.width_percentiles(bench_traces_2019, (50, 80, 95))

    print("\nFigure 11 (reproduced): tasks-per-job percentiles")
    for tier in TIER_ORDER:
        if tier not in pct:
            continue
        print(f"  {tier:>5s}: 50%ile={pct[tier][50]:4.0f} "
              f"80%ile={pct[tier][80]:5.0f} 95%ile={pct[tier][95]:6.0f}")
    print("  (paper 95%iles: beb=498, mid=67, free=21, prod=3)")

    # Ordering of widths: beb widest, prod narrowest (the paper's point).
    assert pct["beb"][95] > pct["mid"][95] > pct["prod"][95]
    assert pct["free"][95] > pct["prod"][95]
    # beb jobs are dramatically wider than production at the tail.
    assert pct["beb"][95] > 10 * pct["prod"][95]
    # Most jobs in every tier are small.
    assert all(pct[t][50] <= 4 for t in pct)
