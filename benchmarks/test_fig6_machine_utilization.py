"""Figure 6: CCDF of machine utilization at the same local time."""

import numpy as np

from repro.analysis import machine_util


def test_fig6_machine_utilization(bench_traces_2011,
                                  bench_traces_2019):
    ccdfs = {}
    for resource in ("cpu", "mem"):
        for trace in list(bench_traces_2019) + list(bench_traces_2011):
            ccdfs[(resource, trace.cell)] = \
                machine_util.machine_utilization_ccdf(trace, resource)

    grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    print("\nFigure 6 (reproduced): Pr(machine utilization > x)")
    for resource in ("cpu", "mem"):
        print(f"[{resource}]  x = {grid}")
        for (res, cell), ccdf in ccdfs.items():
            if res != resource:
                continue
            values = "  ".join(f"{ccdf.at(x):5.2f}" for x in grid)
            print(f"  {cell:>4s}: {values}")

    summaries_2019 = [machine_util.summarize_machine_utilization(t, "cpu")
                      for t in bench_traces_2019]
    summary_2011 = machine_util.summarize_machine_utilization(
        bench_traces_2011[0], "cpu")
    medians_2019 = [s.median for s in summaries_2019]
    print(f"\n  median cpu util: 2011={summary_2011.median:.2f}  "
          f"2019 cells={[round(m, 2) for m in medians_2019]}")

    # Considerable variation across the 2019 cells at the median.
    assert max(medians_2019) - min(medians_2019) > 0.05
    # Utilization values are physical (reconciliation holds them <= 1).
    for ccdf in ccdfs.values():
        assert ccdf.xs.max() <= 1.0 + 1e-6
    # There are few machines above 80% CPU utilization in 2019.
    frac_above_80 = np.mean([s.fraction_above_80pct for s in summaries_2019])
    assert frac_above_80 < 0.35
