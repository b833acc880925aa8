"""Figure 12: CCDF of per-job resource-hours on log-log axes."""

from repro.analysis import consumption


def test_fig12_usage_ccdf(bench_traces_2011, bench_traces_2019):
    ccdfs = {
        (era, resource): consumption.usage_ccdf(traces, resource)
        for era, traces in (("2011", bench_traces_2011),
                            ("2019", bench_traces_2019))
        for resource in ("cpu", "mem")
    }

    grid = [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0]
    print("\nFigure 12 (reproduced): Pr(job resource-hours > x)")
    print(f"  x = {grid}")
    for (era, resource), ccdf in ccdfs.items():
        values = "  ".join(f"{ccdf.at(x):9.2e}" for x in grid)
        print(f"  {era} {resource}: {values}")

    for ccdf in ccdfs.values():
        # The distribution spans many orders of magnitude...
        assert ccdf.xs.max() / max(ccdf.xs.min(), 1e-12) > 1e5
        # ...and the tail decays roughly linearly on log-log axes above
        # 1 resource-hour: check the decade-over-decade decay ratio is
        # roughly constant (power law), not accelerating (exponential).
        p1, p10, p100 = ccdf.at(1.0), ccdf.at(10.0), ccdf.at(100.0)
        if p100 > 0:
            first = p1 / p10
            second = p10 / p100
            assert 0.2 < first / second < 5.0
