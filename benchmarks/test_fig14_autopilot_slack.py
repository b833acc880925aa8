"""Figure 14: CCDF of peak NCU slack by vertical-scaling mode."""

from repro.analysis import autoscaling


def test_fig14_autopilot_slack(bench_traces_2019):
    ccdfs = autoscaling.slack_ccdf_by_mode(bench_traces_2019)

    grid = [10, 20, 30, 40, 50, 60, 70, 80, 90]
    print("\nFigure 14 (reproduced): Pr(peak slack % > x)")
    print(f"  x = {grid}")
    for mode in autoscaling.MODES:
        values = "  ".join(f"{ccdfs[mode].at(x):5.2f}" for x in grid)
        print(f"  {mode:>11s}: {values}")

    slack = autoscaling.summarize_slack(bench_traces_2019)
    print(f"  medians: { {k: round(v, 3) for k, v in slack.median_slack.items()} }")

    # The ordering the paper finds: fully < constrained < manual.
    assert slack.median_slack["fully"] < slack.median_slack["constrained"]
    assert slack.median_slack["constrained"] < slack.median_slack["none"]
    # Full autoscaling beats manual by a wide margin at most thresholds.
    for x in (30, 40, 50):
        assert ccdfs["fully"].at(float(x)) < ccdfs["none"].at(float(x))
