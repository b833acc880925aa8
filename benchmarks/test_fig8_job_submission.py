"""Figure 8: CCDF of job submission rate; the 3.5x longitudinal growth."""

from repro.analysis import submission


def test_fig8_job_submission(bench_traces_2011, bench_traces_2019):
    ccdfs = {
        "2011": submission.job_submission_ccdf(bench_traces_2011[0]),
        "2019-aggregate": submission.aggregate_job_submission_ccdf(
            bench_traces_2019),
        **{f"2019-{t.cell}": submission.job_submission_ccdf(t)
           for t in bench_traces_2019},
    }

    print("\nFigure 8 (reproduced): job submission rate CCDFs")
    for name, ccdf in ccdfs.items():
        med = ccdf.quantile_of_exceedance(0.5)
        p90 = ccdf.quantile_of_exceedance(0.1)
        print(f"  {name:>14s}: median={med:7.1f}/h  90%ile={p90:7.1f}/h")

    growth = submission.growth_factors(bench_traces_2011[0], bench_traces_2019)
    print(f"  mean growth {growth['mean_job_rate_growth']:.2f}x (paper 3.5x); "
          f"median growth {growth['median_job_rate_growth']:.2f}x (paper 3.7x)")

    # The shape claim: ~3.5x mean/median growth at comparable cell sizes.
    assert 2.5 < growth["mean_job_rate_growth"] < 4.5
    assert 2.5 < growth["median_job_rate_growth"] < 4.5
