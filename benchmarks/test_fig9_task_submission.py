"""Figure 9: task submission rates, new vs all (scheduling churn)."""

from repro.analysis import submission


def test_fig9_task_submission(bench_traces_2011, bench_traces_2019):
    summaries_2019 = [submission.summarize_submissions(t)
                      for t in bench_traces_2019]
    summary_2011 = submission.summarize_submissions(bench_traces_2011[0])

    print("\nFigure 9 (reproduced): median tasks/hour")
    print(f"  2011: new={summary_2011.median_new_tasks_per_hour:7.0f} "
          f"all={summary_2011.median_all_tasks_per_hour:7.0f} "
          f"resubmit:new={summary_2011.resubmit_to_new_ratio:.2f}")
    for s in summaries_2019:
        print(f"  2019 {s.cell}: new={s.median_new_tasks_per_hour:7.0f} "
              f"all={s.median_all_tasks_per_hour:7.0f} "
              f"resubmit:new={s.resubmit_to_new_ratio:.2f}")

    growth = submission.growth_factors(bench_traces_2011[0], bench_traces_2019)
    print(f"  all-task median growth {growth['median_all_task_rate_growth']:.2f}x "
          f"(paper ~3.6x)")
    print(f"  resubmit:new 2011={growth['resubmit_ratio_2011']:.2f} (paper 0.66) "
          f"2019={growth['resubmit_ratio_2019']:.2f} (paper 2.26)")

    # Task-rate growth and the churn story.
    assert growth["median_all_task_rate_growth"] > 2.0
    assert growth["resubmit_ratio_2019"] > 2.0 * growth["resubmit_ratio_2011"]
    assert 0.3 < growth["resubmit_ratio_2011"] < 1.3
    assert 1.3 < growth["resubmit_ratio_2019"] < 4.0
