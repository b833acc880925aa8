"""Figure 13: correlation of compute and memory consumption."""

from repro.analysis import correlation


def test_fig13_cpu_mem_correlation(bench_traces_2019):
    rep = correlation.cpu_mem_correlation(bench_traces_2019)

    print("\nFigure 13 (reproduced): NCU-hour bucket -> median NMU-hours")
    for c, m in list(zip(rep.bucket_centers, rep.median_nmu_hours))[:15]:
        print(f"  {c:8.1f} NCU-h -> {m:8.2f} NMU-h")
    print(f"  jobs={rep.n_jobs}  buckets={len(rep.bucket_centers)}  "
          f"Pearson r={rep.pearson_r:.3f} (paper: 0.97)")

    # Strongly correlated: CPU hogs are memory hogs too (section 7.2).
    assert rep.pearson_r > 0.85
    assert rep.n_jobs > 5_000
