"""Table 2: the per-job resource-hour distribution (C², Pareto, hogs)."""

from repro.analysis import consumption


def test_table2_consumption(bench_traces_2011, bench_traces_2019):
    reports = consumption.table2(bench_traces_2011, bench_traces_2019)

    print("\nTable 2 (reproduced):")
    keys = ["n", "median", "mean", "variance", "90%ile", "99%ile", "99.9%ile",
            "maximum", "top 1% jobs load", "top 0.1% jobs load", "C^2",
            "Pareto(alpha)", "R^2"]
    header = f"{'measure':>20s}" + "".join(f"{name:>14s}" for name in reports)
    print(header)
    for key in keys:
        row = f"{key:>20s}"
        for rep in reports.values():
            value = rep.as_dict().get(key)
            row += f"{value:14.4g}" if value is not None else f"{'-':>14s}"
        print(row)

    cpu_2019 = reports["2019 cpu"]
    cpu_2011 = reports["2011 cpu"]
    mem_2019 = reports["2019 mem"]

    # Extremely heavy-tailed: C^2 orders of magnitude above exponential.
    for rep in reports.values():
        assert rep.summary.squared_cv > 50
    # Hogs: top 1% of jobs carries the overwhelming majority of the load.
    assert cpu_2019.summary.top_1pct_share > 0.60
    assert cpu_2019.summary.top_01pct_share > 0.25
    # Pareto tails fit with high R² and alpha < 1 (paper: 0.69-0.77).
    for name in ("2019 cpu", "2019 mem", "2011 cpu", "2011 mem"):
        fit = reports[name].pareto
        assert fit is not None, f"no Pareto fit for {name}"
        assert 0.4 < fit.alpha < 1.15, name
        assert fit.r_squared > 0.90, name
    # The 2011 tail is shallower (larger alpha) than 2019 for CPU.
    assert cpu_2011.pareto.alpha > cpu_2019.pareto.alpha - 0.05
    # Medians are tiny compared to means (mice vs hogs).
    assert cpu_2019.summary.median < 0.01 * cpu_2019.summary.mean
    assert mem_2019.summary.median < 0.01 * mem_2019.summary.mean
