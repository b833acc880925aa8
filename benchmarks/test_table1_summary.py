"""Table 1: 2011 vs 2019 trace comparison."""

from repro.analysis import summary


def test_table1_summary(bench_traces_2011, bench_traces_2019):
    rows = summary.table1(bench_traces_2011, bench_traces_2019)

    col_2011, col_2019 = rows
    print("\nTable 1 (reproduced):")
    for key in col_2011:
        print(f"  {key:22s} {col_2011[key]!s:>14s} {col_2019[key]!s:>14s}")

    # The paper's qualitative deltas.
    assert col_2019["cells"] > col_2011["cells"]
    assert col_2019["hardware_platforms"] > col_2011["hardware_platforms"]
    assert col_2019["machine_shapes"] > col_2011["machine_shapes"]
    assert col_2019["alloc_sets"] and not col_2011["alloc_sets"]
    assert col_2019["batch_queueing"] and not col_2011["batch_queueing"]
    assert col_2019["vertical_scaling"] and not col_2011["vertical_scaling"]
    assert col_2011["priority_values"].endswith("11")   # 0-11 bands
    assert col_2019["priority_values"].endswith("450")  # raw 0-450
