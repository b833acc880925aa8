"""Figure 1: frequency of machine shapes (CPU x memory)."""

from repro.analysis import machines


def test_fig1_machine_shapes(bench_traces_2019):
    points = machines.machine_shapes(bench_traces_2019)

    print("\nFigure 1 (reproduced): machine shapes by frequency")
    total = sum(p.count for p in points)
    for p in points[:15]:
        print(f"  cpu={p.cpu:4.2f} mem={p.mem:4.2f}  "
              f"machines={p.count:5d} ({p.count / total:5.1%})")

    # The 2019 fleet's heterogeneity: many shapes, wide CPU:mem spread.
    assert len(points) >= 15
    ratios = [p.cpu / p.mem for p in points]
    assert max(ratios) / min(ratios) > 4
    fleet = machines.fleet_summary(bench_traces_2019)
    assert fleet["hardware_platforms"] == 7
