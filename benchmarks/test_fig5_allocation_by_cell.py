"""Figure 5: average allocation by tier per cell."""

from repro.analysis import allocation
from repro.analysis.common import TIER_ORDER


def test_fig5_allocation_by_cell(bench_traces_2011,
                                 bench_traces_2019):
    by_cell = {
        resource: {
            **allocation.allocation_by_cell(bench_traces_2011, resource),
            **allocation.allocation_by_cell(bench_traces_2019, resource),
        }
        for resource in ("cpu", "mem")
    }

    print("\nFigure 5 (reproduced): average allocation fraction by tier per cell")
    for resource, cells in by_cell.items():
        print(f"[{resource}]")
        for cell, fractions in cells.items():
            parts = "  ".join(f"{t}={fractions.get(t, 0.0):.3f}"
                              for t in TIER_ORDER)
            print(f"  {cell:>4s}: {parts}  total={sum(fractions.values()):.2f}")

    mem = by_cell["mem"]
    beb_mem = {cell: f["beb"] for cell, f in mem.items() if cell != "2011"}
    if "c" in beb_mem:
        # Cell c allocates the most best-effort-batch memory of all cells
        # (the paper measures ~140% of cell capacity for beb alone).
        assert beb_mem["c"] == max(beb_mem.values())
        assert beb_mem["c"] > 0.55
    # Some 2019 cells allocate above their total capacity.
    totals_2019 = [sum(f.values()) for cell, f in by_cell["cpu"].items()
                   if cell != "2011"]
    assert max(totals_2019) > 1.0
