"""Figure 3: average usage by tier, per cell (inter-cell variation)."""

from repro.analysis import utilization
from repro.analysis.common import TIER_ORDER


def test_fig3_usage_by_cell(bench_traces_2011, bench_traces_2019):
    by_cell = {
        resource: {
            **utilization.usage_by_cell(bench_traces_2011, resource),
            **utilization.usage_by_cell(bench_traces_2019, resource),
        }
        for resource in ("cpu", "mem")
    }

    print("\nFigure 3 (reproduced): average usage fraction by tier per cell")
    for resource, cells in by_cell.items():
        print(f"[{resource}]")
        for cell, fractions in cells.items():
            parts = "  ".join(f"{t}={fractions.get(t, 0.0):.3f}"
                              for t in TIER_ORDER)
            print(f"  {cell:>4s}: {parts}")

    cpu = by_cell["cpu"]
    beb_by_cell = {cell: f["beb"] for cell, f in cpu.items() if cell != "2011"}
    mid_by_cell = {cell: f["mid"] for cell, f in cpu.items() if cell != "2011"}
    prod_by_cell = {cell: f["prod"] for cell, f in cpu.items() if cell != "2011"}

    if set(beb_by_cell) >= {"a", "b", "h"}:
        # Cell b is the batch-heaviest, cell h the mid-heaviest, and cell
        # a among the production-heaviest (section 4 / figure 3).
        assert beb_by_cell["b"] == max(beb_by_cell.values())
        assert mid_by_cell["h"] == max(mid_by_cell.values())
        top_prod = sorted(prod_by_cell, key=prod_by_cell.get, reverse=True)[:3]
        assert "a" in top_prod
    # Considerable inter-cell variation.
    assert max(beb_by_cell.values()) > 1.5 * min(beb_by_cell.values())
