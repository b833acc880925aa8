"""Section 7.3: the queueing-delay implications of the hog/mouse split."""

from repro.analysis.common import job_usage_integrals
from repro.queueing import compare_isolation, pollaczek_khinchine
from repro.stats import squared_cv, top_share
from repro.table import concat


def test_sec73_queueing(bench_traces_2019):
    table = concat([job_usage_integrals(t) for t in bench_traces_2019])
    sizes = table.column("ncu_hours").values
    sizes = sizes[sizes > 0]
    report = compare_isolation(sizes, rho=0.5, hog_fraction=0.01)

    cv2 = squared_cv(sizes)
    print("\nSection 7.3 (reproduced):")
    print(f"  jobs={len(sizes)}  C^2={cv2:.0f}  "
          f"top-1% load share={top_share(sizes, 0.01):.1%}")
    print(f"  P-K mean delay at rho=0.5: {pollaczek_khinchine(0.5, cv2):,.0f} "
          "mean service times")
    print(f"  isolating hogs: shared={report.shared_delay:,.0f} -> "
          f"mice-only={report.mice_only_delay:.2f} "
          f"({report.speedup:,.0f}x faster)")

    # High C^2 implies high delay even at moderate load...
    assert pollaczek_khinchine(0.5, cv2) > 50
    # ...and isolating just the top 1% gives the mice a near-empty system.
    assert report.speedup > 20
    assert report.mice_only_delay < report.shared_delay / 10
