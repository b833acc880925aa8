"""Section 5.2: termination analysis (kills, evictions, dependencies)."""

from repro.analysis import terminations


def test_sec52_terminations(bench_traces_2019):
    rep = terminations.termination_report(bench_traces_2019)

    print("\nSection 5.2 (reproduced):")
    for key, value in rep.as_dict().items():
        print(f"  {key:42s} {value:.4g}")
    print("  (paper: kill-with-parent 87%, without 41%; 3.2% of collections "
          "see evictions, 96.6% of those non-prod)")

    # The dependency effect on kill rates.
    assert rep.kill_rate_with_parent > 0.60
    assert 0.25 < rep.kill_rate_without_parent < 0.60
    assert rep.kill_rate_with_parent > rep.kill_rate_without_parent + 0.2
    # Evictions are rare at the collection level and almost entirely
    # outside the production tier.
    assert rep.collections_with_evictions_fraction < 0.15
    assert rep.evicted_collections_nonprod_fraction > 0.80
    assert rep.prod_collections_evicted_fraction < 0.02
