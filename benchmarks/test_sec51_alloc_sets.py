"""Section 5.1: alloc-set statistics."""

from repro.analysis import allocsets


def test_sec51_alloc_sets(bench_traces_2019):
    rep = allocsets.alloc_set_report(bench_traces_2019)

    print("\nSection 5.1 (reproduced) vs paper:")
    paper = {
        "alloc sets / collections": 0.02,
        "alloc share of CPU allocations": 0.20,
        "alloc share of RAM allocations": 0.18,
        "jobs running in allocs": 0.15,
        "of which production tier": 0.95,
        "memory utilization inside allocs": 0.73,
        "memory utilization outside allocs": 0.41,
    }
    for key, value in rep.as_dict().items():
        print(f"  {key:38s} measured={value:6.3f}  paper={paper[key]:5.2f}")

    assert 0.005 < rep.alloc_set_fraction_of_collections < 0.05
    assert 0.08 < rep.alloc_cpu_allocation_share < 0.40
    assert 0.08 < rep.alloc_mem_allocation_share < 0.40
    assert 0.05 < rep.jobs_in_alloc_fraction < 0.30
    assert rep.in_alloc_prod_fraction > 0.80
    assert rep.mem_utilization_in_alloc > rep.mem_utilization_outside + 0.10
