"""Ablation: hog/mouse isolation scheduling (paper section 10, direction 5).

Feeds the *simulated trace's* per-job NCU-hours into the multi-server
queue experiment: shared FCFS versus a mice-reserved partition, at
several loads.  The paper's conjecture — isolating the top 1% lets the
other 99% "experience what appears to be a very lightly loaded
environment" — is measured directly.
"""

import numpy as np

from repro.analysis.common import job_usage_integrals
from repro.queueing import run_isolation_experiment
from repro.table import concat


def test_ablation_hog_isolation(bench_traces_2019):
    table = concat([job_usage_integrals(t) for t in bench_traces_2019[:4]])
    sizes = table.column("ncu_hours").values
    sizes = sizes[sizes > 0]

    results = {}
    for rho in (0.7, 0.9):
        rng = np.random.default_rng(17)
        results[rho] = run_isolation_experiment(rng, sizes, n_servers=24,
                                                rho=rho, n_jobs=60_000)

    print("\nAblation: hog isolation on trace job sizes "
          f"({len(sizes)} jobs; waits in mean-service units)")
    for rho, exp in results.items():
        print(f"  rho={rho}: mice shared mean={exp.mice_shared.mean_wait:8.2f} "
              f"p99={exp.mice_shared.p99_wait:8.2f}  ->  isolated "
              f"mean={exp.mice_isolated.mean_wait:8.4f} "
              f"p99={exp.mice_isolated.p99_wait:7.3f}  "
              f"(speedup {exp.mice_mean_speedup:,.0f}x; hogs "
              f"{exp.hogs_shared.mean_wait:.1f} -> {exp.hogs_isolated.mean_wait:.1f})")

    for exp in results.values():
        # Mice see a near-empty system under isolation.
        assert exp.mice_isolated.mean_wait < 0.5
        if exp.mice_shared.mean_wait > 1.0:
            assert exp.mice_mean_speedup > 10
    # The effect strengthens with load.
    assert (results[0.9].mice_shared.mean_wait
            > results[0.7].mice_shared.mean_wait)
