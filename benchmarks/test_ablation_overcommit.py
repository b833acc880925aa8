"""Ablation: how far can over-commitment be pushed? (paper section 10, Q2).

Sweeps the admission over-commit factor on a fixed small cell and
reports realized utilization, allocation, evictions and unplaced work —
the trade-off statistical multiplexing rides on.
"""

import dataclasses

from repro.sim.cell import CellSim
from repro.util.rng import RngFactory
from repro.util.timeutil import HOUR_SECONDS
from repro.workload import small_test_scenario


def _run_with_overcommit(factor: float, seed: int = 3):
    scenario = small_test_scenario(seed=seed, machines_per_cell=30,
                                   horizon_hours=12.0, arrival_scale=0.015)
    scheduler = dataclasses.replace(scenario.config.scheduler,
                                    overcommit_cpu=factor,
                                    overcommit_mem=factor)
    config = dataclasses.replace(scenario.config, scheduler=scheduler)
    rng = RngFactory(scenario.seed).child(f"oc-{factor}")
    result = CellSim(config, scenario.machines, scenario.workload, rng).run()
    u = result.usage
    cap = result.capacity
    hours = config.horizon / HOUR_SECONDS
    util = float((u["avg_cpu"] * u["duration"]).sum()) / HOUR_SECONDS / (cap.cpu * hours)
    alloc = float((u["cpu_limit"] * u["duration"])[~u["in_alloc"]].sum()) \
        / HOUR_SECONDS / (cap.cpu * hours)
    return {
        "factor": factor,
        "cpu_utilization": util,
        "cpu_allocation": alloc,
        "evictions": result.counters.evictions,
        "preemption_victims": result.counters.preemption_victims,
    }


def test_ablation_overcommit():
    rows = [_run_with_overcommit(f) for f in (1.0, 1.4, 1.9, 2.4)]

    print("\nAblation: over-commit factor sweep (one 2019-style cell)")
    print(f"  {'factor':>6s} {'cpu util':>9s} {'cpu alloc':>10s} "
          f"{'evictions':>10s} {'preempted':>10s}")
    for r in rows:
        print(f"  {r['factor']:6.1f} {r['cpu_utilization']:9.3f} "
              f"{r['cpu_allocation']:10.3f} {r['evictions']:10d} "
              f"{r['preemption_victims']:10d}")

    by_factor = {r["factor"]: r for r in rows}
    # No over-commit leaves capacity stranded: utilization clearly lower.
    assert by_factor[1.0]["cpu_utilization"] < by_factor[1.9]["cpu_utilization"]
    # Admission-bound allocation grows with the factor.
    assert by_factor[1.0]["cpu_allocation"] <= 1.02
    assert by_factor[1.9]["cpu_allocation"] > by_factor[1.0]["cpu_allocation"]
    # Pushing further yields diminishing returns: the last step buys less
    # utilization than the first.
    gain_first = (by_factor[1.4]["cpu_utilization"]
                  - by_factor[1.0]["cpu_utilization"])
    gain_last = (by_factor[2.4]["cpu_utilization"]
                 - by_factor[1.9]["cpu_utilization"])
    assert gain_last < gain_first + 0.05
