"""Ablation: what does the batch scheduler's queue buy? (paper section 3).

Runs the same workload with the best-effort-batch admission queue on and
off, comparing eviction/preemption churn and beb scheduling delay.  The
queue trades ready-state latency for a calmer cell: without it the whole
beb backlog lands on the scheduler at once.
"""

import dataclasses

import numpy as np

from repro.analysis import sched_delay
from repro.sim.cell import CellSim
from repro.trace import encode_cell
from repro.util.rng import RngFactory
from repro.workload import small_test_scenario


def _run(batch_queueing: bool, seed: int = 6):
    scenario = small_test_scenario(seed=seed, machines_per_cell=30,
                                   horizon_hours=12.0, arrival_scale=0.02)
    config = dataclasses.replace(scenario.config,
                                 batch_queueing=batch_queueing)
    rng = RngFactory(scenario.seed).child(f"bq-{batch_queueing}")
    result = CellSim(config, scenario.machines, scenario.workload, rng).run()
    trace = encode_cell(result)
    delays = sched_delay.scheduling_delays(trace)
    beb = delays.filter(delays.column("tier") == "beb")
    return {
        "queueing": batch_queueing,
        "evictions": result.counters.evictions,
        "preemption_victims": result.counters.preemption_victims,
        "beb_median_ready_delay": float(np.median(beb.column("delay").values))
        if len(beb) else 0.0,
        "queued_collections": result.counters.batch_queued,
    }


def test_ablation_batch_queue():
    with_queue, without_queue = _run(True), _run(False)

    print("\nAblation: best-effort-batch admission queue")
    for r in (with_queue, without_queue):
        print(f"  queueing={str(r['queueing']):>5s}  "
              f"evictions={r['evictions']:5d}  "
              f"preempted={r['preemption_victims']:5d}  "
              f"beb median ready-delay={r['beb_median_ready_delay']:.1f}s  "
              f"queued={r['queued_collections']}")

    # The queue actually engages...
    assert with_queue["queued_collections"] > 0
    assert without_queue["queued_collections"] == 0
    # ...and the post-ready delay stays moderate either way (the batch
    # wait itself is deliberate and excluded from the metric).
    assert with_queue["beb_median_ready_delay"] < 120
