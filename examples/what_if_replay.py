#!/usr/bin/env python
"""What-if analysis by trace replay (the loop public traces enable).

1. Simulate a 2019-style cell and record its trace — stand-in for "a
   trace someone published".
2. Reconstruct the workload from the trace alone; the faithful replay
   runs it under the recorded cell's own config.
3. Replay it against modified cells:
     - no over-commit (admission at 100% of capacity),
     - no batch queue (beb jobs hit the scheduler directly),
4. Compare utilization, allocation, evictions and scheduling delay.

    python examples/what_if_replay.py [seed]
"""

import dataclasses
import sys

from repro.analysis.sched_delay import median_delay
from repro.analysis.utilization import total_usage_fraction
from repro.sim.cell import CellSim
from repro.trace import encode_cell
from repro.util.rng import RngFactory
from repro.util.timeutil import HOUR_SECONDS
from repro.workload import replay_components, small_test_scenario


def run_variant(name, trace, config):
    parts = replay_components(trace)
    result = CellSim(config or parts.config, parts.machines, parts.workload,
                     RngFactory(1234)).run()
    variant_trace = encode_cell(result)
    u = result.usage
    cap = result.capacity
    hours = trace.horizon / HOUR_SECONDS
    alloc = float((u["cpu_limit"] * u["duration"])[~u["in_alloc"]].sum()) \
        / HOUR_SECONDS / (cap.cpu * hours) if len(u["window_start"]) else 0.0
    print(f"  {name:>22s}: util={total_usage_fraction(variant_trace, 'cpu'):.3f} "
          f"alloc={alloc:.2f} evictions={result.counters.evictions:4d} "
          f"median delay={median_delay(variant_trace):.1f}s")


def main(seed: int = 8) -> None:
    print("== recording the original trace ==")
    scenario = small_test_scenario(seed=seed, era="2019",
                                   machines_per_cell=40, horizon_hours=24.0,
                                   arrival_scale=0.02)
    original = scenario.run()
    trace = encode_cell(original)
    print(f"  cell {trace.cell}: {len(trace.collection_events)} collection "
          f"events, util={total_usage_fraction(trace, 'cpu'):.3f} "
          f"evictions={original.counters.evictions}")

    print("== replaying under what-if configurations ==")
    baseline = replay_components(trace).config
    variants = {
        "faithful replay": None,
        "no over-commit": dataclasses.replace(
            baseline, scheduler=dataclasses.replace(
                baseline.scheduler, overcommit_cpu=1.0, overcommit_mem=1.0)),
        "no batch queue": dataclasses.replace(baseline, batch_queueing=False),
        "aggressive over-commit": dataclasses.replace(
            baseline, scheduler=dataclasses.replace(
                baseline.scheduler, overcommit_cpu=2.6, overcommit_mem=2.4)),
    }
    for name, config in variants.items():
        run_variant(name, trace, config)

    print("\nReading: the faithful replay runs under the recorded cell's own")
    print("config, so it lands near the original's utilization and evictions.")
    print("Removing over-commit strands capacity: utilization drops by a third")
    print("and rejected work churns as evictions.  Extra admission headroom")
    print("halves evictions without buying more usage, and at this load the")
    print("batch queue barely matters.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
