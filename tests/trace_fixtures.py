"""One shared builder for simulate-and-encode fixture setup.

``tests/conftest.py`` and ``benchmarks/conftest.py`` need the same
expensive setup — run a cell scenario, encode the result as a
:class:`TraceDataset` — at different scales: the unit suite wants
seconds-fast single cells, the benchmark suite wants paper-scale cells
tunable from the environment.  Both used to hand-roll the loop; this
module is the single copy, parametrized on cell size via
:class:`TraceScale`.

The two canonical scales are :data:`TEST_SCALE` (matches
``repro.workload.small_test_scenario``, so session fixtures — and the
golden figures derived from them — are unchanged) and
:func:`bench_scale` (reads the ``REPRO_BENCH_*`` environment knobs).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.trace import encode_cell
from repro.trace.dataset import TraceDataset
from repro.workload import scenario_2011, scenarios_2019

ALL_CELLS_2019 = ("a", "b", "c", "d", "e", "f", "g", "h")


@dataclass(frozen=True)
class TraceScale:
    """How big the simulated cells are — the one knob set both suites share."""

    machines: int
    hours: float
    arrival_scale: float
    seed: int = 0
    sample_period: float = 900.0
    cells_2019: Tuple[str, ...] = ALL_CELLS_2019
    #: 2011-era arrival multiplier: the single 2011 cell stands in for a
    #: whole workload, so the small scale boosts its arrival rate
    #: (mirrors ``repro.workload.small_test_scenario``).
    boost_2011: float = 1.0
    #: Fault-injection profile name and archetype mix name (off/None by
    #: default, so every pre-existing fixture and golden stays
    #: byte-identical to the pre-fault-injection suite).
    faults: Optional[str] = None
    fault_rate: float = 1.0
    archetype_mix: Optional[str] = None


#: The unit-test scale: identical to ``small_test_scenario(seed=11)``.
TEST_SCALE = TraceScale(machines=24, hours=12.0, arrival_scale=0.012,
                        seed=11, sample_period=300.0, cells_2019=("d",),
                        boost_2011=3.5)

#: The failure-heavy unit-test scale: ``TEST_SCALE`` plus the heavy
#: fault profile (crashes, outages, maintenance, upgrades, resubmission)
#: and the mixed archetype crowd — the scenario-pack fixtures.
FAULTY_SCALE = replace(TEST_SCALE, faults="heavy", archetype_mix="mixed")


def bench_scale() -> TraceScale:
    """The benchmark scale, tunable via ``REPRO_BENCH_*`` env knobs."""
    cells = tuple(c for c in os.environ.get(
        "REPRO_BENCH_CELLS", ",".join(ALL_CELLS_2019)).split(",") if c)
    return TraceScale(
        machines=int(os.environ.get("REPRO_BENCH_MACHINES", "100")),
        hours=float(os.environ.get("REPRO_BENCH_HOURS", "48")),
        arrival_scale=float(os.environ.get("REPRO_BENCH_SCALE", "0.02")),
        seed=int(os.environ.get("REPRO_BENCH_SEED", "0")),
        cells_2019=cells,
    )


def build_result(era: str, scale: TraceScale):
    """Simulate one cell at ``scale`` and return its :class:`CellResult`.

    For the 2019 era this runs the *first* cell of ``scale.cells_2019``
    (the unit scale pins exactly one).
    """
    return build_scenarios(era, scale)[0].run()


def build_trace(era: str, scale: TraceScale,
                verbose: bool = False) -> TraceDataset:
    """Simulate + encode one cell of ``era`` at ``scale``."""
    return _encode(build_scenarios(era, scale)[0], verbose)


def build_traces_2019(scale: TraceScale,
                      verbose: bool = False) -> List[TraceDataset]:
    """Simulate + encode every 2019 cell in ``scale.cells_2019``."""
    return [_encode(scenario, verbose)
            for scenario in build_scenarios("2019", scale)]


def build_scenarios(era: str, scale: TraceScale):
    """Fresh (unrun) scenarios of ``era`` at ``scale``; one per cell."""
    if era == "2011":
        return [scenario_2011(seed=scale.seed,
                              machines_per_cell=scale.machines,
                              horizon_hours=scale.hours,
                              arrival_scale=scale.arrival_scale * scale.boost_2011,
                              sample_period=scale.sample_period,
                              faults=scale.faults, fault_rate=scale.fault_rate,
                              archetype_mix=scale.archetype_mix)]
    return scenarios_2019(seed=scale.seed, machines_per_cell=scale.machines,
                          horizon_hours=scale.hours,
                          arrival_scale=scale.arrival_scale,
                          sample_period=scale.sample_period,
                          cells=list(scale.cells_2019),
                          faults=scale.faults, fault_rate=scale.fault_rate,
                          archetype_mix=scale.archetype_mix)


def _encode(scenario, verbose: bool) -> TraceDataset:
    t0 = time.time()
    trace = encode_cell(scenario.run())
    if verbose:
        print(f"\n[bench setup] cell {scenario.name} simulated "
              f"in {time.time() - t0:.0f}s")
    return trace
