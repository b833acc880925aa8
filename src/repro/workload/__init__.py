"""Synthetic workload generation calibrated to the paper's statistics.

The real traces are multi-TiB and unavailable offline; this package
replaces them with generators whose *distributions* match the published
numbers: arrival rates and their 2011-to-2019 growth, per-tier mixes,
tasks-per-job distributions, Pareto resource-hour tails with the
published exponents, termination-reason probabilities (including the
parent-kill effect), alloc-set shares, and autopilot adoption.
``repro.workload.scenarios`` assembles full cell presets — the single
2011 cell and the eight 2019 cells a-h with their inter-cell variation.
"""

from repro.workload.fleet import MachineShape, build_machines, fleet_2011, fleet_2019
from repro.workload.params import (
    EraParams,
    SizeMixture,
    TaskCountModel,
    TierParams,
    era_2011,
    era_2019,
)
from repro.workload.jobs import WorkloadGenerator, build_simple_job
from repro.workload.archetypes import (
    ARCHETYPE_MIXES,
    ArchetypeMix,
    ArchetypeWorkload,
    archetype_of_user,
)
from repro.workload.replay import (
    ReplayComponents,
    machines_from_trace,
    replay_components,
    workload_from_trace,
)
from repro.workload.scenarios import (
    CellScenario,
    build_cells,
    scenario_2011,
    scenarios_2019,
    small_test_scenario,
)

__all__ = [
    "MachineShape",
    "build_machines",
    "fleet_2011",
    "fleet_2019",
    "EraParams",
    "SizeMixture",
    "TaskCountModel",
    "TierParams",
    "era_2011",
    "era_2019",
    "WorkloadGenerator",
    "build_simple_job",
    "ARCHETYPE_MIXES",
    "ArchetypeMix",
    "ArchetypeWorkload",
    "archetype_of_user",
    "ReplayComponents",
    "machines_from_trace",
    "replay_components",
    "workload_from_trace",
    "CellScenario",
    "build_cells",
    "scenario_2011",
    "scenarios_2019",
    "small_test_scenario",
]
