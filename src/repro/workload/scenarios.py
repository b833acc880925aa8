"""Cell presets: the 2011 cell and the eight 2019 cells (a-h).

Each preset bundles a :class:`~repro.sim.cell.CellConfig`, a machine
fleet and a generated workload into a runnable :class:`CellScenario`.
The per-cell tier multipliers encode the inter-cell variation the paper
highlights (figures 3 and 5): cell b is batch-heavy, cell a production-
heavy, cell h mid-tier-heavy, cell c over-allocates best-effort batch
memory hardest, and cell g lives in Singapore (UTC+8) — the source of
the diurnal offset remarked on in section 4.1.

Scale note: real cells have ~12k machines and month-long traces; presets
default to laptop-scale fleets and multi-day horizons.  All calibration
is scale-free (see DESIGN.md section 6), so rates, mixes and tail
exponents are preserved; pass bigger ``machines_per_cell`` /
``horizon_hours`` for heavier runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.faults import FaultParams, resolve_faults
from repro.sim.batch import BatchParams
from repro.sim.cell import CellConfig, CellResult, CellSim
from repro.sim.machine import Machine
from repro.sim.priority import Tier
from repro.sim.resources import Resources
from repro.sim.scheduler import SchedulerParams
from repro.sim.entities import Collection
from repro.util.rng import RngFactory
from repro.util.timeutil import HOUR_SECONDS
from repro.workload.archetypes import (
    ArchetypeMix,
    ArchetypeWorkload,
    resolve_archetype_mix,
)
from repro.workload.fleet import build_machines, fleet_2011, fleet_2019
from repro.workload.jobs import WorkloadGenerator
from repro.workload.params import EraParams, era_2011, era_2019

#: Scenario knob types: a profile/mix name, the explicit value, or None.
FaultsKnob = Union[str, FaultParams, None]
ArchetypeKnob = Union[str, ArchetypeMix, None]

#: A cell profile: (utc_offset_hours, usage multipliers {tier: (cpu, mem)},
#: usage-fraction multipliers {tier: (cpu, mem)}).  Usage multipliers move
#: a tier's *consumption*; fraction multipliers below 1 inflate its
#: *allocation* relative to usage (cell c's 140%-of-capacity beb memory
#: allocation is requests, not consumption).
CellProfile = Tuple[float, Dict[Tier, Tuple[float, float]],
                    Dict[Tier, Tuple[float, float]]]

#: The eight 2019 cells' profiles.
CELL_PROFILES_2019: Dict[str, CellProfile] = {
    "a": (-7.0, {Tier.PROD: (1.3, 1.6), Tier.BEB: (0.7, 0.7)}, {}),
    "b": (-7.0, {Tier.BEB: (1.6, 1.5)}, {}),
    "c": (-5.0, {Tier.BEB: (1.3, 1.4)}, {Tier.BEB: (1.0, 0.45)}),
    "d": (-6.0, {}, {}),
    "e": (-4.0, {Tier.FREE: (2.0, 2.0), Tier.PROD: (0.9, 0.9)}, {}),
    "f": (-7.0, {Tier.MID: (1.8, 1.8), Tier.BEB: (0.8, 0.8)}, {}),
    "g": (8.0, {Tier.PROD: (1.1, 1.0)}, {}),
    "h": (-5.0, {Tier.MID: (2.5, 2.8), Tier.PROD: (0.8, 1.2)}, {}),
}

#: The 2011 cell's profile: US Pacific time, the era's own tier mix.
CELL_PROFILE_2011: CellProfile = (-7.0, {}, {})


@dataclass
class CellScenario:
    """A runnable cell: config + fleet + workload."""

    name: str
    era: EraParams
    config: CellConfig
    machines: List[Machine]
    workload: List[Collection]
    seed: int

    @property
    def capacity(self) -> Resources:
        return Resources(
            sum(m.capacity.cpu for m in self.machines),
            sum(m.capacity.mem for m in self.machines),
        )

    def run(self, recorder=None) -> CellResult:
        """Simulate the cell to its horizon.

        ``recorder`` is an optional
        :class:`repro.obs.recorder.CellRecorder`; when given, the
        simulator emits streaming flight-recorder frames on the
        recorder's simulated-time cadence.
        """
        rng = RngFactory(self.seed).child(f"sim-{self.name}")
        return CellSim(self.config, self.machines, self.workload, rng,
                       recorder=recorder).run()


def cell_config(name: str, era: EraParams, horizon: float,
                sample_period: float, profile: CellProfile,
                faults: Optional[FaultParams] = None) -> CellConfig:
    """The one place an era plus a cell profile becomes a :class:`CellConfig`:
    scheduler preset, batch budget, hazards, batch queueing and faults.

    Scenario builds and trace replay both call it, so a replayed preset
    cell runs under the knobs its trace was recorded with.
    """
    utc_offset_hours, tier_multipliers, tier_fraction_multipliers = profile
    if era.era == "2011":
        # 2011: CPU over-committed aggressively, memory barely; slower
        # scheduling rounds (higher median delay in figure 10).
        scheduler = SchedulerParams(overcommit_cpu=1.6, overcommit_mem=1.1,
                                    round_interval=10.0, round_capacity=3000)
    else:
        scheduler = SchedulerParams(overcommit_cpu=1.9, overcommit_mem=1.8,
                                    round_interval=5.0, round_capacity=4000)
    # Batch-queue budget: generous relative to the cell's beb allocation
    # demand, so it smooths bursts without capping steady-state load (cell
    # c's beb *memory* allocation alone exceeds cell capacity — figure 5).
    beb = era.tiers.get(Tier.BEB)
    mults = tier_multipliers.get(Tier.BEB, (1.0, 1.0))
    f_mults = tier_fraction_multipliers.get(Tier.BEB, (1.0, 1.0))
    batch_params = BatchParams()
    if beb is not None:
        demand_cpu = (beb.target_cpu_usage * mults[0]
                      / (beb.cpu_usage_fraction * f_mults[0]))
        demand_mem = (beb.target_mem_usage * mults[1]
                      / (beb.mem_usage_fraction * f_mults[1]))
        batch_params = BatchParams(
            beb_cpu_allocation_target=max(0.5, 1.4 * demand_cpu),
            beb_mem_allocation_target=max(0.5, 1.4 * demand_mem),
        )
    return CellConfig(
        name=name,
        era=era.era,
        utc_offset_hours=utc_offset_hours,
        horizon=horizon,
        scheduler=scheduler,
        batch=batch_params,
        sample_period=sample_period,
        batch_queueing=era.batch_queueing,
        eviction_rate_per_hour=dict(era.eviction_rate_per_hour),
        restart_rate_per_hour=era.restart_rate_per_hour,
        faults=faults,
    )


def _build_scenario(name: str, era: EraParams, profile: CellProfile,
                    seed: int, machines_per_cell: int, horizon_hours: float,
                    arrival_scale: float, sample_period: float,
                    id_offset: int, faults: Optional[FaultParams],
                    archetype_mix: Optional[ArchetypeMix]) -> CellScenario:
    utc_offset_hours, tier_multipliers, tier_fraction_multipliers = profile
    rng = RngFactory(seed).child(f"cell-{name}")
    shapes = fleet_2011() if era.era == "2011" else fleet_2019()
    machines = build_machines(shapes, machines_per_cell, rng.stream("fleet"),
                              utc_offset_hours=utc_offset_hours)
    capacity = Resources(sum(m.capacity.cpu for m in machines),
                         sum(m.capacity.mem for m in machines))
    horizon = horizon_hours * HOUR_SECONDS
    # Constraints target platforms with a meaningful fleet share; a
    # constraint on a one-machine platform would be near-unplaceable.
    platform_counts = Counter(m.platform for m in machines)
    common_platforms = [p for p, n in platform_counts.items()
                        if n >= max(3, 0.05 * len(machines))]
    generator = WorkloadGenerator(
        era=era, capacity=capacity, horizon=horizon, rng=rng,
        arrival_scale=arrival_scale, utc_offset_hours=utc_offset_hours,
        tier_multipliers=tier_multipliers,
        tier_fraction_multipliers=tier_fraction_multipliers,
        platforms=common_platforms,
        id_offset=id_offset,
    )
    config = cell_config(name, era, horizon, sample_period, profile, faults)
    workload = generator.generate()
    if archetype_mix is not None and archetype_mix.n_users > 0:
        # Archetype jobs ride on ids far above the calibrated workload's
        # range (uniqueness is per-cell) and draw from their own stream,
        # so the base workload's bytes never move.
        archetypes = ArchetypeWorkload(
            era=era, capacity=capacity, horizon=horizon,
            rng=rng.stream("archetypes"), id_offset=id_offset + 5_000_000)
        workload = workload + archetypes.generate(archetype_mix)
        workload.sort(key=lambda c: c.submit_time)
    return CellScenario(name=name, era=era, config=config, machines=machines,
                        workload=workload, seed=seed)


def build_cells(cells: Sequence[str], seed: int = 0,
                machines_per_cell: int = 100, horizon_hours: float = 96.0,
                arrival_scale: float = 0.02, sample_period: float = 900.0,
                faults: FaultsKnob = None, fault_rate: float = 1.0,
                archetype_mix: ArchetypeKnob = None) -> List[CellScenario]:
    """Runnable cells for ``cells`` — "2011" and 2019 names a-h, mixed —
    in request order.

    Collection ids are unique across one call: the 2011 cell's start at
    0 and the i-th 2019 cell's (i = 1, 2, ...) at i * 10**7.  Analyses
    that pool collections across cells (section 5.2's termination
    statistics) need every cell they pool from one call.
    """
    unknown = set(cells) - set(CELL_PROFILES_2019) - {"2011"}
    if unknown:
        raise ValueError(f"unknown 2019 cells: {sorted(unknown)}")
    fault_params = resolve_faults(faults, fault_rate)
    mix = resolve_archetype_mix(archetype_mix)
    out = []
    n_2019 = 0
    for name in cells:
        if name == "2011":
            era, profile, id_offset = era_2011(), CELL_PROFILE_2011, 0
        else:
            n_2019 += 1
            era, profile = era_2019(), CELL_PROFILES_2019[name]
            id_offset = n_2019 * 10_000_000
        out.append(_build_scenario(
            name, era, profile, seed, machines_per_cell, horizon_hours,
            arrival_scale, sample_period, id_offset, fault_params, mix))
    return out


def scenario_2011(seed: int = 0, machines_per_cell: int = 100,
                  horizon_hours: float = 96.0, arrival_scale: float = 0.02,
                  sample_period: float = 900.0,
                  faults: FaultsKnob = None, fault_rate: float = 1.0,
                  archetype_mix: ArchetypeKnob = None) -> CellScenario:
    """The single 2011 cell."""
    return build_cells(["2011"], seed, machines_per_cell, horizon_hours,
                       arrival_scale, sample_period, faults, fault_rate,
                       archetype_mix)[0]


def scenarios_2019(seed: int = 0, machines_per_cell: int = 100,
                   horizon_hours: float = 96.0, arrival_scale: float = 0.02,
                   sample_period: float = 900.0,
                   cells: Optional[List[str]] = None,
                   faults: FaultsKnob = None, fault_rate: float = 1.0,
                   archetype_mix: ArchetypeKnob = None) -> List[CellScenario]:
    """The eight 2019 cells a-h (or a subset via ``cells``)."""
    return build_cells(cells or sorted(CELL_PROFILES_2019), seed,
                       machines_per_cell, horizon_hours, arrival_scale,
                       sample_period, faults, fault_rate, archetype_mix)


def small_test_scenario(seed: int = 0, era: str = "2019",
                        machines_per_cell: int = 24,
                        horizon_hours: float = 12.0,
                        arrival_scale: float = 0.012,
                        faults: FaultsKnob = None, fault_rate: float = 1.0,
                        archetype_mix: ArchetypeKnob = None) -> CellScenario:
    """A seconds-fast scenario for unit tests and quick exploration.

    ``faults``/``archetype_mix`` default to off, so every pre-existing
    fixture and golden built on this scenario is byte-identical to the
    pre-fault-injection library.
    """
    # The 2011 cell stands in for a whole workload: boost its arrivals.
    boost = 3.5 if era == "2011" else 1.0
    return build_cells(["2011" if era == "2011" else "d"], seed,
                       machines_per_cell, horizon_hours, arrival_scale * boost,
                       300.0, faults, fault_rate, archetype_mix)[0]
