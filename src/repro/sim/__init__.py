"""A discrete-event simulator of a Borg cell.

This substrate replaces the production clusters behind the paper's
traces.  It models the Borg machinery the paper describes: a logically
centralized scheduler placing instances onto heterogeneous machines,
priority tiers with preemption, a best-effort-batch queue feeding the
main scheduler, alloc sets reserving resources for later jobs,
parent-child job dependencies with cascade kills, task-level restarts
("churn"), machine maintenance evictions, resource over-commit, and
Autopilot vertical autoscaling.  Running a cell produces an event log
and usage samples with the same vocabulary as the 2019 trace, which the
``repro.trace`` encoder then turns into trace tables.
"""

from repro.sim.autopilot import AutopilotMode
from repro.sim.cell import CellConfig, CellSim
from repro.sim.entities import Collection, CollectionType, EndReason, Instance, InstanceState
from repro.sim.events import EventLog, EventType
from repro.sim.machine import Machine
from repro.sim.priority import (
    TIERS,
    Tier,
    tier_of_priority_2011,
    tier_of_priority_2019,
)
from repro.sim.resources import Resources

__all__ = [
    "AutopilotMode",
    "CellConfig",
    "CellSim",
    "Collection",
    "CollectionType",
    "EndReason",
    "Instance",
    "InstanceState",
    "EventLog",
    "EventType",
    "Machine",
    "TIERS",
    "Tier",
    "tier_of_priority_2011",
    "tier_of_priority_2019",
    "Resources",
]
