"""Encode a simulation result into trace tables.

Each builder maps schema columns to value arrays; :func:`_build` orders
the mapping through :func:`repro.trace.schema.ordered_columns`, so a
builder that drifts from the canonical schema (missing, extra, or
reordered columns) fails loudly here instead of producing a malformed
trace for some later reader to trip over.
"""

from __future__ import annotations

import numpy as np

from repro.sim.cell import CellResult
from repro.sim.usage import AUTOPILOT_FROM_CODE, TIER_FROM_CODE
from repro.table import Column, Table
from repro.trace.dataset import TraceDataset
from repro.trace.schema import empty_table, ordered_columns


def _code_names(names: dict) -> np.ndarray:
    """Object lookup array: ``out[code]`` is the string of ``code``."""
    out = np.empty(max(names) + 1, dtype=object)
    for code, name in names.items():
        out[code] = name
    return out


#: Usage-row tier and vertical-scaling codes -> trace strings.
_TIER_NAMES = _code_names({c: t.value for c, t in TIER_FROM_CODE.items()})
_AUTOPILOT_NAMES = _code_names(AUTOPILOT_FROM_CODE)


def _build(name: str, values: dict) -> Table:
    """Schema-ordered :class:`Table` (typed empty when there are no rows)."""
    table = Table(ordered_columns(name, values))
    if len(table) == 0:
        return empty_table(name)
    return table


# The event-table builders pass string columns as object arrays: a list
# of str would take a detour through a fixed-width ``<U`` array.
def _collection_events_table(result: CellResult) -> Table:
    events = result.events.collection_events
    return _build("collection_events", {
        "time": [e.time for e in events],
        "collection_id": [e.collection_id for e in events],
        # ._value_ is the enum member's plain value attribute; .value
        # routes through a descriptor call per row.
        "type": np.array([e.event._value_ for e in events], dtype=object),
        "collection_type": np.array([e.collection_type for e in events], dtype=object),
        "priority": [e.priority for e in events],
        "tier": np.array([e.tier for e in events], dtype=object),
        "user": np.array([e.user for e in events], dtype=object),
        "scheduler": np.array([e.scheduler for e in events], dtype=object),
        "parent_collection_id": [e.parent_id for e in events],
        "alloc_collection_id": [e.alloc_collection_id for e in events],
        "vertical_scaling": np.array([e.autopilot_mode for e in events], dtype=object),
        "constraint": np.array([e.constraint for e in events], dtype=object),
        "num_instances": [e.num_instances for e in events],
    })


def _instance_events_table(result: CellResult) -> Table:
    events = result.events.instance_events
    return _build("instance_events", {
        "time": [e.time for e in events],
        "collection_id": [e.collection_id for e in events],
        "instance_index": [e.instance_index for e in events],
        "type": np.array([e.event._value_ for e in events], dtype=object),
        "machine_id": [e.machine_id for e in events],
        "priority": [e.priority for e in events],
        "tier": np.array([e.tier for e in events], dtype=object),
        "resource_request_cpu": [e.cpu_request for e in events],
        "resource_request_mem": [e.mem_request for e in events],
        "is_new": [e.is_new for e in events],
    })


def _instance_usage_table(result: CellResult) -> Table:
    u = result.usage
    if not len(u["window_start"]):
        return empty_table("instance_usage")
    # Column() widens the int32/int8 key columns to int64 itself.
    return _build("instance_usage", {
        "start_time": Column(u["window_start"]),
        "duration": Column(u["duration"]),
        "collection_id": Column(u["collection_id"]),
        "instance_index": Column(u["instance_index"]),
        "machine_id": Column(u["machine_id"]),
        "tier": Column(_TIER_NAMES[u["tier_code"]]),
        "vertical_scaling": Column(_AUTOPILOT_NAMES[u["autopilot_code"]]),
        "in_alloc": Column(u["in_alloc"]),
        "avg_cpu": Column(u["avg_cpu"]),
        "max_cpu": Column(u["max_cpu"]),
        "avg_mem": Column(u["avg_mem"]),
        "max_mem": Column(u["max_mem"]),
        "limit_cpu": Column(u["cpu_limit"]),
        "limit_mem": Column(u["mem_limit"]),
    })


def _machine_events_table(result: CellResult) -> Table:
    events = result.events.machine_events
    return _build("machine_events", {
        "time": [e.time for e in events],
        "machine_id": [e.machine_id for e in events],
        "type": [e.event for e in events],
        "cpu_capacity": [e.cpu_capacity for e in events],
        "mem_capacity": [e.mem_capacity for e in events],
    })


def _machine_attributes_table(result: CellResult) -> Table:
    machines = result.machines
    return _build("machine_attributes", {
        "machine_id": [m.machine_id for m in machines],
        "cpu_capacity": [m.capacity.cpu for m in machines],
        "mem_capacity": [m.capacity.mem for m in machines],
        "platform": [m.platform for m in machines],
        "utc_offset_hours": [m.utc_offset_hours for m in machines],
    })


def encode_cell(result: CellResult) -> TraceDataset:
    """Build the five trace tables from one cell's simulation result.

    The empty-trace case (a cell that ran no work) still yields tables
    with the full schema, so downstream queries never special-case it.
    """
    capacity = result.capacity
    tables = {
        "collection_events": _collection_events_table(result),
        "instance_events": _instance_events_table(result),
        "instance_usage": _instance_usage_table(result),
        "machine_events": _machine_events_table(result),
        "machine_attributes": _machine_attributes_table(result),
    }
    return TraceDataset(
        cell=result.config.name,
        era=result.config.era,
        horizon=result.config.horizon,
        sample_period=result.config.sample_period,
        utc_offset_hours=result.config.utc_offset_hours,
        capacity_cpu=capacity.cpu,
        capacity_mem=capacity.mem,
        tables=tables,
    )
