"""Row-by-row reference for the instance-event encoder.

:func:`repro.trace.encode_cell` builds the ``instance_events`` table from
the event log's columns: a repeat expands each crash-loop record, and
the per-instance fields are gathers by log id.  The function here is the
straightforward spelling it must match column for column, values and
dtypes: one trace row per :class:`~repro.sim.events.InstanceEvent` tuple
that the log's row accessor yields, each field read off the tuple.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.sim.events import InstanceEvent
from repro.table import Column, Table
from repro.trace.schema import TABLE_SCHEMAS, empty_table

_DTYPES = {"float": np.float64, "int": np.int64, "bool": bool, "str": object}

#: Trace column -> the value it takes from one row tuple.
_FIELDS = {
    "time": lambda e: e.time,
    "collection_id": lambda e: e.collection_id,
    "instance_index": lambda e: e.instance_index,
    "type": lambda e: e.event.value,
    "machine_id": lambda e: e.machine_id,
    "priority": lambda e: e.priority,
    "tier": lambda e: e.tier,
    "resource_request_cpu": lambda e: e.cpu_request,
    "resource_request_mem": lambda e: e.mem_request,
    "is_new": lambda e: e.is_new,
}


def instance_events_table(events: Iterable[InstanceEvent]) -> Table:
    """The ``instance_events`` trace table of ``events``, row by row."""
    schema = TABLE_SCHEMAS["instance_events"]
    values = {name: [] for name, _ in schema}
    for event in events:
        for name, _ in schema:
            values[name].append(_FIELDS[name](event))
    if not values["time"]:
        return empty_table("instance_events")
    return Table({name: Column(np.array(values[name], dtype=_DTYPES[kind]))
                  for name, kind in schema})
