"""Differential test: every sort-and-segment reducer equals its oracle.

Hypothesis builds one or two small synthetic cells whose event tables
are dense with the cases the kernels must get right: equal timestamps
within one entity, event types that enter no lifecycle state, ENABLE
without SUBMIT, repeated SUBMITs, jobs that never SCHEDULE, SCHEDULE
rows for unknown collections, unknown machines, and zero-row tables.
Each reducer's result must equal, exactly, that of the per-row
reference in :mod:`tests.analysis_oracles`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    allocsets,
    batch_queue,
    common,
    constraints,
    sched_delay,
    tasks_per_job,
    terminations,
    transitions,
)
from repro.table import Table
from repro.trace.dataset import TraceDataset
from repro.trace.schema import TABLE_SCHEMAS
from tests import analysis_oracles as oracle

HORIZON = 4 * 3600.0
#: Every event type, the lifecycle ones weighted so that most cells hold
#: several submitted jobs (collection events) that started (instance
#: events).
_OTHER_TYPES = ("QUEUE", "ENABLE", "EVICT", "FAIL", "FINISH", "KILL",
                "UPDATE_RUNNING",
                # not lifecycle states: figure 7 skips them
                "UPDATE_PENDING", "LOST")
CE_TYPES = ("SUBMIT",) * 6 + ("QUEUE", "ENABLE", "SCHEDULE") + _OTHER_TYPES
IE_TYPES = ("SCHEDULE",) * 6 + ("SUBMIT",) * 2 + _OTHER_TYPES
TIERS = ("free", "beb", "mid", "prod", "monitoring", "other")

_DTYPES = {"float": np.float64, "int": np.int64, "bool": bool, "str": object}
_DEFAULTS = {"float": 0.0, "int": 0, "bool": False, "str": ""}

#: Coarse half-hour times up to the horizon: ties within an entity are
#: common, and they straddle figure 10's one-hour warm-up cutoff.
times = st.sampled_from([k * 1800.0 for k in range(9)])
#: ``sampled_from`` draws evenly, where ``integers`` favours its bounds.
ce_ids = st.sampled_from(range(4))

ce_row = st.tuples(times, ce_ids, st.sampled_from(CE_TYPES),
                   st.sampled_from(("job", "job", "alloc_set")),
                   st.sampled_from(TIERS), st.integers(-1, 2),
                   st.integers(-1, 2), st.sampled_from(("", "P1", "P2")),
                   st.integers(1, 5))
CE_COLUMNS = ("time", "collection_id", "type", "collection_type", "tier",
              "parent_collection_id", "alloc_collection_id", "constraint",
              "num_instances")

# Collection ids 4 and 5 never appear in collection_events.
ie_row = st.tuples(times, st.sampled_from(range(6)), st.integers(0, 2),
                   st.sampled_from(IE_TYPES), st.integers(0, 4))
IE_COLUMNS = ("time", "collection_id", "instance_index", "type", "machine_id")

fraction = st.floats(0.0, 1.0)
iu_row = st.tuples(st.floats(0.0, HORIZON - 1.0), st.floats(0.0, 3600.0),
                   st.integers(0, 5), st.sampled_from(TIERS), st.booleans(),
                   fraction, fraction, fraction, fraction)
IU_COLUMNS = ("start_time", "duration", "collection_id", "tier", "in_alloc",
              "avg_cpu", "avg_mem", "limit_cpu", "limit_mem")

# Machines 3 and 4 have no attributes row; a repeated id takes its last row.
attr_row = st.tuples(st.integers(0, 2), st.sampled_from(("P1", "P2", "P3")))
ATTR_COLUMNS = ("machine_id", "platform")



def _rows(row, max_size: int):
    """No rows at all (one time in four), or enough that ids and times
    repeat."""
    return st.integers(0, 3).flatmap(
        lambda k: st.lists(row, min_size=8, max_size=max_size) if k
        else st.just([]))


cell = st.tuples(_rows(ce_row, 40), _rows(ie_row, 60), _rows(iu_row, 20),
                 st.lists(attr_row, max_size=4))


def _table(name, names, rows) -> Table:
    """A ``name`` table from row tuples over ``names``; other columns
    take a constant of their kind."""
    given_columns = dict(zip(names, zip(*rows))) if rows else {}
    return Table({
        col: np.array(given_columns.get(col, [_DEFAULTS[kind]] * len(rows)),
                      dtype=_DTYPES[kind])
        for col, kind in TABLE_SCHEMAS[name]})


def _dataset(index, ce, ie, iu, attrs) -> TraceDataset:
    return TraceDataset(
        cell=f"c{index}", era="2019", horizon=HORIZON, sample_period=300.0,
        utc_offset_hours=0.0, capacity_cpu=3.0, capacity_mem=2.0,
        tables={"collection_events": _table("collection_events", CE_COLUMNS, ce),
                "instance_events": _table("instance_events", IE_COLUMNS, ie),
                "instance_usage": _table("instance_usage", IU_COLUMNS, iu),
                "machine_attributes": _table("machine_attributes",
                                             ATTR_COLUMNS, attrs)})


def _assert_arrays_equal(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def _assert_series_equal(got, want):
    assert list(got) == list(want)
    for key in want:
        _assert_arrays_equal(got[key], want[key])


#: One hand-built cell holding every listed case at once.
_EDGE_CELL = (
    [(0.0, 1, "ENABLE", "job", "prod", -1, -1, "", 1),       # no SUBMIT
     (3600.0, 2, "SUBMIT", "job", "beb", 0, -1, "P1", 3),
     (3600.0, 2, "QUEUE", "job", "beb", 0, -1, "P1", 3),     # tied time
     (5400.0, 2, "SUBMIT", "job", "monitoring", -1, 1, "", 2),  # second SUBMIT
     (5400.0, 2, "ENABLE", "job", "monitoring", -1, 1, "", 2),
     (7200.0, 2, "UPDATE_PENDING", "job", "beb", 0, -1, "", 3),
     (7200.0, 3, "SUBMIT", "job", "mid", -1, -1, "P2", 4),   # never runs
     (9000.0, 2, "KILL", "job", "beb", 0, -1, "", 3)],
    [(5400.0, 2, 0, "SUBMIT", 0), (5400.0, 2, 0, "SCHEDULE", 1),
     (5400.0, 2, 0, "LOST", 1), (9000.0, 2, 0, "EVICT", 1),
     (9000.0, 5, 0, "SCHEDULE", 2)],                          # unknown id
    [(4000.0, 600.0, 2, "monitoring", False, 0.5, 0.25, 1.0, 0.5)],
    [(1, "P1"), (1, "P2")],
)


@settings(max_examples=150, deadline=None)
@given(cells=st.lists(cell, min_size=1, max_size=2))
@example(cells=[_EDGE_CELL])
@example(cells=[([], [], [], [])])
def test_reducers_match_their_oracles(cells):
    traces = [_dataset(i, *c) for i, c in enumerate(cells)]
    for trace in traces:
        assert (transitions.collection_transitions(trace)
                == oracle.collection_transitions(trace))
        assert (transitions.instance_transitions(trace)
                == oracle.instance_transitions(trace))
        got = sched_delay.scheduling_delays(trace)
        want = oracle.scheduling_delays(trace)
        assert got.to_dict() == want.to_dict()
        assert [got.column(c).kind for c in got.column_names] == \
            ["int", "str", "float"]
        _assert_series_equal(tasks_per_job.tasks_per_job(trace),
                             oracle.tasks_per_job(trace))
        _assert_arrays_equal(batch_queue.queue_waits(trace),
                             oracle.queue_waits(trace))
        _assert_arrays_equal(batch_queue.queue_depth_series(trace),
                             oracle.queue_depth_series(trace))
        assert common.alloc_set_ids(trace).tolist() == \
            sorted(oracle.alloc_set_ids(trace))
        assert (common.collection_metadata(trace).to_dict()
                == oracle.collection_metadata(trace).to_dict())
        for resource in ("cpu", "mem"):
            for quantity in ("usage", "allocation"):
                _assert_series_equal(
                    common.hourly_tier_series(trace, resource, quantity),
                    oracle.hourly_tier_series(trace, resource, quantity))
    assert (constraints.constraint_report(traces)
            == oracle.constraint_report(traces))
    assert (terminations.termination_report(traces)
            == oracle.termination_report(traces))
    assert allocsets.alloc_set_report(traces) == oracle.alloc_set_report(traces)
