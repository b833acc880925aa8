"""The columnar instance-event log and its encoding.

The simulator logs an instance event as four column entries and a
crash-loop fire as one record; ``encode_cell`` expands and gathers them
into the ``instance_events`` table, and ``EventLog.instance_events``
reads them back as :class:`InstanceEvent` rows.  These tests pin the
expansion, the row accessor, and the encoder against a row-by-row
reference (:mod:`tests.event_log_oracles`).
"""

import numpy as np
import pytest

from repro.sim import CellConfig, CellSim, Machine, Resources, Tier
from repro.sim.entities import Collection, CollectionType, Instance
from repro.sim.events import (
    EVICT_CODE,
    SCHEDULE_NEW,
    EventLog,
    EventType,
    event_code,
)
from repro.trace import encode_cell
from repro.trace.schema import TABLE_SCHEMAS
from repro.util.rng import RngFactory
from tests.event_log_oracles import instance_events_table

SUBMIT, SCHEDULE, FAIL = EventType.SUBMIT, EventType.SCHEDULE, EventType.FAIL


def _instances(n):
    collection = Collection(
        collection_id=7, collection_type=CollectionType.JOB, priority=200,
        tier=Tier.PROD, user="u", submit_time=0.0)
    for index in range(n):
        collection.instances.append(Instance(
            collection=collection, index=index,
            request=Resources(0.25 + index, 0.5 + index)))
    return collection.instances


def _hand_built_log():
    a, b = _instances(2)
    log = EventLog()
    log.submit(0.0, a)
    log.submit(0.0, b)
    log.instance(1.0, a, SCHEDULE_NEW, 3)
    log.instance(1.5, b, SCHEDULE_NEW, 4)
    log.crash_loop(2.0, a, 3)
    log.instance(2.5, b, EVICT_CODE, 4)
    # A second fire: its triple lands two rows further on.
    log.crash_loop(3.0, b, 5)
    log.instance(4.0, a, event_code(EventType.FINISH), 3)
    return log


def _assert_tables_equal(got, want):
    assert got.column_names == want.column_names
    assert len(got) == len(want)
    for name in want.column_names:
        g, w = got[name].values, want[name].values
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)


def _crash_loop_triples(rows):
    """Positions where a FAIL(m), SUBMIT(-1), SCHEDULE(m) triple starts."""
    return [i for i in range(len(rows) - 2)
            if (rows[i].event, rows[i + 1].event, rows[i + 2].event)
            == (FAIL, SUBMIT, SCHEDULE)
            and rows[i].time == rows[i + 1].time == rows[i + 2].time
            and rows[i].machine_id == rows[i + 2].machine_id >= 0
            and rows[i + 1].machine_id == -1]


class TestCrashLoopRecord:
    def test_expands_in_place_between_neighbours(self):
        rows = list(_hand_built_log().instance_events)
        assert [(e.time, e.instance_index, e.event, e.machine_id, e.is_new)
                for e in rows] == [
            (0.0, 0, SUBMIT, -1, True),
            (0.0, 1, SUBMIT, -1, True),
            (1.0, 0, SCHEDULE, 3, True),
            (1.5, 1, SCHEDULE, 4, True),
            (2.0, 0, FAIL, 3, False),
            (2.0, 0, SUBMIT, -1, False),
            (2.0, 0, SCHEDULE, 3, False),
            (2.5, 1, EventType.EVICT, 4, False),
            (3.0, 1, FAIL, 5, False),
            (3.0, 1, SUBMIT, -1, False),
            (3.0, 1, SCHEDULE, 5, False),
            (4.0, 0, EventType.FINISH, 3, False),
        ]

    def test_rows_carry_the_instance_fields(self):
        rows = list(_hand_built_log().instance_events)
        for e in rows:
            assert (e.collection_id, e.priority, e.tier) == (7, 200, "prod")
            assert (e.cpu_request, e.mem_request) == (
                0.25 + e.instance_index, 0.5 + e.instance_index)

    def test_accessor_indexes_like_a_list(self):
        view = _hand_built_log().instance_events
        rows = list(view)
        assert len(view) == len(rows) == 12
        assert view[4] == rows[4] and view[-1] == rows[-1]
        assert view[8:11] == rows[8:11]
        with pytest.raises(IndexError):
            view[12]


class TestEncode:
    def test_empty_log_encodes_to_typed_empty_table(self):
        config = CellConfig(name="empty", era="2019", horizon=3600.0)
        result = CellSim(config, [Machine(0, Resources(1.0, 1.0))], [],
                         RngFactory(0)).run()
        assert len(result.events.instance_events) == 0
        table = encode_cell(result).instance_events
        assert len(table) == 0
        schema = TABLE_SCHEMAS["instance_events"]
        assert table.column_names == [name for name, _ in schema]
        assert [table[name].kind for name, _ in schema] == [
            kind for _, kind in schema]
        _assert_tables_equal(table, instance_events_table([]))

    @pytest.mark.parametrize("cell", ["2019", "2019_faulty"])
    def test_len_is_the_encoded_row_count(self, request, cell):
        result = request.getfixturevalue(f"result_{cell}")
        trace = request.getfixturevalue(f"trace_{cell}")
        assert len(result.events.instance_events) == len(trace.instance_events)

    @pytest.mark.parametrize("cell", ["2019", "2019_faulty"])
    def test_matches_row_by_row_reference(self, request, cell):
        result = request.getfixturevalue(f"result_{cell}")
        trace = request.getfixturevalue(f"trace_{cell}")
        rows = list(result.events.instance_events)
        assert _crash_loop_triples(rows), "cell logs no crash-loop fire"
        _assert_tables_equal(trace.instance_events, instance_events_table(rows))
