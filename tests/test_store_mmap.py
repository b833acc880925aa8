"""The zero-copy mmap read path: byte-equality with the buffered path,
read-only view semantics, default plumbing, and the worker-pool path.

The contract under test: ``use_mmap=True`` changes *how* bytes reach
numpy (read-only views over a shared map instead of copied buffers) and
nothing else — every decoded value, scan result and aggregate is
byte-identical to the buffered reader.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.common import job_usage_integrals, job_usage_integrals_store
from repro.analysis.sched_delay import scheduling_delays
from repro.store import (
    Agg,
    Compare,
    open_store,
    read_chunk,
    write_chunk,
    write_store,
)
from repro.store.format import get_default_mmap, set_default_mmap
from repro.table import Table, concat
from repro.trace import load_trace
from repro.trace.dataset import SCHEMA_2019, TraceDataset
from repro.util.errors import SchemaError

from tests.test_store import _STRING_CASES, _all_kinds_table, _dataset


@pytest.fixture()
def chunk_path(tmp_path):
    table = Table({
        "f": np.array([1.5, float("inf"), float("nan"), -0.0]),
        "i": np.array([1, -2, 2**62, 0]),
        "b": np.array([True, False, True, True]),
        "s": np.array(["", "héllo", "x" * 100, "tab\tsep"], dtype=object),
    })
    path = tmp_path / "chunk.rsc"
    write_chunk(table, path)
    return path, table


def assert_tables_byte_equal(a: Table, b: Table) -> None:
    assert a.column_names == b.column_names
    for name in a.column_names:
        ca, cb = a.column(name).values, b.column(name).values
        assert ca.dtype == cb.dtype
        if ca.dtype == object:
            assert ca.tolist() == cb.tolist()
        else:
            assert ca.tobytes() == cb.tobytes()


class TestMappedChunkReads:
    def test_byte_equal_to_buffered(self, chunk_path, tmp_path):
        cases = [chunk_path]
        for i, strings in enumerate(_STRING_CASES.values()):
            table, path = _all_kinds_table(strings), tmp_path / f"case{i}.rsc"
            write_chunk(table, path)
            cases.append((path, table))
        for path, original in cases:
            buffered = read_chunk(path, use_mmap=False)
            mapped = read_chunk(path, use_mmap=True)
            assert_tables_byte_equal(buffered, mapped)
            assert_tables_byte_equal(original, mapped)
            for table in (buffered, mapped):
                assert all(type(v) is str for v in table.column("s"))

    def test_projection_byte_equal(self, chunk_path):
        path, _ = chunk_path
        buffered = read_chunk(path, columns=["s", "f"], use_mmap=False)
        mapped = read_chunk(path, columns=["s", "f"], use_mmap=True)
        assert mapped.column_names == ["s", "f"]
        assert_tables_byte_equal(buffered, mapped)

    def test_numeric_views_are_readonly_zero_copy(self, chunk_path):
        path, _ = chunk_path
        mapped = read_chunk(path, use_mmap=True)
        for name in ("f", "i"):
            values = mapped.column(name).values
            assert not values.flags.writeable
            assert not values.flags.owndata  # a view over the map
            with pytest.raises((ValueError, RuntimeError)):
                values[0] = 0
        # The buffered path is read-only too (frombuffer over immutable
        # bytes) but each payload was copied out of the file; the mmap
        # path's distinguishing property is the borrowed buffer above.
        assert not read_chunk(path, use_mmap=False).column("f").values.flags.writeable

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.rsc"
        path.write_bytes(b"NOTASTORECHUNK--" * 4)
        with pytest.raises(SchemaError, match="bad magic"):
            read_chunk(path, use_mmap=True)

    def test_unknown_projection_column(self, chunk_path):
        path, _ = chunk_path
        with pytest.raises(SchemaError, match="no column"):
            read_chunk(path, columns=["nope"], use_mmap=True)

    def test_module_default_round_trip(self, chunk_path):
        path, _ = chunk_path
        before = get_default_mmap()
        try:
            set_default_mmap(True)
            assert get_default_mmap()
            values = read_chunk(path).column("f").values
            assert not values.flags.writeable  # default routed to mmap
        finally:
            set_default_mmap(before)
        assert get_default_mmap() == before


class TestMappedStoreReads:
    @pytest.fixture()
    def store_pair(self, tmp_path):
        ds = _dataset(usage_rows=1000)
        write_store(ds, tmp_path / "s", chunk_rows=128)
        return (open_store(tmp_path / "s", use_mmap=False),
                open_store(tmp_path / "s", use_mmap=True))

    def test_scan_results_byte_equal(self, store_pair):
        buffered, mapped = store_pair
        pred = Compare("avg_cpu", ">", 0.5)
        a = buffered.scan("instance_usage").where(pred).to_table()
        b = mapped.scan("instance_usage").where(pred).to_table()
        assert_tables_byte_equal(a, b)

    def test_aggregates_byte_equal_serial_and_workers(self, store_pair):
        buffered, mapped = store_pair
        def agg(store, workers=None):
            return (store.scan("instance_usage")
                    .aggregate(Agg("sum", "avg_cpu"), Agg("count"),
                               workers=workers))
        expected = agg(buffered)
        assert agg(mapped) == expected
        # Worker processes each map the chunk themselves (the task
        # tuple carries the store's mmap flag across the fork).
        assert agg(mapped, workers=2) == expected

    def test_load_trace_use_mmap(self, tmp_path):
        from repro.trace import save_trace
        ds = _dataset(usage_rows=500)
        save_trace(ds, tmp_path / "t", format="store")
        eager = load_trace(tmp_path / "t", use_mmap=False)
        lazy = load_trace(tmp_path / "t", use_mmap=True)
        assert_tables_byte_equal(eager.tables["instance_usage"],
                                 lazy.tables["instance_usage"])

    def test_store_resolves_default_at_open_time(self, tmp_path):
        ds = _dataset(usage_rows=200)
        write_store(ds, tmp_path / "s", chunk_rows=64)
        before = get_default_mmap()
        try:
            set_default_mmap(True)
            store = open_store(tmp_path / "s")
            assert store.use_mmap
            # Flipping the default later must not change an open store,
            # and its reads stay byte-identical to a buffered store.
            set_default_mmap(False)
            assert store.use_mmap
            assert not open_store(tmp_path / "s").use_mmap
            assert_tables_byte_equal(
                store.scan("instance_usage").to_table(),
                open_store(tmp_path / "s", use_mmap=False)
                .scan("instance_usage").to_table())
        finally:
            set_default_mmap(before)


EMPTY_TABLES = {name: Table({c: [] for c in cols})
                for name, cols in SCHEMA_2019.items()}


def test_empty_tables_map_cleanly(tmp_path):
    ds = TraceDataset(cell="t", era="2019", horizon=10.0, sample_period=1.0,
                      utc_offset_hours=0.0, capacity_cpu=1.0,
                      capacity_mem=1.0, tables=dict(EMPTY_TABLES))
    write_store(ds, tmp_path / "s", chunk_rows=16)
    store = open_store(tmp_path / "s", use_mmap=True)
    assert len(store.scan("instance_events").to_table()) == 0
    # Empty reducer results carry their declared kinds, so stacking one
    # onto a non-empty result keeps collection ids integral.
    integral_kinds = ["int", "str", "bool", "str", "float", "float"]
    for empty in (job_usage_integrals(ds), job_usage_integrals_store(store)):
        assert len(empty) == 0
        assert [empty.column(c).kind for c in empty.column_names] == integral_kinds
    delays = scheduling_delays(ds)
    assert len(delays) == 0
    one = Table({"collection_id": [1], "tier": ["prod"], "delay": [0.5]})
    stacked = concat([delays, one])
    assert [stacked.column(c).kind for c in stacked.column_names] == \
        ["int", "str", "float"]
