"""Tests for repro.store: chunk format, manifest statistics, predicate
pushdown, the parallel executor, the chunk cache, and end-to-end
integration with the trace layer and the store-aware analysis reducers."""

import hashlib
import io
import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.common import (
    alloc_set_ids,
    alloc_set_ids_store,
    hourly_tier_series,
    hourly_tier_series_store,
    job_usage_integrals,
    job_usage_integrals_store,
)
from repro.analysis.sched_delay import scheduling_delays
from repro.store import (
    Agg,
    And,
    Between,
    ChunkCache,
    Compare,
    IsIn,
    Manifest,
    Or,
    chunk_stats,
    merge_partials,
    open_store,
    partial_aggregate,
    read_chunk,
    read_chunk_header,
    write_chunk,
    write_store,
)
from repro.store.format import MAGIC
from repro.table import Table, concat
from repro.trace import load_trace, save_trace
from repro.trace.dataset import SCHEMA_2019, TraceDataset
from repro.util.errors import SchemaError


def _dataset(usage_rows=2000, chunk_seed=0):
    """A synthetic five-table dataset with a time-sorted usage table."""
    rng = np.random.default_rng(chunk_seed)
    n = usage_rows
    tables = {name: Table({c: [] for c in cols})
              for name, cols in SCHEMA_2019.items()}
    tables["instance_usage"] = Table({
        "start_time": np.sort(rng.uniform(0, 48 * 3600, n)),
        "duration": np.full(n, 300.0),
        "collection_id": rng.integers(1, 200, n),
        "instance_index": rng.integers(0, 8, n),
        "machine_id": rng.integers(0, 64, n),
        "tier": np.asarray(rng.choice(["prod", "beb", "mid", "free"], n),
                           dtype=object),
        "vertical_scaling": np.asarray(["none"] * n, dtype=object),
        "in_alloc": rng.integers(0, 2, n).astype(bool),
        "avg_cpu": rng.uniform(0, 1, n),
        "max_cpu": rng.uniform(0, 1, n),
        "avg_mem": rng.uniform(0, 1, n),
        "max_mem": rng.uniform(0, 1, n),
        "limit_cpu": rng.uniform(0, 2, n),
        "limit_mem": rng.uniform(0, 2, n),
    })
    return TraceDataset(cell="t", era="2019", horizon=48 * 3600.0,
                        sample_period=300.0, utc_offset_hours=0.0,
                        capacity_cpu=64.0, capacity_mem=64.0, tables=tables)


@pytest.fixture()
def store_dir(tmp_path):
    ds = _dataset()
    write_store(ds, tmp_path / "s", chunk_rows=128)
    return tmp_path / "s", ds


#: String payloads for the chunk round trips: embedded/trailing NULs,
#: all empty, zero rows, non-ASCII, and one 64 KiB value among 10k
#: one-char rows (the decode must not allocate rows x the longest value).
_STRING_CASES = {
    "mixed": ["", "héllo", "ユーザー", "a,b\nc", "True"],
    "nul": ["a\x00b", "tail\x00", "\x00", "\x00\x00", "a"],
    "all_empty": ["", "", "", ""],
    "zero_rows": [],
    "non_ascii": ["é", "ユーザー", "😀", "Ωmega", "naïve", "é"],
    "one_wide": ["x", "y"] * 5000 + ["w" * 65536] + ["z"],
}


def _all_kinds_table(strings):
    n = len(strings)
    return Table({
        "f": np.resize([1.5, float("inf"), float("-inf"), float("nan"), -0.0], n),
        "i": np.resize(np.array([0, -1, 2**62, -(2**62), 7], dtype=np.int64), n),
        "b": np.resize([True, False, True, True, False], n),
        "s": np.array(strings, dtype=object),
    })


class TestChunkFormat:
    def test_roundtrip_all_kinds(self):
        for strings in _STRING_CASES.values():
            table = _all_kinds_table(strings)
            buf = io.BytesIO()
            write_chunk(table, buf)
            buf.seek(0)
            tracemalloc.start()
            try:
                back = read_chunk(buf)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # Bounded by payload bytes plus rows, far below rows x the
            # longest value (655 MB for the 64 KiB case).
            assert peak < 4 * len(buf.getvalue()) + 256 * len(table) + 2**16
            assert back.column_names == table.column_names
            for name in table.column_names:
                assert back.column(name).kind == table.column(name).kind
                if name == "s":
                    assert back.column(name).to_list() == strings
                    assert all(type(v) is str for v in back.column(name))
                else:
                    np.testing.assert_array_equal(back.column(name).values,
                                                  table.column(name).values)

    def test_chunk_bytes_are_pinned(self):
        # The RSTORE1 layout must not drift: same table, same bytes.
        table = Table({
            "f": [1.5, float("inf"), float("-inf"), float("nan"), -0.0],
            "i": [0, -1, 2**62, -(2**62), 7],
            "b": [True, False, True, True, False],
            "s": ["prod", "", "héllo\x00", "ユーザー", "beb"],
        })
        buf = io.BytesIO()
        assert write_chunk(table, buf) == 350
        assert hashlib.sha256(buf.getvalue()).hexdigest() == (
            "247870e21cac50a6681e91a5da14f429dadde2eddc024f7aefbeb7414a8a3b3e")

    @pytest.mark.parametrize("from_file_object", [False, True])
    @pytest.mark.parametrize("corruption, match", [
        ("raise_offset", "corrupt string offsets"),
        ("cut_strings", "truncated"),
        ("cut_numbers", "truncated"),
        ("short_numbers", "rows need"),
        ("bad_utf8", "invalid UTF-8"),
        ("cut_length_prefix", "header is truncated"),
        ("short_header", "header is truncated"),
        ("huge_header_length", "exceeds"),
        ("header_not_json", "not JSON"),
        ("header_without_rows", "lacks an integer 'rows'"),
        ("header_without_columns", "lacks an integer 'rows'"),
        ("column_without_nbytes", "malformed column entry"),
    ])
    def test_corrupt_chunks_raise_schema_error(self, tmp_path, corruption,
                                               match, from_file_object):
        numbers_last = corruption in ("cut_numbers", "short_numbers")
        columns = {"s": ["prod", "beb", "mid"], "n": [1.0, 2.0, 3.0]}
        order = ["s", "n"] if numbers_last else ["n", "s"]
        path = tmp_path / "c.rsc"
        write_chunk(Table({name: columns[name] for name in order}), path)
        data = bytearray(path.read_bytes())
        last_at = len(data) - read_chunk_header(path)["columns"][-1]["nbytes"]

        def with_header(header: bytes) -> bytearray:
            return bytearray(MAGIC + len(header).to_bytes(8, "little")
                             + header)

        if corruption == "raise_offset":
            # offsets[1] 4 -> 10 once decoded as ['prodbebmid', '', 'mid']
            data[last_at + 8] = 10
        elif corruption in ("cut_strings", "cut_numbers"):
            # a lost tail once decoded 'mid' as '' / raised a bare ValueError
            del data[-3:]
        elif corruption == "short_numbers":
            # header and file agree, but 3 float rows need 24 bytes
            data = data.replace(b'"kind":"float","nbytes":24',
                                b'"kind":"float","nbytes":16')
            del data[-8:]
        elif corruption == "bad_utf8":
            data[-1] = 0xFF
        elif corruption == "cut_length_prefix":
            # cut inside the 8-byte length: once a bare struct.error
            del data[len(MAGIC) + 3:]
        elif corruption == "short_header":
            # declares 10**6 header bytes, holds 2: once KeyError 'rows'
            data = bytearray(MAGIC + (10**6).to_bytes(8, "little") + b"{}")
        elif corruption == "huge_header_length":
            # read() would try to allocate the declared 2^62 bytes
            data = bytearray(MAGIC + (2**62).to_bytes(8, "little") + b"{}")
        elif corruption == "header_not_json":
            data = with_header(b"\xffnot json")
        elif corruption == "header_without_rows":
            data = with_header(b'{"columns":[]}')
        elif corruption == "header_without_columns":
            data = with_header(b'{"rows":3}')
        else:
            # once a bare KeyError: 'nbytes'
            data = with_header(b'{"rows":1,"columns":[{"name":"n",'
                               b'"kind":"int"}]}') + bytes(8)
        path.write_bytes(bytes(data))

        def source():
            # read_chunk takes a path or an already open binary file.
            return io.BytesIO(bytes(data)) if from_file_object else path

        with pytest.raises(SchemaError, match=match):
            read_chunk(source())
        if corruption.startswith(("cut_length", "short_header", "huge",
                                  "header", "column")):
            with pytest.raises(SchemaError, match=match):
                read_chunk_header(source())

    def test_numeric_columns_are_readonly_views(self, tmp_path):
        path = tmp_path / "c.rsc"
        write_chunk(Table({"f": [1.5, -0.0], "i": [1, 2**62]}), path)
        back = read_chunk(path)
        for name in ("f", "i"):
            values = back.column(name).values
            assert not values.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                values[0] = 0

    def test_projection_skips_columns(self, tmp_path):
        table = Table({"a": [1, 2], "b": ["x", "y"], "c": [0.5, 1.5]})
        path = tmp_path / "c.rsc"
        write_chunk(table, path)
        got = read_chunk(path, columns=["c", "a"])
        assert got.column_names == ["c", "a"]
        np.testing.assert_array_equal(got.column("a").values, [1, 2])

    def test_unknown_projection_column(self, tmp_path):
        path = tmp_path / "c.rsc"
        write_chunk(Table({"a": [1]}), path)
        with pytest.raises(SchemaError, match="no column"):
            read_chunk(path, columns=["nope"])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.rsc"
        path.write_bytes(b"definitely not a chunk")
        with pytest.raises(SchemaError, match="magic"):
            read_chunk(path)

    def test_header_has_layout(self, tmp_path):
        path = tmp_path / "c.rsc"
        write_chunk(Table({"a": [1, 2, 3]}), path)
        header = read_chunk_header(path)
        assert header["rows"] == 3
        assert header["columns"][0]["kind"] == "int"


class TestChunkStats:
    def test_min_max_per_kind(self):
        stats = chunk_stats(Table({
            "i": [3, -1, 7], "f": [0.5, 2.5, 1.0], "s": ["b", "a", "c"],
            "flag": [True, False, True],
        }))
        assert stats["i"] == {"min": -1, "max": 7}
        assert stats["f"] == {"min": 0.5, "max": 2.5}
        assert stats["s"] == {"min": "a", "max": "c"}
        assert "flag" not in stats  # booleans carry no pruning power

    def test_nan_aware_bounds(self):
        stats = chunk_stats(Table({"f": [float("nan"), 1.0, 3.0]}))
        assert stats["f"] == {"min": 1.0, "max": 3.0}

    def test_all_nan_column_has_no_stats(self):
        stats = chunk_stats(Table({"f": [float("nan")], "i": [1]}))
        assert "f" not in stats and "i" in stats

    def test_empty_table(self):
        assert chunk_stats(Table({"a": []})) == {}


class TestPredicates:
    STATS = {"x": {"min": 10, "max": 20}, "s": {"min": "b", "max": "d"}}

    @pytest.mark.parametrize("pred,expected", [
        (Compare("x", "==", 15), True),
        (Compare("x", "==", 25), False),
        (Compare("x", "<", 10), False),
        (Compare("x", "<", 11), True),
        (Compare("x", "<=", 10), True),
        (Compare("x", ">", 20), False),
        (Compare("x", ">=", 20), True),
        (Compare("x", "!=", 15), True),
        (Between("x", 21, 30), False),
        (Between("x", 0, 9), False),
        (Between("x", 18, 30), True),
        (IsIn("x", [1, 2, 3]), False),
        (IsIn("x", [1, 12]), True),
        (Compare("s", "==", "c"), True),
        (Compare("s", "==", "zzz"), False),
        (Compare("unknown", "==", 5), True),  # no stats -> cannot prune
    ])
    def test_maybe_matches(self, pred, expected):
        assert pred.maybe_matches(self.STATS) is expected

    def test_ne_prunes_constant_chunk(self):
        assert Compare("x", "!=", 5).maybe_matches({"x": {"min": 5, "max": 5}}) is False

    def test_and_or_combinators(self):
        yes = Compare("x", "==", 15)
        no = Compare("x", "==", 99)
        assert (yes & no).maybe_matches(self.STATS) is False
        assert (yes | no).maybe_matches(self.STATS) is True
        assert And(yes, yes).maybe_matches(self.STATS) is True
        assert Or(no, no).maybe_matches(self.STATS) is False

    def test_type_confusion_never_prunes(self):
        assert Compare("s", "<", 5).maybe_matches(self.STATS) is True

    def test_masks_match_numpy(self):
        table = Table({"x": [1, 5, 10, 5], "s": ["a", "b", "c", "a"]})
        np.testing.assert_array_equal(
            Compare("x", ">=", 5).mask(table), [False, True, True, True])
        np.testing.assert_array_equal(
            Between("x", 2, 9).mask(table), [False, True, False, True])
        np.testing.assert_array_equal(
            IsIn("s", ["a"]).mask(table), [True, False, False, True])
        np.testing.assert_array_equal(
            (Compare("x", "==", 5) & IsIn("s", ["b"])).mask(table),
            [False, True, False, False])
        np.testing.assert_array_equal(
            (Compare("x", "==", 1) | Compare("x", "==", 10)).mask(table),
            [True, False, True, False])

    def test_predicates_are_picklable(self):
        pred = (Between("t", 0, 10) & Compare("tier", "==", "prod")) | IsIn("p", [1, 2])
        clone = pickle.loads(pickle.dumps(pred))
        table = Table({"t": [5.0], "tier": ["prod"], "p": [9]})
        np.testing.assert_array_equal(clone.mask(table), pred.mask(table))

    def test_unknown_operator(self):
        with pytest.raises(ValueError, match="unknown operator"):
            Compare("x", "~=", 1)


class TestWriterReader:
    def test_exact_roundtrip_without_clustering(self, tmp_path):
        ds = _dataset(usage_rows=300)
        write_store(ds, tmp_path / "s", chunk_rows=64, cluster_by=None)
        store = open_store(tmp_path / "s")
        for name, table in ds.tables.items():
            back = store.read_table(name)
            assert back.column_names == table.column_names
            for c in table.column_names:
                assert back.column(c).kind == table.column(c).kind
                if back.column(c).kind == "str":
                    assert back.column(c).values.tolist() == table.column(c).values.tolist()
                else:
                    np.testing.assert_array_equal(back.column(c).values,
                                                  table.column(c).values)

    def test_default_clustering_sorts_by_time(self, tmp_path):
        ds = _dataset(usage_rows=300)
        # Shuffle usage rows, then check the store comes back time-sorted.
        shuffled = ds.instance_usage.take(
            np.random.default_rng(1).permutation(300))
        ds.tables["instance_usage"] = shuffled
        write_store(ds, tmp_path / "s", chunk_rows=64)
        back = open_store(tmp_path / "s").read_table("instance_usage")
        times = back.column("start_time").values
        assert (np.diff(times) >= 0).all()
        assert sorted(back.column("avg_cpu").values.tolist()) == \
            sorted(shuffled.column("avg_cpu").values.tolist())

    def test_empty_tables_have_no_chunks_but_keep_schema(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        assert store.manifest.chunks("machine_events") == []
        table = store.read_table("machine_events")
        assert len(table) == 0
        assert table.column_names == SCHEMA_2019["machine_events"]

    def test_crash_mid_write_leaves_no_store(self, tmp_path, monkeypatch):
        ds = _dataset(usage_rows=100)
        calls = {"n": 0}
        import repro.store.writer as writer_mod

        real = writer_mod.write_chunk

        def exploding(table, dest):
            calls["n"] += 1
            if calls["n"] > 1:
                raise OSError("disk full")
            return real(table, dest)

        monkeypatch.setattr(writer_mod, "write_chunk", exploding)
        with pytest.raises(OSError):
            write_store(ds, tmp_path / "s", chunk_rows=16)
        assert not (tmp_path / "s").exists()
        assert list(tmp_path.iterdir()) == []  # no temp litter either

    def test_crash_preserves_previous_store(self, tmp_path, monkeypatch):
        write_store(_dataset(usage_rows=50), tmp_path / "s", chunk_rows=32)
        import repro.store.writer as writer_mod

        def exploding(table, dest):
            raise OSError("disk full")

        monkeypatch.setattr(writer_mod, "write_chunk", exploding)
        with pytest.raises(OSError):
            write_store(_dataset(usage_rows=80), tmp_path / "s", chunk_rows=32)
        # The original store is still complete and loadable.
        assert open_store(tmp_path / "s").rows("instance_usage") == 50

    def test_bad_chunk_rows(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_rows"):
            write_store(_dataset(10), tmp_path / "s", chunk_rows=0)

    def test_manifest_rejects_foreign_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"format": "parquet"}))
        with pytest.raises(SchemaError, match="manifest"):
            Manifest.load(tmp_path)

    def test_manifest_rejects_newer_version(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"format": "repro-store", "version": 99, "chunk_rows": 1,
             "meta": {}, "tables": {}}))
        with pytest.raises(SchemaError, match="version"):
            Manifest.load(tmp_path)


class TestScan:
    def test_time_window_skips_chunks(self, store_dir):
        """The acceptance criterion: a time-windowed aggregate decodes
        strictly fewer chunks than exist in the table."""
        path, ds = store_dir
        store = open_store(path)
        scan = (store.scan("instance_usage")
                     .where(Between("start_time", 0, 4 * 3600))
                     .select("avg_cpu"))
        result = scan.aggregate(Agg("sum", "avg_cpu"), Agg("count"))
        stats = scan.last_stats
        assert stats.chunks_total == len(store.manifest.chunks("instance_usage"))
        assert 0 < stats.chunks_decoded < stats.chunks_total
        assert stats.chunks_skipped == stats.chunks_total - stats.chunks_decoded
        assert stats.chunks_skipped > 0
        # And the pruned answer is the exact answer.
        mask = ds.instance_usage.column("start_time").values <= 4 * 3600
        expected = ds.instance_usage.column("avg_cpu").values[mask]
        assert result["count"] == int(mask.sum())
        assert result["sum(avg_cpu)"] == pytest.approx(expected.sum())

    def test_filtered_table_matches_in_memory(self, store_dir):
        path, ds = store_dir
        store = open_store(path)
        pred = Compare("tier", "==", "prod") & Between("start_time", 0, 10 * 3600)
        got = (store.scan("instance_usage").where(pred)
                    .select("start_time", "avg_cpu").to_table())
        iu = ds.instance_usage
        mask = (iu.column("tier").values == "prod") & \
            (iu.column("start_time").values <= 10 * 3600)
        assert len(got) == int(mask.sum())
        np.testing.assert_allclose(np.sort(got.column("avg_cpu").values),
                                   np.sort(iu.column("avg_cpu").values[mask]))

    def test_projection_narrows_decoding(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        scan = (store.scan("instance_usage")
                     .where(Compare("tier", "==", "prod"))
                     .select("avg_mem"))
        scan.to_table()
        decoded_keys = list(store.cache._entries)
        assert decoded_keys, "serial scans should populate the cache"
        for _, _, columns in decoded_keys:
            assert set(columns) == {"tier", "avg_mem"}

    def test_count_fast_path_decodes_nothing(self, store_dir):
        path, ds = store_dir
        store = open_store(path)
        scan = store.scan("instance_usage")
        assert scan.count() == len(ds.instance_usage)
        assert scan.last_stats.chunks_decoded == 0

    def test_unknown_table_and_column(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        with pytest.raises(SchemaError, match="no table"):
            store.scan("nope")
        with pytest.raises(SchemaError, match="no column"):
            store.scan("instance_usage").select("nope")

    def test_scan_composition_is_immutable(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        base = store.scan("instance_usage")
        narrowed = base.select("avg_cpu").where(Between("start_time", 0, 3600))
        assert base.predicate is None
        assert base.output_columns() != narrowed.output_columns()

    def test_empty_result_keeps_projection(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        got = (store.scan("instance_usage")
                    .where(Compare("start_time", ">", 1e12))
                    .select("avg_cpu", "tier").to_table())
        assert len(got) == 0
        assert got.column_names == ["avg_cpu", "tier"]
        assert got.column("tier").kind == "str"

    def test_map_reduce_payloads(self, store_dir):
        path, ds = store_dir
        store = open_store(path)
        scan = store.scan("instance_usage").select("avg_cpu")
        total = scan.map_reduce(_chunk_cpu_sum, _add)
        assert total == pytest.approx(ds.instance_usage.column("avg_cpu").values.sum())


def _chunk_cpu_sum(table):
    return float(table.column("avg_cpu").values.sum())


def _add(a, b):
    return a + b


class TestExecutor:
    EDGES = (0.0, 0.25, 0.5, 0.75, 1.0)

    def _aggs(self):
        return [Agg("count"), Agg("sum", "avg_cpu"), Agg("min", "avg_cpu"),
                Agg("max", "avg_cpu"), Agg("mean", "avg_cpu"),
                Agg("histogram", "avg_cpu", edges=self.EDGES)]

    def test_serial_parallel_and_ground_truth_agree(self, store_dir):
        path, ds = store_dir
        store = open_store(path)
        pred = Between("start_time", 2 * 3600, 20 * 3600)
        serial = store.scan("instance_usage").where(pred).aggregate(*self._aggs())
        parallel = store.scan("instance_usage").where(pred).aggregate(
            *self._aggs(), workers=3)
        iu = ds.instance_usage
        t = iu.column("start_time").values
        vals = iu.column("avg_cpu").values[(t >= 2 * 3600) & (t <= 20 * 3600)]
        for result in (serial, parallel):
            assert result["count"] == len(vals)
            assert result["sum(avg_cpu)"] == pytest.approx(vals.sum())
            assert result["min(avg_cpu)"] == pytest.approx(vals.min())
            assert result["max(avg_cpu)"] == pytest.approx(vals.max())
            assert result["mean(avg_cpu)"] == pytest.approx(vals.mean())
            np.testing.assert_array_equal(
                result["histogram(avg_cpu)"],
                np.histogram(np.clip(vals, 0, 1), bins=np.asarray(self.EDGES))[0])

    def test_histogram_partials_merge_by_addition(self):
        aggs = [Agg("histogram", "x", edges=[0, 1, 2])]
        p1 = partial_aggregate(Table({"x": [0.5, 1.5]}), aggs)
        p2 = partial_aggregate(Table({"x": [0.25, 0.75]}), aggs)
        merged = merge_partials([p1, p2], aggs)
        np.testing.assert_array_equal(merged["histogram(x)"], [3, 1])

    def test_empty_match_identities(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        result = (store.scan("instance_usage")
                       .where(Compare("start_time", ">", 1e12))
                       .aggregate(Agg("count"), Agg("sum", "avg_cpu"),
                                  Agg("min", "avg_cpu"), Agg("mean", "avg_cpu")))
        assert result["count"] == 0
        assert result["sum(avg_cpu)"] == 0.0
        assert result["min(avg_cpu)"] is None
        assert np.isnan(result["mean(avg_cpu)"])

    def test_numeric_aggregate_over_string_column_fails_cleanly(self):
        with pytest.raises(SchemaError, match="string column"):
            partial_aggregate(Table({"tier": ["prod", "beb"]}),
                              [Agg("sum", "tier")])

    def test_agg_validation(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            Agg("median", "x")
        with pytest.raises(ValueError, match="needs a column"):
            Agg("sum")
        with pytest.raises(ValueError, match="edges"):
            Agg("histogram", "x")

    def test_aggs_are_picklable(self):
        agg = Agg("histogram", "x", edges=[0, 1], alias="h")
        clone = pickle.loads(pickle.dumps(agg))
        assert clone.alias == "h" and clone.edges == (0, 1)


class TestChunkCache:
    def test_hit_miss_counters(self, store_dir):
        path, _ = store_dir
        store = open_store(path)
        scan = store.scan("instance_usage").select("avg_cpu")
        scan.to_table()
        first = store.cache.stats
        misses_after_cold = first.misses
        assert first.hits == 0 and misses_after_cold > 0
        scan.to_table()
        assert store.cache.stats.hits == misses_after_cold
        assert store.cache.stats.misses == misses_after_cold

    def test_lru_eviction(self):
        cache = ChunkCache(capacity=2)
        t = Table({"a": [1]})
        cache.put("k1", t)
        cache.put("k2", t)
        assert cache.get("k1") is t  # k1 now most-recent
        cache.put("k3", t)           # evicts k2
        assert cache.get("k2") is None
        assert cache.get("k1") is t
        assert cache.stats.evictions == 1

    def test_zero_capacity_never_stores(self):
        cache = ChunkCache(capacity=0)
        cache.put("k", Table({"a": [1]}))
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ChunkCache(capacity=-1)


class TestLazyDataset:
    def test_tables_decode_on_first_access(self, store_dir):
        path, ds = store_dir
        lazy = load_trace(path)
        assert lazy.loaded_tables == []
        assert len(lazy.instance_usage) == len(ds.instance_usage)
        assert lazy.loaded_tables == ["instance_usage"]
        assert "instance_usage" in repr(lazy)

    def test_metadata_round_trips(self, store_dir):
        path, ds = store_dir
        lazy = load_trace(path)
        assert lazy.cell == ds.cell
        assert lazy.era == ds.era
        assert lazy.horizon == ds.horizon
        assert lazy.capacity_cpu == ds.capacity_cpu

    def test_mapping_protocol(self, store_dir):
        path, _ = store_dir
        lazy = load_trace(path)
        assert set(lazy.tables) == set(SCHEMA_2019)
        assert len(lazy.tables) == len(SCHEMA_2019)

    def test_schema_mismatch_reports_all_tables(self, store_dir):
        path, _ = store_dir
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["tables"]["machine_events"]
        manifest["tables"]["machine_attributes"]["columns"] = [
            {"name": "bogus", "kind": "int"}]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as err:
            load_trace(path)
        message = str(err.value)
        assert "machine_events" in message
        assert "machine_attributes" in message


class TestTraceIoIntegration:
    def test_save_load_store_format(self, tmp_path):
        ds = _dataset(usage_rows=150)
        save_trace(ds, tmp_path / "t", format="store", chunk_rows=64)
        assert (tmp_path / "t" / "manifest.json").exists()
        back = load_trace(tmp_path / "t")
        np.testing.assert_allclose(
            np.sort(back.instance_usage.column("avg_cpu").values),
            np.sort(ds.instance_usage.column("avg_cpu").values))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            save_trace(_dataset(10), tmp_path / "t", format="parquet")
        with pytest.raises(ValueError, match="unknown trace format"):
            load_trace(tmp_path, format="parquet")

    def test_autodetect_neither_format(self, tmp_path):
        with pytest.raises(SchemaError, match="no trace"):
            load_trace(tmp_path)


class TestStoreAwareAnalysis:
    @pytest.fixture(scope="class")
    def stored_trace(self, trace_2019, tmp_path_factory):
        path = tmp_path_factory.mktemp("analysis") / "s"
        save_trace(trace_2019, path, format="store", chunk_rows=512)
        return open_store(path)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_job_usage_integrals(self, trace_2019, stored_trace, workers):
        expected = job_usage_integrals(trace_2019)
        got = job_usage_integrals_store(stored_trace, workers=workers)
        assert got.column_names == expected.column_names
        for c in expected.column_names:
            if expected.column(c).kind == "str":
                assert got.column(c).values.tolist() == expected.column(c).values.tolist()
            else:
                np.testing.assert_allclose(
                    got.column(c).values.astype(float),
                    expected.column(c).values.astype(float), err_msg=c)

    @pytest.mark.parametrize("quantity", ["usage", "allocation"])
    def test_hourly_tier_series(self, trace_2019, stored_trace, quantity):
        expected = hourly_tier_series(trace_2019, "cpu", quantity)
        got = hourly_tier_series_store(stored_trace, "cpu", quantity)
        assert set(got) == set(expected)
        for tier in expected:
            np.testing.assert_allclose(got[tier], expected[tier], err_msg=tier)

    def test_alloc_set_ids(self, trace_2019, stored_trace):
        np.testing.assert_array_equal(alloc_set_ids_store(stored_trace),
                                      alloc_set_ids(trace_2019))


# -- property test: exact value + dtype preservation --------------------------

_KIND_STRATEGIES = {
    "float": st.floats(allow_nan=True, allow_infinity=True, width=64),
    "int": st.integers(min_value=-2**62, max_value=2**62),
    "bool": st.booleans(),
    "str": st.one_of(st.text(max_size=12),
                     st.text("\x00aéユ", max_size=4)),
}


@st.composite
def _trace_tables(draw):
    tables = {}
    for name, columns in SCHEMA_2019.items():
        rows = draw(st.integers(min_value=0, max_value=25))
        data = {}
        for column in columns:
            kind = draw(st.sampled_from(sorted(_KIND_STRATEGIES)))
            values = draw(st.lists(_KIND_STRATEGIES[kind],
                                   min_size=rows, max_size=rows))
            if kind == "str":
                data[column] = np.asarray(values, dtype=object)
            else:
                data[column] = np.asarray(values)
        tables[name] = Table(data)
    return tables


class TestStoreRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(tables=_trace_tables(), chunk_rows=st.integers(1, 16))
    def test_store_preserves_values_and_dtypes(self, tmp_path_factory,
                                               tables, chunk_rows):
        ds = TraceDataset(cell="p", era="2019", horizon=100.0,
                          sample_period=1.0, utc_offset_hours=0.0,
                          capacity_cpu=1.0, capacity_mem=1.0,
                          tables=dict(tables))
        path = tmp_path_factory.mktemp("prop") / "s"
        write_store(ds, path, chunk_rows=chunk_rows, cluster_by=None)
        store = open_store(path)
        for name, table in ds.tables.items():
            back = store.read_table(name)
            assert back.column_names == table.column_names
            for c in table.column_names:
                original = table.column(c)
                restored = back.column(c)
                assert restored.kind == original.kind, (name, c)
                if original.kind == "str":
                    assert restored.values.tolist() == original.values.tolist()
                else:
                    np.testing.assert_array_equal(restored.values,
                                                  original.values)


def test_empty_tables_read_cleanly(tmp_path):
    ds = TraceDataset(cell="t", era="2019", horizon=10.0, sample_period=1.0,
                      utc_offset_hours=0.0, capacity_cpu=1.0,
                      capacity_mem=1.0,
                      tables={name: Table({c: [] for c in cols})
                              for name, cols in SCHEMA_2019.items()})
    write_store(ds, tmp_path / "s", chunk_rows=16)
    store = open_store(tmp_path / "s")
    assert len(store.scan("instance_events").to_table()) == 0
    assert len(load_trace(tmp_path / "s").instance_usage) == 0
    # Empty reducer results carry their declared kinds, so stacking one
    # onto a non-empty result keeps collection ids integral.
    integral_kinds = ["int", "str", "bool", "str", "float", "float"]
    for empty in (job_usage_integrals(ds), job_usage_integrals_store(store)):
        assert len(empty) == 0
        assert [empty.column(c).kind for c in empty.column_names] == \
            integral_kinds
    delays = scheduling_delays(ds)
    assert len(delays) == 0
    one = Table({"collection_id": [1], "tier": ["prod"], "delay": [0.5]})
    stacked = concat([delays, one])
    assert [stacked.column(c).kind for c in stacked.column_names] == \
        ["int", "str", "float"]
