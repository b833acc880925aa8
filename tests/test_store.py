"""Tests for repro.store: chunk format, manifest statistics, predicate
pushdown, the parallel executor, and end-to-end integration with the
trace layer and the store-aware analysis reducers."""

import hashlib
import io
import json
import os
import pickle
import shutil
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
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
    DEFAULT_CLUSTER_BY,
    Agg,
    And,
    Between,
    Compare,
    IsIn,
    Manifest,
    chunk_stats,
    merge_partials,
    open_store,
    partial_aggregate,
    read_chunk,
    write_chunk,
    write_store,
)
from repro.store import executor as executor_module
from repro.store import manifest as manifest_module
from repro.store.format import MAGIC
from repro.table import Column, Table, concat
from repro.trace import load_trace, save_trace
from repro.trace.dataset import SCHEMA_2019, TraceDataset
from repro.util.errors import QueryError, SchemaError


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


#: Size and sha256 of the pinned RSTORE3 chunk (test_chunk_bytes_are_pinned).
PINNED_BYTES = 248
PINNED_SHA256 = (
    "2674f038bcece389d059d451048dfe762317ff2c3025fba94f47e7343c9b5bc2")

#: Where the column directory starts (magic, uint64 rows, uint32 record
#: count) and the size of one record (uint8 kind, uint64 length, uint32
#: CRC-32): the layout spelled out independently of repro.store.format.
DIRECTORY_AT = len(MAGIC) + 12
RECORD = struct.Struct("<BQI")


def _schema(table):
    """``table``'s ``(name, kind)`` columns, as a manifest lists them."""
    return tuple((name, table.column(name).kind)
                 for name in table.column_names)


def _records(data):
    """The chunk's directory records as ``(kind, nbytes, crc32)``."""
    (count,) = struct.unpack_from("<I", data, len(MAGIC) + 8)
    return [RECORD.unpack_from(data, DIRECTORY_AT + i * RECORD.size)
            for i in range(count)]


def _spans(data):
    """``(start, end)`` of every column payload, in directory order."""
    records = _records(data)
    at = DIRECTORY_AT + len(records) * RECORD.size
    spans = []
    for _, nbytes, _ in records:
        spans.append((at, at + nbytes))
        at += nbytes
    return spans


def _set_record(data, i, kind=None, nbytes=None, crc32=None):
    """Overwrite fields of directory record ``i`` in place."""
    old = RECORD.unpack_from(data, DIRECTORY_AT + i * RECORD.size)
    new = tuple(o if v is None else v
                for o, v in zip(old, (kind, nbytes, crc32)))
    RECORD.pack_into(data, DIRECTORY_AT + i * RECORD.size, *new)


def _reseal(data: bytearray) -> bytearray:
    """``data`` with every column's ``crc32`` recomputed over the payload
    bytes it now holds, so a corruption reaches the decoder's own checks
    instead of stopping at the checksum."""
    for i, (lo, hi) in enumerate(_spans(data)):
        _set_record(data, i, crc32=zlib.crc32(bytes(data[lo:hi])))
    return data


class TestChunkFormat:
    def test_roundtrip_all_kinds(self):
        for strings in _STRING_CASES.values():
            table = _all_kinds_table(strings)
            buf = io.BytesIO()
            write_chunk(table, buf)
            buf.seek(0)
            tracemalloc.start()
            try:
                back = read_chunk(buf, _schema(table), len(table))
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
        # The RSTORE3 layout must not drift: same table, same bytes.
        table = Table({
            "f": [1.5, float("inf"), float("-inf"), float("nan"), -0.0],
            "i": [0, -1, 2**62, -(2**62), 7],
            "b": [True, False, True, True, False],
            "s": ["prod", "", "héllo\x00", "ユーザー", "prod"],
        })
        buf = io.BytesIO()
        assert write_chunk(table, buf) == PINNED_BYTES
        data = buf.getvalue()
        assert hashlib.sha256(data).hexdigest() == PINNED_SHA256
        # No names in the chunk: magic, 5 rows, 4 records of kind codes
        # float, int, bool, str (0-3) and their payload lengths.
        assert data[:DIRECTORY_AT] == (MAGIC + (5).to_bytes(8, "little")
                                       + (4).to_bytes(4, "little"))
        string_bytes = 8 + 5 * 8 + 23 + 5 * 4
        assert [(kind, nbytes) for kind, nbytes, _ in _records(data)] == \
            [(0, 40), (1, 40), (2, 5), (3, string_bytes)]
        assert len(data) == DIRECTORY_AT + 4 * RECORD.size + 85 + string_bytes
        # The string payload ends the chunk: a 4-value dictionary in
        # first-appearance order, trailing NUL included, then one code
        # per row.
        assert data.endswith(
            (4).to_bytes(8, "little")
            + np.array([0, 4, 4, 11, 23], "<i8").tobytes()
            + "prodhéllo\x00ユーザー".encode()
            + np.array([0, 1, 2, 3, 0], "<u4").tobytes())
        buf.seek(0)
        assert read_chunk(buf, _schema(table), 5).column("s").to_list() == \
            table.column("s").to_list()

    @pytest.mark.parametrize("from_file_object", [False, True])
    @pytest.mark.parametrize("corruption, match", [
        # payloads
        ("flip_payload", "checksum"),
        ("code_outside_dictionary", "code 3 outside its 3-value dictionary"),
        ("dictionary_over_rows", "4-value dictionary for 3 rows"),
        ("raise_offset", "corrupt string offsets"),
        ("cut_strings", "truncated"),
        ("cut_numbers", "truncated"),
        ("short_numbers", "rows need"),
        ("bad_utf8", "invalid UTF-8"),
        # magic
        ("rstore1_magic", "store format RSTORE1"),
        ("rstore2_magic", "store format RSTORE2,.*borg-repro convert"),
        # header: the fixed head and the column directory
        ("cut_length_prefix", "header is truncated"),
        ("short_header", "header is truncated"),
        ("huge_header_length", "exceeds"),
        ("record_count_low", "lists 1 column records, fewer than the "
                             "manifest's 2 columns"),
        ("kind_differs", "column 'n' is int; the manifest says float"),
        ("unknown_kind", "unknown kind code 9; the manifest says float"),
        ("length_short", "lengths do not fill the file"),
        ("length_long", "truncated"),
        ("trailing_bytes", "lengths do not fill the file"),
        ("rows_differ", "chunk holds 4 rows; the manifest says 3"),
    ])
    def test_corrupt_chunks_raise_schema_error(self, tmp_path, corruption,
                                               match, from_file_object):
        numbers_last = corruption in ("cut_numbers", "short_numbers")
        columns = {"s": ["prod", "beb", "mid"], "n": [1.0, 2.0, 3.0]}
        order = ["s", "n"] if numbers_last else ["n", "s"]
        table = Table({name: columns[name] for name in order})
        path = tmp_path / "c.rsc"
        write_chunk(table, path)
        data = bytearray(path.read_bytes())
        last_at = _spans(data)[-1][0]
        n_at = order.index("n")
        # The string payload: k = 3, offsets [0, 4, 7, 10] at +8, the
        # dictionary b"prodbebmid" at +40, codes [0, 1, 2] at +50.
        offsets_at, dictionary_at, codes_at = (last_at + 8, last_at + 40,
                                               last_at + 50)

        if corruption == "flip_payload":
            # a bit of a float once decoded silently to another number
            data[last_at - 10] ^= 0x40
        elif corruption == "code_outside_dictionary":
            data[codes_at + 8] = 3
            data = _reseal(data)
        elif corruption == "dictionary_over_rows":
            data[last_at] = 4
            data = _reseal(data)
        elif corruption == "raise_offset":
            # offsets[1] 4 -> 10 once decoded as ['prodbebmid', '', 'mid']
            data[offsets_at + 8] = 10
            data = _reseal(data)
        elif corruption == "cut_strings":
            # the file ends inside the dictionary bytes
            del data[dictionary_at + 5:]
        elif corruption == "cut_numbers":
            # a lost tail once raised a bare ValueError
            del data[-3:]
        elif corruption == "short_numbers":
            # directory and file agree, but 3 float rows need 24 bytes
            _set_record(data, n_at, nbytes=16)
            del data[-8:]
            data = _reseal(data)
        elif corruption == "bad_utf8":
            data[dictionary_at + 9] = 0xFF
            data = _reseal(data)
        elif corruption == "rstore1_magic":
            data[:len(MAGIC)] = b"RSTORE1\n"
        elif corruption == "rstore2_magic":
            data[:len(MAGIC)] = b"RSTORE2\n"
        elif corruption == "cut_length_prefix":
            # cut inside the rows field: once a bare struct.error
            del data[len(MAGIC) + 3:]
        elif corruption == "short_header":
            # the file ends inside the second directory record
            del data[DIRECTORY_AT + RECORD.size + 5:]
        elif corruption == "record_count_low":
            data[len(MAGIC) + 8:DIRECTORY_AT] = (1).to_bytes(4, "little")
        elif corruption == "huge_header_length":
            # a 2^32 - 1 record header: nothing is sized by the count,
            # the schema sizes the read
            data[len(MAGIC) + 8:DIRECTORY_AT] = (2**32 - 1).to_bytes(4, "little")
        elif corruption == "kind_differs":
            # float bytes read as int64 would decode to garbage
            _set_record(data, n_at, kind=1)
        elif corruption == "unknown_kind":
            _set_record(data, n_at, kind=9)
        elif corruption == "length_short":
            _set_record(data, 0, nbytes=_records(data)[0][1] - 1)
        elif corruption == "length_long":
            _set_record(data, 0, nbytes=_records(data)[0][1] + 1)
        elif corruption == "trailing_bytes":
            data += b"\x00"
        else:  # rows_differ
            data[len(MAGIC):len(MAGIC) + 8] = (4).to_bytes(8, "little")
        path.write_bytes(bytes(data))

        def source():
            # read_chunk takes a path or an already open binary file.
            return io.BytesIO(bytes(data)) if from_file_object else path

        with pytest.raises(SchemaError, match=match):
            read_chunk(source(), _schema(table), 3)
        if corruption.startswith(("rstore", "cut_length", "short_header",
                                  "huge", "record", "kind", "unknown",
                                  "length", "trailing", "rows")):
            # The header is checked before any payload is read, so a
            # one-column projection fails the same way.
            with pytest.raises(SchemaError, match=match):
                read_chunk(source(), _schema(table), 3, columns=["s"])

    def test_schema_and_rows_come_from_the_manifest(self, tmp_path):
        path = tmp_path / "c.rsc"
        table = Table({"a": [1, 2], "b": ["x", "y"]})
        write_chunk(table, path)
        with pytest.raises(SchemaError, match="holds 2 rows; the manifest "
                                              "says 3"):
            read_chunk(path, _schema(table), 3)
        with pytest.raises(SchemaError, match="'b' is str; the manifest "
                                              "says float"):
            read_chunk(path, (("a", "int"), ("b", "float")), 2)
        with pytest.raises(SchemaError, match="lists 2 column records, fewer "
                                              "than the manifest's 3"):
            read_chunk(path, _schema(table) + (("c", "int"),), 2)
        # Names are the manifest's alone: a renamed schema reads the same
        # bytes under the new names.
        got = read_chunk(path, (("x", "int"), ("y", "str")), 2)
        assert got.column_names == ["x", "y"]
        assert got.column("y").to_list() == ["x", "y"]

    def test_flipped_or_truncated_chunks_never_decode(self):
        # One flipped byte inside each payload kind, and a cut at every
        # 97th offset: each read raises SchemaError, never wrong values.
        table = Table({
            "f": np.linspace(-1.0, 1.0, 200),
            "i": np.arange(200, dtype=np.int64) * 7,
            "b": np.arange(200) % 3 == 0,
            "s": np.array([("prod", "beb", "mid")[i % 3] + "\x00" * (i % 2)
                           for i in range(200)], dtype=object),
        })
        schema = _schema(table)
        buf = io.BytesIO()
        write_chunk(table, buf)
        data = buf.getvalue()
        spans = dict(zip(table.column_names, _spans(data)))
        s_lo, s_hi = spans["s"]
        k = int.from_bytes(data[s_lo:s_lo + 8], "little")
        dictionary_at = s_lo + 8 + 8 * (k + 1)
        targets = {"float": spans["f"][0] + 13, "int": spans["i"][0] + 8,
                   "bool": spans["b"][0] + 5, "dictionary": dictionary_at + 2,
                   "codes": s_hi - 4 * 50}
        for kind, pos in targets.items():
            flipped = bytearray(data)
            flipped[pos] ^= 0x04
            with pytest.raises(SchemaError, match="checksum"):
                read_chunk(io.BytesIO(bytes(flipped)), schema, 200)
            # A projection that skips the flipped payload never reads it.
            other = "i" if kind == "float" else "f"
            got = read_chunk(io.BytesIO(bytes(flipped)), schema, 200,
                             columns=[other])
            np.testing.assert_array_equal(got.column(other).values,
                                          table.column(other).values)
        for cut in range(0, len(data), 97):
            with pytest.raises(SchemaError):
                read_chunk(io.BytesIO(data[:cut]), schema, 200)

    def test_numeric_columns_are_readonly_views(self, tmp_path):
        path = tmp_path / "c.rsc"
        table = Table({"f": [1.5, -0.0], "i": [1, 2**62]})
        write_chunk(table, path)
        back = read_chunk(path, _schema(table), 2)
        for name in ("f", "i"):
            values = back.column(name).values
            assert not values.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                values[0] = 0

    def test_projection_skips_columns(self, tmp_path):
        table = Table({"a": [1, 2], "b": ["x", "y"], "c": [0.5, 1.5]})
        path = tmp_path / "c.rsc"
        write_chunk(table, path)
        got = read_chunk(path, _schema(table), 2, columns=["c", "a"])
        assert got.column_names == ["c", "a"]
        np.testing.assert_array_equal(got.column("a").values, [1, 2])

    def test_unknown_projection_column(self, tmp_path):
        path = tmp_path / "c.rsc"
        table = Table({"a": [1]})
        write_chunk(table, path)
        with pytest.raises(SchemaError, match="no column"):
            read_chunk(path, _schema(table), 1, columns=["nope"])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.rsc"
        path.write_bytes(b"definitely not a chunk")
        with pytest.raises(SchemaError, match="magic"):
            read_chunk(path, (("a", "int"),), 1)

    def test_header_has_layout(self, tmp_path):
        path = tmp_path / "c.rsc"
        write_chunk(Table({"a": [1, 2, 3]}), path)
        data = path.read_bytes()
        assert data[:DIRECTORY_AT] == (MAGIC + (3).to_bytes(8, "little")
                                       + (1).to_bytes(4, "little"))
        assert _records(data) == [(1, 24, zlib.crc32(data[-24:]))]  # int
        assert len(data) == DIRECTORY_AT + RECORD.size + 24


class TestChunkStats:
    def test_min_max_per_kind(self):
        stats = chunk_stats(Table({
            "i": [3, -1, 7], "f": [0.5, 2.5, 1.0], "s": ["b", "a", "c"],
            "flag": [True, False, True],
        }))
        assert stats["i"] == {"min": -1, "max": 7}
        assert stats["f"] == {"min": 0.5, "max": 2.5, "nans": 0}
        assert stats["s"] == {"min": "a", "max": "c"}
        assert "flag" not in stats  # booleans carry no pruning power

    def test_nan_aware_bounds(self):
        stats = chunk_stats(Table({"f": [float("nan"), 1.0, 3.0]}))
        assert stats["f"] == {"min": 1.0, "max": 3.0, "nans": 1}

    def test_all_nan_column_has_no_stats(self):
        stats = chunk_stats(Table({"f": [float("nan")], "i": [1]}))
        assert "f" not in stats and "i" in stats

    def test_empty_table(self):
        assert chunk_stats(Table({"a": []})) == {}


def _verdict(pred, stats, kinds=(("x", "int"), ("s", "str")), rows=10):
    """``pred``'s verdict on one chunk of ``rows`` rows whose
    :func:`chunk_stats` are ``stats``, as a written manifest holds it."""
    manifest = Manifest.new({}, rows)
    manifest.add_table("t", [{"name": n, "kind": k} for n, k in kinds])
    manifest.add_chunk("t", rows, stats)
    [verdict] = pred.verdicts(manifest.bounds("t"), 1)
    return verdict


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
        # Whether the chunk survives pruning: any verdict but False.
        assert (_verdict(pred, self.STATS) is not False) is expected

    def test_ne_prunes_constant_chunk(self):
        assert _verdict(Compare("x", "!=", 5),
                        {"x": {"min": 5, "max": 5}}) is False

    def test_and_combinator(self):
        yes = Compare("x", "==", 15)
        no = Compare("x", "==", 99)
        assert _verdict(yes & no, self.STATS) is False
        assert _verdict(And(yes, yes), self.STATS).parts == (yes, yes)
        assert len(((yes & no) & yes).parts) == 3  # nested parts flatten

    def test_type_confusion_never_prunes(self):
        pred = Compare("s", "<", 5)
        assert _verdict(pred, self.STATS) is pred

    @pytest.mark.parametrize("pred", [
        Between("x", 10, 20), Between("x", 0, 99), Compare("x", ">=", 10),
        Compare("x", "<", 21), Compare("x", "<=", 20.0),
        Compare("s", ">", "a"), Between("s", "b", "d"),
    ])
    def test_interval_covering_the_bounds_matches_every_row(self, pred):
        assert _verdict(pred, self.STATS) is True

    @pytest.mark.parametrize("pred", [
        Between("x", 11, 20), Compare("x", ">", 10), Compare("x", "==", 15),
        Compare("x", "!=", 15), Compare("x", "!=", 99), IsIn("x", [10, 15]),
        IsIn("s", ["b", "c", "d"]),
    ])
    def test_partial_cover_or_non_interval_stays_residual(self, pred):
        # != and in are proved only on a single-valued chunk.
        assert _verdict(pred, self.STATS) is pred

    def test_single_valued_chunk_decides_every_part(self):
        point = {"x": {"min": 7, "max": 7}, "s": {"min": "b", "max": "b"}}
        assert _verdict(Compare("x", "!=", 5), point) is True
        assert _verdict(IsIn("x", [1, 7]), point) is True
        assert _verdict(IsIn("s", ["a", "c"]), point) is False
        assert _verdict(Compare("s", "==", "b") & Compare("x", "<", 8),
                        point) is True

    def test_residual_keeps_only_unproved_parts(self):
        window, tier = Between("x", 0, 30), Compare("s", "==", "c")
        above = Compare("x", ">", 12)
        assert _verdict(window & tier, self.STATS) is tier
        assert _verdict(tier & window & above, self.STATS).parts == (tier,
                                                                     above)

    def test_nan_rows_block_every_row_but_not_pruning(self):
        kinds = (("f", "float"),)
        some_nan = {"f": {"min": 1.0, "max": 2.0, "nans": 1}}
        assert _verdict(Between("f", 0, 5), some_nan, kinds) is not True
        assert _verdict(Between("f", 3, 5), some_nan, kinds) is False
        # NaN != 1.5 holds, so a NaN row keeps a constant chunk alive.
        point = {"f": {"min": 1.5, "max": 1.5, "nans": 1}}
        assert _verdict(Compare("f", "!=", 1.5), point, kinds) is not False
        assert _verdict(Between("f", 0, 5), {"f": {"min": 1.0, "max": 2.0,
                                                   "nans": 0}}, kinds) is True

    def test_chunk_without_bounds_proves_nothing(self):
        pred = Compare("f", "<", 0)
        assert _verdict(pred, {}, (("f", "float"),)) is pred

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

    def test_predicates_are_picklable(self):
        pred = Between("t", 0, 10) & Compare("tier", "==", "prod") & IsIn("p", [1, 2])
        clone = pickle.loads(pickle.dumps(pred))
        table = Table({"t": [5.0, 5.0], "tier": ["prod", "prod"], "p": [9, 1]})
        np.testing.assert_array_equal(clone.mask(table), pred.mask(table))

    def test_unknown_operator(self):
        with pytest.raises(QueryError, match="unknown operator"):
            Compare("x", "~=", 1)


def _clustered(name, table):
    """``table`` in the row order the writer stores it in."""
    key = DEFAULT_CLUSTER_BY.get(name)
    return table.sort(key) if key is not None else table


class TestWriterReader:
    def test_exact_roundtrip_without_clustering(self, tmp_path):
        # Every value and kind survives exactly; the only change is the
        # writer's stable sort of each clustered table by its time column.
        ds = _dataset(usage_rows=300)
        write_store(ds, tmp_path / "s", chunk_rows=64)
        store = open_store(tmp_path / "s")
        for name, table in ds.tables.items():
            table = _clustered(name, table)
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

    def test_manifest_rejects_version_1(self, tmp_path):
        # The per-chunk layout of format 1: one dict per chunk.
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"format": "repro-store", "version": 1, "chunk_rows": 1,
             "meta": {}, "tables": {"t": {
                 "columns": [{"name": "a", "kind": "int"}], "rows": 1,
                 "chunks": [{"file": "t/chunk-00000.rsc", "rows": 1,
                             "stats": {"a": {"min": 1, "max": 1}}}]}}}))
        with pytest.raises(SchemaError, match="store version 1 .*convert"):
            Manifest.load(tmp_path)

    def test_manifest_rejects_version_2(self, store_dir):
        path, _ = store_dir
        data = json.loads((path / "manifest.json").read_text())
        data["version"] = 2
        (path / "manifest.json").write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="store version 2 .*borg-repro "
                                              "convert"):
            open_store(path)

    @pytest.mark.parametrize("column", [
        {"name": "a"}, {"name": "a", "kind": "decimal"}, {"kind": "int"}, "a"])
    def test_manifest_rejects_malformed_columns(self, store_dir, column):
        path, _ = store_dir
        _edit_manifest(path, lambda data: data["tables"]["instance_usage"][
            "columns"].__setitem__(0, column))
        with pytest.raises(SchemaError, match="malformed column entry"):
            open_store(path)

    @pytest.mark.parametrize("rows", [-1, 1.5, "128", None])
    def test_manifest_rejects_chunk_rows_that_are_not_counts(self, store_dir,
                                                             rows):
        path, _ = store_dir
        _edit_manifest(path, lambda data: data["tables"]["instance_usage"][
            "chunk_rows"].__setitem__(3, rows))
        with pytest.raises(SchemaError, match="not a count"):
            open_store(path)

    def test_manifest_rejects_non_json(self, tmp_path):
        (tmp_path / "manifest.json").write_bytes(b'{"format": "repro-st')
        with pytest.raises(SchemaError, match="not JSON"):
            Manifest.load(tmp_path)

    @pytest.mark.parametrize("bounds", ["min", "max", "nans"])
    def test_manifest_rejects_stats_of_wrong_length(self, store_dir, bounds):
        path, _ = store_dir
        _edit_manifest(path, lambda data: data["tables"]["instance_usage"][
            "stats"]["avg_cpu"][bounds].pop())
        with pytest.raises(SchemaError, match=rf"'avg_cpu' needs a '{bounds}' "
                           rf"list of 16 chunk bounds, got 15"):
            open_store(path)

    def test_manifest_is_column_wise_and_unindented(self, store_dir):
        path, ds = store_dir
        text = (path / "manifest.json").read_text()
        assert "\n" not in text and ", " not in text
        entry = json.loads(text)["tables"]["instance_usage"]
        assert entry["chunk_rows"] == [128] * 15 + [2000 - 15 * 128]
        assert set(entry["stats"]) == {  # every column but the bool one
            c for c in SCHEMA_2019["instance_usage"] if c != "in_alloc"}
        assert all(len(b["min"]) == len(b["max"]) == 16
                   for b in entry["stats"].values())

    def test_chunks_rebuild_per_chunk_stats(self, tmp_path):
        # Manifest.bounds gives back exactly chunk_stats of each chunk;
        # an all-NaN chunk is stored as null with every row a NaN, and
        # has no bound.
        ds = _dataset(usage_rows=300)
        cpu = ds.tables["instance_usage"].column("avg_cpu").values.copy()
        cpu[100:200] = float("nan")
        cpu[5] = float("nan")
        usage = ds.tables["instance_usage"]
        ds.tables["instance_usage"] = Table({
            name: cpu if name == "avg_cpu" else usage.column(name)
            for name in usage.column_names})
        write_store(ds, tmp_path / "s", chunk_rows=100)
        manifest = Manifest.load(tmp_path / "s")
        raw = manifest.table("instance_usage")["stats"]["avg_cpu"]
        assert raw["min"][1] is None and raw["max"][1] is None
        assert raw["nans"] == [1, 100, 0]
        assert "nans" not in manifest.table("instance_usage")["stats"]["tier"]
        chunks = manifest.chunks("instance_usage")
        assert manifest.chunks("instance_usage") is chunks  # built once
        assert chunks == [{"file": f"instance_usage/chunk-{i:05d}.rsc",
                           "rows": 100} for i in range(3)]
        bounds = manifest.bounds("instance_usage")
        assert manifest.bounds("instance_usage") is bounds  # built once
        assert set(bounds) == set(manifest.table("instance_usage")["stats"])
        for i in range(3):
            rows = ds.tables["instance_usage"].take(
                np.arange(100 * i, 100 * (i + 1)))
            for name, stats in chunk_stats(rows).items():
                b = bounds[name]
                assert b.known[i]
                assert b.lo.values[i] == stats["min"]
                assert b.hi.values[i] == stats["max"]
                assert b.lo.kind == b.hi.kind == rows.column(name).kind
                assert b.nan_free[i] == (stats.get("nans", 0) == 0)
        assert not bounds["avg_cpu"].known[1]
        assert list(bounds["avg_cpu"].nan_free) == [False, False, True]


def _sealed(data):
    """``data`` with the checksum of its current body, as if a writer had
    written it: edits made through this reach the checks behind the
    checksum."""
    body = {key: value for key, value in data.items() if key != "checksum"}
    return {**body, "checksum": manifest_module._checksum(body)}


def _edit_manifest(path, edit):
    """Rewrite ``path``'s manifest.json as ``edit`` leaves its dict, with
    a matching checksum."""
    data = json.loads((path / "manifest.json").read_text())
    edit(data)
    (path / "manifest.json").write_text(json.dumps(_sealed(data)))


class TestChunksAgreeWithManifest:
    """A well-formed manifest that disagrees with its chunks fails the
    read instead of decoding wrong values."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_edited_chunk_rows_fail_the_read(self, store_dir, workers):
        path, _ = store_dir

        def edit(data):
            data["tables"]["instance_usage"]["chunk_rows"][1] += 1

        _edit_manifest(path, edit)
        store = open_store(path)
        with pytest.raises(SchemaError, match="chunk holds 128 rows; the "
                                              "manifest says 129"):
            store.scan("instance_usage").select("avg_cpu").aggregate(
                Agg("sum", "avg_cpu"), workers=workers)
        # Chunk 0 still agrees with the manifest, so it still reads.
        first = store.manifest.chunks("instance_usage")[0]
        assert len(read_chunk(store.chunk_path(first["file"]),
                              store.manifest.schema("instance_usage"),
                              first["rows"])) == 128

    def test_edited_kind_fails_the_read(self, store_dir):
        path, _ = store_dir

        def edit(data):
            columns = data["tables"]["instance_usage"]["columns"]
            columns[1]["kind"] = "int"  # duration is float

        _edit_manifest(path, edit)
        with pytest.raises(SchemaError, match="column 'duration' is float; "
                                              "the manifest says int"):
            open_store(path).read_table("instance_usage")

    def test_dropped_column_fails_the_read(self, store_dir):
        path, _ = store_dir

        def edit(data):
            entry = data["tables"]["instance_usage"]
            entry["columns"].pop()
            del entry["stats"]["limit_mem"]

        _edit_manifest(path, edit)
        with pytest.raises(SchemaError, match="lists 14 column records, "
                                              "which exceeds the manifest's "
                                              "13 columns"):
            open_store(path).read_table("instance_usage", ["avg_cpu"])


class TestManifestCache:
    """Manifest.load parses a store's manifest once per process while
    its bytes stay the same."""

    def test_two_handles_share_one_parse(self, store_dir):
        path, _ = store_dir
        first, second = open_store(path), open_store(str(path) + "/.")
        assert first.manifest is second.manifest
        assert first.manifest.chunks("instance_usage") is \
            second.manifest.chunks("instance_usage")

    def test_rewritten_store_is_seen_on_next_open(self, tmp_path):
        path = tmp_path / "s"
        write_store(_dataset(usage_rows=300), path, chunk_rows=128)
        before = open_store(path)
        assert before.rows("instance_usage") == 300
        write_store(_dataset(usage_rows=700), path, chunk_rows=128)
        after = open_store(path)
        assert after.manifest is not before.manifest
        assert after.rows("instance_usage") == 700
        assert before.rows("instance_usage") == 300  # never mutated
        # The new parse replaces the stale one: one entry per store.
        assert manifest_module._LOADED[str(path.resolve())][1] is \
            after.manifest
        assert after.scan("instance_usage").where(
            Compare("avg_cpu", ">=", 0.0)).count() == 700

    def test_same_length_in_place_edit_is_seen(self, store_dir):
        path, _ = store_dir
        manifest = path / "manifest.json"
        assert open_store(path).meta["cell"] == "t"
        stat = manifest.stat()
        text = manifest.read_text()
        edited = text.replace('"cell":"t"', '"cell":"u"')
        edited = edited.replace(  # the fixed-width checksum, resealed
            f'"checksum":"{json.loads(text)["checksum"]}"',
            f'"checksum":"{_sealed(json.loads(edited))["checksum"]}"')
        assert len(edited) == len(text) and edited != text
        with open(manifest, "r+") as f:  # same file, same length
            f.write(edited)
        # A filesystem with coarse timestamps would show the old mtime.
        os.utime(manifest, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert manifest.stat().st_size == stat.st_size
        assert open_store(path).meta["cell"] == "u"

    def test_invalid_manifest_raises_on_every_open(self, store_dir):
        path, _ = store_dir
        good = (path / "manifest.json").read_bytes()

        def edit(data):
            data["tables"]["instance_usage"]["stats"]["avg_cpu"]["min"].pop()

        _edit_manifest(path, edit)
        for _ in range(2):
            with pytest.raises(SchemaError, match="chunk bounds"):
                open_store(path)
        assert str(path.resolve()) not in manifest_module._LOADED
        (path / "manifest.json").write_bytes(good)
        assert open_store(path).rows("instance_usage") == 2000

    def test_cache_is_bounded(self, store_dir, tmp_path):
        path, _ = store_dir
        for i in range(manifest_module.LOADED_MANIFESTS + 2):
            copy = tmp_path / f"copy-{i}"
            copy.mkdir()
            shutil.copy(path / "manifest.json", copy / "manifest.json")
            Manifest.load(copy)
        assert len(manifest_module._LOADED) == manifest_module.LOADED_MANIFESTS


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

    def test_ordering_against_another_kind_fails_at_where(self, store_dir):
        path, _ = store_dir
        scan = open_store(path).scan("instance_usage")
        for pred in (Compare("tier", "<", 5),
                     Between("start_time", "a", "b"),
                     Between("start_time", 0, "b"),
                     Compare("start_time", ">=", 0) & Compare("tier", ">", 1.5)):
            with pytest.raises(QueryError, match="cannot order"):
                scan.where(pred)
        # Orderings within a kind, and equality across kinds, still plan.
        ok = scan.where(Compare("tier", "<", "prod")
                        & Between("start_time", 0, 1.5)
                        & Compare("tier", "==", 5))
        assert ok.count() == 0

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

    def test_projection_narrows_decoding(self, store_dir, tmp_path,
                                         monkeypatch):
        """Inline and pooled, every chunk decodes only the selected and
        predicate columns.  Forked workers inherit the spy, which logs
        to a file so their calls are seen too."""
        path, _ = store_dir
        log = tmp_path / "decoded.log"
        real = executor_module.read_chunk

        def spy(chunk_path, schema, rows, columns=None):
            with open(log, "a") as f:
                f.write(",".join(columns) + "\n")
            return real(chunk_path, schema, rows, columns)

        monkeypatch.setattr(executor_module, "read_chunk", spy)
        store = open_store(path)
        scan = (store.scan("instance_usage")
                     .where(Compare("tier", "==", "prod"))
                     .select("avg_mem"))
        for workers in (None, 2):
            log.write_text("")
            scan.to_table(workers=workers)
            decoded = log.read_text().splitlines()
            assert len(decoded) == scan.last_stats.chunks_decoded > 1
            assert set(decoded) == {"tier,avg_mem"}, workers

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
        path, ds = store_dir
        store = open_store(path)
        base = store.scan("instance_usage")
        narrowed = base.select("avg_cpu").where(Between("start_time", 0, 3600))
        assert narrowed.count() < base.count() == len(ds.instance_usage)
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

    def test_serial_and_pooled_scans_are_identical(self, store_dir):
        """Both paths run the same chunk tasks: byte-equal columns, equal
        stats, and the same store counters after the workers' merge."""
        path, _ = store_dir
        scan = (open_store(path).scan("instance_usage")
                .where(Between("start_time", 2 * 3600, 20 * 3600)
                       & Compare("tier", "!=", "free"))
                .select("start_time", "tier", "avg_cpu"))
        runs = []
        for workers in (None, 2):
            with obs.scoped_registry() as registry:
                table = scan.to_table(workers=workers)
            counters = registry.snapshot().counters
            runs.append((table, scan.last_stats,
                         {k: counters.get(k) for k in (
                             "store.chunks_decoded", "store.rows_decoded",
                             "store.rows_matched")}))
        (serial, serial_stats, serial_counts), (pooled, pooled_stats,
                                                pooled_counts) = runs
        assert serial_stats.chunks_decoded > 1
        assert serial_stats.chunks_skipped > 0
        assert pooled_stats == serial_stats
        assert pooled_counts == serial_counts
        assert serial_counts["store.rows_matched"] == len(serial)
        assert pooled.column_names == serial.column_names
        for name in serial.column_names:
            a, b = serial.column(name), pooled.column(name)
            assert a.kind == b.kind
            if a.kind == "str":
                assert a.values.tolist() == b.values.tolist()
            else:
                assert a.values.tobytes() == b.values.tobytes()

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
        with pytest.raises(QueryError, match="unknown aggregate"):
            Agg("median", "x")
        with pytest.raises(QueryError, match="needs a column"):
            Agg("sum")
        with pytest.raises(QueryError, match="edges"):
            Agg("histogram", "x")
        # Bad edges fail here, before a pooled scan dispatches a chunk.
        for edges in ([0.5], [0.5, 0.1], [0, 1, 1], [0, float("nan")],
                      ["a", "b"]):
            with pytest.raises(QueryError, match="strictly increasing"):
                Agg("histogram", "x", edges=edges)

    def test_aggs_are_picklable(self):
        agg = Agg("histogram", "x", edges=[0, 1], alias="h")
        clone = pickle.loads(pickle.dumps(agg))
        assert clone.alias == "h" and clone.edges == (0, 1)


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

        def edit(manifest):
            del manifest["tables"]["machine_events"]
            manifest["tables"]["machine_attributes"]["columns"] = [
                {"name": "bogus", "kind": "int"}]

        _edit_manifest(path, edit)
        with pytest.raises(SchemaError) as err:
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


_BIG = 2 ** 53
_NAN, _INF = float("nan"), float("inf")
#: Per kind: row values, and predicate values to test them against.
#: Small pools, so chunks repeat values and predicates hit them; int
#: rows meet float values around 2**53, where float64 rounds.
_VERDICT_VALUES = {
    "int": (st.one_of(st.integers(-3, 3), st.integers(_BIG - 2, _BIG + 2),
                      st.integers(-2 ** 63, 2 ** 63 - 1)),
            st.one_of(st.integers(-3, 3), st.integers(_BIG - 2, _BIG + 2),
                      st.sampled_from([float(_BIG), _BIG + 0.5, -0.5, 1.5,
                                       _INF, -_INF, _NAN]))),
    "float": (st.sampled_from([-1.0, 0.0, -0.0, 1.0, 1.5, 2.0, _INF, -_INF,
                               _NAN]),
              st.sampled_from([-1.0, 0.0, 1.0, 1.5, 2.0, 1, 2, _INF, -_INF,
                               _NAN])),
    "str": (st.sampled_from(["", "a", "b", "ba", "c"]),
            st.sampled_from(["", "a", "b", "bb", "c", "zz"])),
}


@st.composite
def _verdict_case(draw):
    """(kind, chunks of row values, predicate) for the verdict property."""
    kind = draw(st.sampled_from(sorted(_VERDICT_VALUES)))
    rows, values = _VERDICT_VALUES[kind]
    chunks = draw(st.lists(st.lists(rows, max_size=6), min_size=1,
                           max_size=4))
    # Orderings take values of the column's own kind (check_kinds
    # rejects the rest at plan time); equality and in take any.
    anything = st.one_of(values, _VERDICT_VALUES["int"][1],
                         _VERDICT_VALUES["str"][1])
    part = st.one_of(
        st.builds(Compare, st.just("c"), st.sampled_from(_ORDERINGS), values),
        st.builds(Compare, st.just("c"), st.sampled_from(["==", "!="]),
                  anything),
        st.builds(Between, st.just("c"), values, values),
        st.builds(IsIn, st.just("c"), st.lists(anything, max_size=3)))
    parts = draw(st.lists(part, min_size=1, max_size=3))
    return kind, chunks, parts[0] if len(parts) == 1 else And(*parts)


_ORDERINGS = ["<", "<=", ">", ">="]


class TestVerdicts:
    """Statistics decide answers: every verdict must agree with the row
    masks, and a covered count never opens its chunks."""

    @settings(max_examples=400, deadline=None)
    @given(case=_verdict_case())
    # A NaN row keeps a single-valued chunk from proving != or in; int
    # rows compare with a float value as float64, in proof and mask.
    @example(case=("float", [[1.5, _NAN]], Compare("c", "!=", 1.5)))
    @example(case=("float", [[1.0, _NAN, 1.0]], IsIn("c", [1.0])))
    @example(case=("int", [[_BIG + 1]], Compare("c", "==", float(_BIG))))
    @example(case=("int", [[_BIG + 1, _BIG + 2]],
                   Between("c", float(_BIG), float(_BIG))))
    def test_verdicts_agree_with_row_masks(self, case):
        kind, chunks, pred = case
        manifest = Manifest.new({}, 8)
        manifest.add_table("t", [{"name": "c", "kind": kind}])
        tables = []
        for values in chunks:
            column = Column(np.array(values, dtype={
                "int": np.int64, "float": np.float64, "str": object}[kind]))
            table = Table({"c": column})
            tables.append(table)
            manifest.add_chunk("t", len(table), chunk_stats(table))
        verdicts = pred.verdicts(manifest.bounds("t"), len(tables))
        for table, verdict in zip(tables, verdicts):
            mask = pred.mask(table)
            if verdict is True:
                assert mask.all(), (table.column("c").values, pred)
            elif verdict is False:
                assert not mask.any(), (table.column("c").values, pred)
            else:  # the residual drops only parts true on every row
                np.testing.assert_array_equal(verdict.mask(table), mask)

    def test_covered_count_opens_no_chunk(self, store_dir):
        path, ds = store_dir
        store = open_store(path)
        window = Between("start_time", 3 * 3600, 30 * 3600)
        plan = store.scan("instance_usage").where(window).plan()
        covered = [chunk for chunk, residual in plan if residual is None]
        assert 0 < len(covered) < len(plan)
        for chunk in covered:
            os.remove(store.chunk_path(chunk["file"]))
        t = ds.instance_usage.column("start_time").values
        scan = store.scan("instance_usage").where(window)
        assert scan.count() == int(((t >= 3 * 3600) & (t <= 30 * 3600)).sum())
        stats = scan.last_stats
        assert stats.chunks_answered == len(covered)
        assert stats.chunks_decoded == len(plan) - len(covered)
        assert stats.chunks_total == (stats.chunks_skipped
                                      + stats.chunks_answered
                                      + stats.chunks_decoded)
        # A sum over the same window needs the deleted payloads.
        with pytest.raises(OSError):
            scan.aggregate(Agg("sum", "avg_cpu"))

    def test_covered_chunks_skip_the_predicate_columns(self, store_dir,
                                                       tmp_path, monkeypatch):
        path, _ = store_dir
        log = tmp_path / "decoded.log"
        real = executor_module.read_chunk

        def spy(chunk_path, schema, rows, columns=None):
            with open(log, "a") as f:
                f.write(",".join(columns) + "\n")
            return real(chunk_path, schema, rows, columns)

        monkeypatch.setattr(executor_module, "read_chunk", spy)
        scan = (open_store(path).scan("instance_usage")
                .where(Between("start_time", 3 * 3600, 30 * 3600)))
        plan = scan.plan()
        scan.aggregate(Agg("count"), Agg("sum", "avg_cpu"))
        decoded = log.read_text().splitlines()
        assert decoded == ["avg_cpu" if residual is None
                           else "start_time,avg_cpu"
                           for _, residual in plan]

    @pytest.mark.parametrize("tier", [None, Compare("tier", "!=", "free")])
    def test_serial_and_pooled_mixed_verdicts_agree(self, store_dir, tier):
        # Pruned, covered and partial chunks in one scan; with the tier
        # clause the covered chunks keep it as their residual.
        path, _ = store_dir
        window = Between("start_time", 3 * 3600, 30 * 3600)
        scan = open_store(path).scan("instance_usage").where(
            window if tier is None else window & tier)
        residuals = [residual for _, residual in scan.plan()]
        assert len(set(map(repr, residuals))) == 2
        assert len(residuals) < len(open_store(path).manifest.chunks(
            "instance_usage"))  # and some chunks are pruned
        aggs = (Agg("count"), Agg("sum", "avg_cpu"), Agg("mean", "avg_mem"),
                Agg("histogram", "avg_cpu", edges=(0.0, 0.5, 1.0)))
        runs = []
        for workers in (None, 2):
            result = scan.aggregate(*aggs, workers=workers)
            stats = scan.last_stats
            table = scan.select("start_time", "avg_cpu").to_table(
                workers=workers)
            runs.append((result["count"], result["sum(avg_cpu)"].hex(),
                         result["mean(avg_mem)"].hex(),
                         result["histogram(avg_cpu)"].tolist(), stats,
                         table.column("start_time").values.tobytes(),
                         table.column("avg_cpu").values.tobytes()))
        assert runs[0] == runs[1]


class TestManifestChecksum:
    """Stats decide answers, so the manifest carries a CRC-32 of its
    canonical body and every parse checks it."""

    def test_checksum_is_crc32_of_canonical_body(self, store_dir):
        path, _ = store_dir
        text = (path / "manifest.json").read_text()
        data = json.loads(text)
        assert list(data)[-1] == "checksum" and data["version"] == 4
        body = {k: v for k, v in data.items() if k != "checksum"}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        assert data["checksum"] == f"{zlib.crc32(canonical.encode()):08x}"

    @pytest.mark.parametrize("edit", [
        lambda t: t["stats"]["start_time"]["min"].__setitem__(
            3, t["stats"]["start_time"]["min"][3] + 1.0),
        lambda t: t["stats"]["start_time"]["max"].__setitem__(2, 1e9),
        lambda t: t["stats"]["avg_cpu"]["nans"].__setitem__(0, 1),
        lambda t: t["chunk_rows"].__setitem__(5, 127),
        lambda t: t.__setitem__("rows", 1999),
    ], ids=["min", "max", "nans", "chunk-rows", "rows"])
    def test_edited_statistic_fails_at_open(self, store_dir, edit):
        path, _ = store_dir
        data = json.loads((path / "manifest.json").read_text())
        edit(data["tables"]["instance_usage"])
        (path / "manifest.json").write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="fails its checksum"):
            open_store(path)

    def test_version_3_is_rewritten(self, store_dir):
        path, _ = store_dir

        def edit(data):
            data["version"] = 3
            del data["checksum"]

        _edit_manifest(path, edit)
        with pytest.raises(SchemaError, match="store version 3 .*rewrite"):
            open_store(path)

    @settings(max_examples=60, deadline=None)
    @given(where=st.floats(0, 1), bit=st.integers(0, 7))
    def test_bit_flips_never_change_a_count(self, tmp_path_factory, where,
                                            bit):
        path = tmp_path_factory.mktemp("flip") / "s"
        ds = _dataset(usage_rows=600)
        write_store(ds, path, chunk_rows=64)
        raw = bytearray((path / "manifest.json").read_bytes())
        raw[min(int(where * len(raw)), len(raw) - 1)] ^= 1 << bit
        (path / "manifest.json").write_bytes(bytes(raw))
        t = ds.instance_usage.column("start_time").values
        window = Between("start_time", 6 * 3600, 30 * 3600)
        try:
            got = open_store(path).scan("instance_usage").where(
                window).count()
        except SchemaError:
            return
        assert got == int(((t >= 6 * 3600) & (t <= 30 * 3600)).sum())


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
        write_store(ds, path, chunk_rows=chunk_rows)
        store = open_store(path)
        for name, table in ds.tables.items():
            table = _clustered(name, table)
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
