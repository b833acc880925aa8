"""``repro.store`` — the chunked columnar trace store (BigQuery stand-in).

The paper's 2019 trace ships as partitioned, clustered BigQuery tables
because month-scale event data cannot be slurped into memory whole.
This package is that idea at laptop scale:

* :mod:`~repro.store.format` — a typed, columnar row-group chunk file;
* :mod:`~repro.store.manifest` — JSON schema and chunk index with
  per-chunk min/max statistics and NaN counts (≈ partition metadata +
  clustering) under a CRC-32, parsed once per process;
* :mod:`~repro.store.predicates` — picklable filters whose verdict per
  chunk, from statistics alone, is no row, every row, or a residual;
* :mod:`~repro.store.scan` — lazy scans with projection and predicate
  pushdown: skipped chunks are never opened, and a count over chunks
  wholly inside the predicate is their manifest row count;
* :mod:`~repro.store.executor` — scan → filter → partial-aggregate chunk
  tasks with associative merge, run inline or fanned out by
  :func:`repro.obs.fan_out`; every chunk any reader decodes goes through
  its one task function, and no decoded chunk is kept;
* :mod:`~repro.store.writer` / :mod:`~repro.store.reader` — atomic
  store writing, :class:`TraceStore`, and a lazily-backed
  :class:`~repro.trace.dataset.TraceDataset`.

A format conversion is ``save_trace(load_trace(src), dst, format=...)``
(what ``borg-repro convert`` runs).

Quick tour::

    from repro.store import Agg, Between, Compare, open_store

    store = open_store("traces/d.store")
    busy = (store.scan("instance_usage")
                 .where(Between("start_time", 0, 6 * 3600)
                        & Compare("tier", "==", "prod"))
                 .select("avg_cpu", "duration"))
    result = busy.aggregate(Agg("sum", "avg_cpu"), Agg("count"), workers=4)
    print(result, busy.last_stats)  # chunks 3/40 decoded (37 skipped), ...
"""

from repro.obs.fanout import default_workers
from repro.store.executor import (
    AGG_KINDS,
    Agg,
    merge_partials,
    partial_aggregate,
)
from repro.store.format import read_chunk, write_chunk
from repro.store.manifest import MANIFEST_FILE, Manifest, chunk_stats
from repro.store.predicates import And, Between, Compare, IsIn, Predicate
from repro.store.reader import StoreBackedTraceDataset, TraceStore, open_store
from repro.store.scan import Scan, ScanStats
from repro.store.writer import (DEFAULT_CHUNK_ROWS, DEFAULT_CLUSTER_BY,
                                write_store)

__all__ = [
    "AGG_KINDS",
    "Agg",
    "And",
    "Between",
    "Compare",
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_CLUSTER_BY",
    "IsIn",
    "MANIFEST_FILE",
    "Manifest",
    "Predicate",
    "Scan",
    "ScanStats",
    "StoreBackedTraceDataset",
    "TraceStore",
    "chunk_stats",
    "default_workers",
    "merge_partials",
    "open_store",
    "partial_aggregate",
    "read_chunk",
    "write_chunk",
    "write_store",
]
