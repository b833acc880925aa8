"""Store scans vs whole-CSV loads: the point of the chunked format.

The paper's 2019 analysis relies on BigQuery because month-scale traces
cannot be re-read whole for every query.  This benchmark makes the
laptop-scale version of that argument: a time-windowed aggregate through
the store's parallel predicate-pushdown scan must beat loading the full
CSV trace and filtering in memory.

Environment knobs (defaults sized to the acceptance floor: a 48-hour,
200-machine cell):
  REPRO_BENCH_STORE_MACHINES  machines in the cell   (default 200)
  REPRO_BENCH_STORE_HOURS     horizon in hours       (default 48)
  REPRO_BENCH_STORE_SCALE     arrival-rate scale     (default 0.02)
"""

from __future__ import annotations

import os
import time

import pytest

from repro.store import Agg, Between, default_workers, open_store
from repro.trace import encode_cell, load_trace, save_trace
from repro.workload import scenarios_2019

# Bench-scale knobs, not simulation inputs: they size the fixture and are
# echoed in the bench output, so reruns are comparable at equal settings.
MACHINES = int(os.environ.get("REPRO_BENCH_STORE_MACHINES", "200"))
HOURS = float(os.environ.get("REPRO_BENCH_STORE_HOURS", "48"))
SCALE = float(os.environ.get("REPRO_BENCH_STORE_SCALE", "0.02"))

#: The query under test: CPU usage statistics over a window covering one
#: twelfth of the horizon, starting mid-trace (4 hours at the default 48).
WINDOW = (HOURS / 2 * 3600.0, (HOURS / 2 + HOURS / 12) * 3600.0)


@pytest.fixture(scope="module")
def trace_dirs(tmp_path_factory):
    """One bench-scale 2019 cell saved in both on-disk formats."""
    t0 = time.time()
    scenario = scenarios_2019(seed=7, machines_per_cell=MACHINES,
                              horizon_hours=HOURS, arrival_scale=SCALE,
                              cells=["d"])[0]
    trace = encode_cell(scenario.run())
    print(f"\n[bench setup] store-scan cell simulated in {time.time() - t0:.0f}s "
          f"({MACHINES} machines, {HOURS:.0f}h, "
          f"{len(trace.instance_usage)} usage rows)")
    root = tmp_path_factory.mktemp("store_scan")
    save_trace(trace, root / "csv", format="csv")
    save_trace(trace, root / "store", format="store")
    return root


def _query_csv(csv_dir):
    """The baseline: load the whole CSV trace, filter in memory."""
    trace = load_trace(csv_dir, format="csv")
    t = trace.instance_usage.column("start_time").values
    mask = (t >= WINDOW[0]) & (t <= WINDOW[1])
    values = trace.instance_usage.column("avg_cpu").values[mask]
    return int(mask.sum()), float(values.sum())


def _query_store(store_dir, workers):
    """The contender: parallel pushdown scan over the chunked store."""
    store = open_store(store_dir)
    scan = (store.scan("instance_usage")
                 .where(Between("start_time", *WINDOW))
                 .select("avg_cpu"))
    result = scan.aggregate(Agg("count"), Agg("sum", "avg_cpu"),
                            workers=workers)
    return int(result["count"]), float(result["sum(avg_cpu)"]), scan.last_stats


def test_parallel_pushdown_beats_whole_csv_load(trace_dirs):
    workers = max(2, default_workers())

    # Warm the page cache identically for both contenders, then time each
    # end-to-end (open + read + filter + aggregate) from fresh objects.
    _query_csv(trace_dirs / "csv")
    _query_store(trace_dirs / "store", workers)

    t0 = time.perf_counter()
    csv_count, csv_sum = _query_csv(trace_dirs / "csv")
    csv_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    store_count, store_sum, stats = _query_store(trace_dirs / "store", workers)
    store_seconds = time.perf_counter() - t1

    print(f"\n[store scan] csv load+filter: {csv_seconds:.3f}s; "
          f"store pushdown ({workers} workers): {store_seconds:.3f}s "
          f"({csv_seconds / store_seconds:.1f}x); {stats}")

    # Same answer.
    assert store_count == csv_count
    assert store_sum == pytest.approx(csv_sum)
    # Pushdown actually pruned: the 4-hour window must skip chunks.
    assert 0 < stats.chunks_decoded < stats.chunks_total
    # And it pays off end-to-end.
    assert store_seconds < csv_seconds


def test_serial_pushdown_also_beats_whole_csv_load(trace_dirs):
    """Even without the process pool, pruning + projection should win."""
    _query_csv(trace_dirs / "csv")  # warm cache

    t0 = time.perf_counter()
    csv_count, csv_sum = _query_csv(trace_dirs / "csv")
    csv_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    store_count, store_sum, stats = _query_store(trace_dirs / "store", None)
    store_seconds = time.perf_counter() - t1

    print(f"\n[store scan] csv: {csv_seconds:.3f}s; serial store: "
          f"{store_seconds:.3f}s ({csv_seconds / store_seconds:.1f}x); {stats}")

    assert store_count == csv_count
    assert store_sum == pytest.approx(csv_sum)
    assert store_seconds < csv_seconds
