"""Fork safety: worker-side obs metrics merge into the parent exactly once.

The store executor ships chunk tasks to worker processes through
:func:`repro.obs.fan_out`, which runs each task inside a fresh scoped
registry and merges the resulting :class:`~repro.obs.snapshot.Snapshot`
into the parent once, in task order.  These tests pin the resulting
invariants:

* parallel and serial runs agree on every work counter,
* nothing is double-counted (exactly one increment per chunk, even
  under ``fork`` start methods where the child inherits a *copy* of the
  parent registry),
* worker span trees graft under the parent's open ``store.scan`` span,
  so the merged structure equals the serial one.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.store import open_store, write_store
from repro.table.table import Table


def _count_rows(table: Table) -> int:
    """Module-level map_fn (must be picklable by name — RPR003)."""
    return len(table)


def _add(a: int, b: int) -> int:
    return a + b


@pytest.fixture(scope="module")
def store_dir(trace_2019, tmp_path_factory):
    directory = tmp_path_factory.mktemp("obs_store") / "cell"
    with obs.scoped_registry():
        write_store(trace_2019, directory)
    return directory


#: The counters that must agree between serial and parallel execution.
WORK_COUNTERS = ("store.scans", "store.chunks_total", "store.chunks_skipped",
                 "store.chunks_decoded", "store.rows_decoded",
                 "store.rows_matched", "store.chunks_read", "store.bytes_read")


def _map_reduce_run(store_dir, workers):
    """One instrumented map_reduce over instance_usage; returns
    (row total, counters, span structure)."""
    store = open_store(store_dir)
    with obs.scoped_registry() as registry:
        total = store.scan("instance_usage").map_reduce(
            _count_rows, _add, workers=workers)
        snapshot = registry.snapshot()
    return total, snapshot.counters, snapshot.span_structure()


def test_parallel_counters_match_serial(store_dir):
    total_serial, serial, structure_serial = _map_reduce_run(store_dir, None)
    total_parallel, parallel, structure_parallel = _map_reduce_run(store_dir, 2)

    assert total_parallel == total_serial
    for name in WORK_COUNTERS:
        assert parallel.get(name, 0) == serial.get(name, 0), name

    # Worker span trees grafted under the open store.scan span: the
    # merged structure is indistinguishable from the serial run's.
    assert structure_parallel == structure_serial


def test_chunk_work_counted_exactly_once(store_dir):
    """Each surviving chunk is read and decoded exactly once — a fork
    that re-counted inherited parent state would inflate these."""
    store = open_store(store_dir)
    n_chunks = len(store.scan("instance_usage").plan())
    assert n_chunks > 1  # the parallel path needs real fan-out

    _, counters, structure = _map_reduce_run(store_dir, 2)
    assert counters["store.chunks_read"] == n_chunks
    assert counters["store.chunks_decoded"] == n_chunks
    assert counters["store.scans"] == 1

    def find(node, name):
        if node[0] == name:
            return node
        for child in node[2]:
            found = find(child, name)
            if found is not None:
                return found
        return None

    chunk_span = find(structure, "store.chunk")
    assert chunk_span is not None and chunk_span[1] == n_chunks


def test_fan_out_chunk_task_snapshot_is_the_task_delta(store_dir):
    """A chunk task run through fan_out merges only its own task's
    metrics, regardless of what the ambient registry already held."""
    from repro.store.executor import run_chunk_task

    store = open_store(store_dir)
    scan = store.scan("instance_usage")
    chunk, _ = scan.plan()[0]
    task = (str(store.chunk_path(chunk["file"])),
            store.manifest.schema("instance_usage"), chunk["rows"],
            tuple(store.manifest.column_names("instance_usage")),
            None, (), _count_rows)

    with obs.scoped_registry() as registry:
        obs.inc("store.chunks_read", 1000)  # pre-existing parent state
        before = registry.snapshot()
        [(payload, rows_decoded, rows_matched)] = obs.fan_out(
            run_chunk_task, [task], None, section="store")
        after = registry.snapshot()

    assert payload == rows_decoded == rows_matched == chunk["rows"]
    # The merged delta is exactly this one task's work, with no pool
    # bookkeeping on the inline path.
    delta = {name: value - before.counters.get(name, 0)
             for name, value in after.counters.items()
             if value != before.counters.get(name, 0)}
    assert set(delta) == {"store.chunks_read", "store.bytes_read"}
    assert delta["store.chunks_read"] == 1
    assert after.span_structure() == ("root", 0, (("store.chunk", 1, ()),))


def test_merge_is_idempotent_per_snapshot_not_global():
    """merge_snapshot adds counters per call — callers own exactly-once."""
    registry = obs.MetricsRegistry()
    child = obs.MetricsRegistry()
    child.inc("store.chunks_decoded", 3)
    snapshot = child.snapshot()
    registry.merge_snapshot(snapshot)
    registry.merge_snapshot(snapshot)
    assert registry.snapshot().counters["store.chunks_decoded"] == 6
