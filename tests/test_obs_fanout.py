"""The contract of :func:`repro.obs.fan_out`, the one process fan-out.

Store chunk tasks, simulated cells and campaign points all run through
it, so its guarantees are pinned here once: results in input order,
each item's metrics merged exactly once before its result is yielded,
inline and pooled runs indistinguishable apart from the pool's own
bookkeeping, and a failing worker never leaves a pool behind.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import obs

POOL_KEYS = {"test.pool_workers", "test.parallel_batches"}


def _work(x: int):
    """Module-level, so pooled runs can pickle it by name (RPR003)."""
    with obs.span("test.item"):
        obs.inc("test.items")
        obs.inc("test.total", x)
        obs.gauge("test.last", x)
        with obs.span("test.inner"):
            obs.observe("test.value", float(x))
    return x * x, os.getpid()


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("boom")
    return x


def _run(items, workers):
    """(results, counters, gauges, span structure) of one fan-out."""
    with obs.scoped_registry() as registry:
        with obs.span("test.run"):
            results = list(obs.fan_out(_work, items, workers,
                                       section="test"))
        snapshot = registry.snapshot()
    return results, snapshot.counters, snapshot.gauges, \
        snapshot.span_structure()


def _without_pool_keys(metrics):
    return {k: v for k, v in metrics.items() if k not in POOL_KEYS}


def test_results_come_back_in_input_order():
    items = [5, 1, 4, 2, 3, 0]
    results, _, _, _ = _run(items, 2)
    assert [square for square, _ in results] == [x * x for x in items]


def test_inline_and_pooled_merge_the_same_metrics():
    items = list(range(7))
    inline, c_inline, g_inline, s_inline = _run(items, None)
    pooled, c_pooled, g_pooled, s_pooled = _run(items, 2)
    assert [r for r, _ in pooled] == [r for r, _ in inline]
    assert _without_pool_keys(c_pooled) == c_inline
    assert _without_pool_keys(g_pooled) == g_inline
    assert c_inline["test.items"] == len(items)
    assert g_inline["test.last"] == items[-1]
    # Item span trees graft under the caller's open span in both modes.
    assert s_pooled == s_inline
    assert s_inline == ("root", 0, (("test.run", 1, (
        ("test.item", len(items), (("test.inner", len(items), ()),)),)),))


@pytest.mark.parametrize("workers,n", [(2, 5), (8, 3), (3, 3)])
def test_pool_gauge_is_min_of_workers_and_items(workers, n):
    _, counters, gauges, _ = _run(list(range(n)), workers)
    assert gauges["test.pool_workers"] == min(workers, n) \
        == obs.pool_size(workers, n)
    assert counters["test.parallel_batches"] == 1


@pytest.mark.parametrize("workers,n", [
    (None, 4), (0, 4), (-2, 4), (1, 4), (4, 1), (4, 0)])
def test_serial_requests_and_tiny_inputs_run_inline(workers, n):
    assert obs.pool_size(workers, n) == 1
    results, counters, gauges, _ = _run(list(range(n)), workers)
    assert {pid for _, pid in results} <= {os.getpid()}
    assert not POOL_KEYS & (set(counters) | set(gauges))
    assert counters.get("test.items", 0) == n


@pytest.mark.parametrize("workers", [None, 2])
def test_each_snapshot_merges_before_its_result_is_yielded(workers):
    with obs.scoped_registry() as registry:
        for i, _ in enumerate(obs.fan_out(_work, range(4), workers,
                                          section="test")):
            assert registry.snapshot().counters["test.items"] == i + 1


@pytest.mark.parametrize("workers", [None, 2])
def test_worker_exception_propagates_and_leaves_no_live_pool(workers):
    with obs.scoped_registry():
        with pytest.raises(ValueError, match="boom"):
            list(obs.fan_out(_fail_on_three, range(6), workers,
                             section="test"))
    assert multiprocessing.active_children() == []
