"""``repro.obs`` — zero-dependency metrics + span tracing.

The observability layer for the whole pipeline (DESIGN.md §9): a
process-local :class:`~repro.obs.registry.MetricsRegistry` of counters,
gauges and log-bucketed timing histograms (p50/p95/p99), plus nested
span tracing whose tree *structure* is deterministic for deterministic
programs.  Everything is stdlib-only and always on — recording costs a
dict lookup or an integer add, so there is no enable/disable state to
thread through the simulator, the store, or the analyses.

Usage::

    from repro import obs

    with obs.span("sim.run"):              # literal names only (RPR006)
        obs.inc("sim.events_processed")
        obs.gauge("sim.queue.pending_depth", depth)
        obs.observe("sim.round_seconds", dt)

    report = obs.run_report(command="simulate")

Fork safety: :func:`fan_out` — the one process fan-out behind the store
executor, the multi-cell driver and the campaign runner — runs each
item inside :func:`scoped_registry` and merges the resulting
:class:`Snapshot` into the caller exactly once
(:meth:`MetricsRegistry.merge_snapshot`), so serial and parallel runs
agree on every counter.
"""

import functools

from repro.obs.fanout import fan_out, pool_size
from repro.obs.profiler import PROFILE_SCHEMA, SamplingProfiler
from repro.obs.recorder import (
    FRAMES_SCHEMA,
    CellRecorder,
    FrameSchemaError,
    FrameSink,
    RunRecorder,
    StatusLine,
    frames_fingerprint,
    read_frames,
    recover_jsonl,
    render_frames,
    strip_volatile,
)
from repro.obs.registry import (
    Counter,
    MetricsRegistry,
    current_span_node,
    get_registry,
    scoped_registry,
    set_registry,
)
from repro.obs.report import (
    SCHEMA,
    load_report,
    render_report,
    run_report,
    snapshot_report,
    write_report,
)
from repro.obs.snapshot import Snapshot
from repro.obs.spans import Span, SpanNode
from repro.obs.timing import TimingHistogram


def span(name: str) -> Span:
    """``with obs.span("store.scan"):`` — record into the current registry."""
    return get_registry().span(name)


def traced(name: str):
    """Decorator form of :func:`span`: time every call of a function.

    The span name must be a literal string at the decoration site
    (RPR006), and the registry is resolved per call, so scoped
    registries see the spans of calls made inside them.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with get_registry().span(name):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


def inc(name: str, n: int = 1) -> None:
    """Increment a counter in the current registry."""
    get_registry().inc(name, n)


def counter(name: str) -> Counter:
    """A stable counter handle (bind once outside hot loops)."""
    return get_registry().counter(name)


def gauge(name: str, value: float) -> None:
    """Set a last-value gauge in the current registry."""
    get_registry().gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record one sample into a timing/value histogram."""
    get_registry().observe(name, value)


def timer(name: str) -> TimingHistogram:
    """A stable timing-histogram handle in the current registry."""
    return get_registry().timer(name)


def snapshot() -> Snapshot:
    """Plain-data snapshot of the current registry."""
    return get_registry().snapshot()


def reset() -> None:
    """Clear the current registry (tests and CLI entry points)."""
    get_registry().reset()


__all__ = [
    "CellRecorder",
    "Counter",
    "FRAMES_SCHEMA",
    "FrameSchemaError",
    "FrameSink",
    "MetricsRegistry",
    "PROFILE_SCHEMA",
    "RunRecorder",
    "SCHEMA",
    "SamplingProfiler",
    "Snapshot",
    "Span",
    "SpanNode",
    "StatusLine",
    "TimingHistogram",
    "counter",
    "current_span_node",
    "fan_out",
    "frames_fingerprint",
    "gauge",
    "get_registry",
    "inc",
    "load_report",
    "observe",
    "pool_size",
    "read_frames",
    "recover_jsonl",
    "render_frames",
    "render_report",
    "reset",
    "run_report",
    "scoped_registry",
    "set_registry",
    "snapshot",
    "snapshot_report",
    "span",
    "strip_volatile",
    "timer",
    "traced",
    "write_report",
]
