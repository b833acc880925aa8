"""A zero-dependency sampling profiler with an overhead budget.

``borg-repro simulate --profile`` answers "where did the run's CPU go?"
without installing anything: a periodic sampler captures the Python
call stack, aggregates identical stacks, and produces

* a **hot-function table** (self/cumulative sample counts per
  function) that lands in the ``--obs-out`` run report and the
  ``stats`` rendering, and
* a **collapsed-stack file** (``frame;frame;frame count`` per line —
  the flamegraph.pl / speedscope interchange format) for flame graphs.

One engine, stdlib-only: ``signal.setitimer(ITIMER_PROF, interval)``
delivers ``SIGPROF`` every ``interval`` seconds of *CPU* time; the
handler walks the interrupted frame's back-chain and counts one stack.
Sampling cost is proportional to wall samples, not to events — at the
default 5 ms CPU cadence the measured overhead on the simulator
throughput benchmark is well under the 5% budget (enforced by
``tests/test_obs_profiler.py``).  Signals are only usable in the main
thread of the main interpreter, on platforms with ``SIGPROF`` (Linux
and macOS, the same ones ``--workers`` needs); elsewhere construction
raises :class:`~repro.util.errors.ReproError`.

The profiler is **off by default** everywhere: no hook is installed and
no hot-path code pays anything unless ``--profile`` is given (lint rule
RPR007 additionally forbids unguarded profiler calls in simulator
loops).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.util.errors import ReproError

#: The profile payload schema embedded in obs run reports.
PROFILE_SCHEMA = "repro.obs.profile/1"

#: Default sampling cadence (seconds of CPU time between SIGPROF ticks).
DEFAULT_INTERVAL = 0.005

#: Frames kept per captured stack (deeper tails are folded into the root).
MAX_STACK_DEPTH = 64


def _signal_engine_available() -> bool:
    return (hasattr(signal, "setitimer")
            and hasattr(signal, "SIGPROF")
            and threading.current_thread() is threading.main_thread())


def _frame_label(code) -> str:
    """``module:qualname`` — short, stable, flamegraph-friendly.

    Spaces are folded to underscores: the collapsed-stack format
    reserves the last space-separated field for the count, and frozen
    modules (``<frozen runpy>``) put spaces in filenames.
    """
    name = getattr(code, "co_qualname", None) or code.co_name
    return f"{Path(code.co_filename).stem}:{name}".replace(" ", "_")


class SamplingProfiler:
    """Collects stack samples; query with :meth:`hot_table` / :meth:`collapsed`.

    Use as a context manager around the region to profile::

        with SamplingProfiler() as prof:
            run()
        print(prof.hot_table(10))
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 max_depth: int = MAX_STACK_DEPTH) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if not _signal_engine_available():
            raise ReproError("the sampling profiler needs setitimer/SIGPROF "
                             "in the main thread")
        self.interval = float(interval)
        self.max_depth = int(max_depth)
        #: stack (root-first tuple of code objects) -> sample count.
        self._samples: Dict[Tuple, int] = {}
        self.sample_count = 0
        self.started_at: Optional[float] = None
        self.wall_seconds = 0.0
        self._running = False
        self._old_handler = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            raise ValueError("profiler already running")
        self._running = True
        self.started_at = time.perf_counter()
        self._old_handler = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old_handler or signal.SIG_DFL)
        self._old_handler = None
        self._running = False
        if self.started_at is not None:
            self.wall_seconds += time.perf_counter() - self.started_at

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- capture --------------------------------------------------------------

    def _capture(self, frame) -> None:
        # Runs inside a signal handler: touch as little as possible —
        # walk code objects into a tuple, one dict update, done.
        # Labeling and aggregation happen at query time.
        stack = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            stack.append(frame.f_code)
            frame = frame.f_back
            depth += 1
        stack.reverse()
        key = tuple(stack)
        self._samples[key] = self._samples.get(key, 0) + 1
        self.sample_count += 1

    def _on_signal(self, signum, frame) -> None:
        self._capture(frame)

    # -- queries --------------------------------------------------------------

    def hot_table(self, top: int = 20) -> List[dict]:
        """Per-function sample aggregation, hottest self-time first.

        ``self`` counts samples where the function was the leaf (on
        CPU); ``cum`` counts samples where it appeared anywhere on the
        stack (at most once per sample).  Percentages are of total
        samples.
        """
        total = self.sample_count
        self_counts: Dict[str, int] = {}
        cum_counts: Dict[str, int] = {}
        for stack, n in self._samples.items():
            if not stack:
                continue
            leaf = _frame_label(stack[-1])
            self_counts[leaf] = self_counts.get(leaf, 0) + n
            for label in {_frame_label(code) for code in stack}:
                cum_counts[label] = cum_counts.get(label, 0) + n
        rows = [
            {
                "func": label,
                "self": n,
                "cum": cum_counts[label],
                "self_pct": round(100.0 * n / total, 1) if total else 0.0,
                "cum_pct": round(100.0 * cum_counts[label] / total, 1)
                    if total else 0.0,
            }
            for label, n in self_counts.items()
        ]
        rows.sort(key=lambda r: (-r["self"], -r["cum"], r["func"]))
        return rows[:top]

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``a;b;c count``), sorted for stability."""
        folded: Dict[str, int] = {}
        for stack, n in self._samples.items():
            key = ";".join(_frame_label(code) for code in stack)
            folded[key] = folded.get(key, 0) + n
        return [f"{key} {n}" for key, n in sorted(folded.items())]

    def write_collapsed(self, path: Union[str, os.PathLike]) -> int:
        """Write the collapsed-stack file; returns the line count."""
        lines = self.collapsed()
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                              encoding="utf-8")
        return len(lines)

    def to_dict(self, top: int = 30) -> dict:
        """The report payload: cadence, totals, hot table."""
        return {
            "schema": PROFILE_SCHEMA,
            "interval_s": self.interval,
            "samples": self.sample_count,
            "wall_s": round(self.wall_seconds, 3),
            "hot": self.hot_table(top),
        }
