"""The flight recorder: streaming time-series frames of a live run.

The obs layer's report (:mod:`repro.obs.report`) is an *end-of-run*
snapshot; a 30-day simulated cell is observable only after it finishes.
The recorder closes that gap: while ``borg-repro simulate --record``
runs, it samples the live :class:`~repro.obs.registry.MetricsRegistry`
on a simulated-time cadence and appends one JSONL *frame* per sample to
a buffered, crash-safe sink — so the run can be watched, plotted, and
post-mortemed hour by hour, even if the process dies mid-flight.

Frame schema (``repro.obs.frames/1``), one JSON object per line:

* deterministic payload — ``cell``, per-cell ``seq``, the simulated
  timestamp ``t_sim`` (a frame-interval boundary), cumulative per-cell
  ``counters``, last-value ``gauges``, and live ``queues`` depths
  (pending/parked, probed from the simulator directly).  At a fixed
  seed this payload is byte-identical run to run *and* identical
  between serial and ``--workers N`` execution, because recording
  always scopes one fresh registry per cell (the driver's fork-safety
  pattern) so frames only ever see their own cell's delta.
* volatile payload — everything wall-clock-flavored lives under the
  single ``"wall"`` key (elapsed seconds, events/sec, RSS) and is
  excluded from determinism comparisons (:func:`strip_volatile`).

The run ends with one ``"final"`` frame sampled from the parent
registry after all cells merged; its cumulative counters equal the
``--obs-out`` report's counters exactly (same snapshot source).

Crash safety: the sink writes whole lines and flushes on a small
frame-count cadence, so a run killed mid-write leaves a JSONL prefix of
the run with at most one torn last line, which :func:`recover_jsonl`
truncates (the campaign's result cache runs it on every probe).  See
DESIGN.md §11.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    TextIO, Union)

from repro.obs.registry import MetricsRegistry, get_registry
from repro.util.errors import ReproError
from repro.util.timeutil import HOUR_SECONDS

#: The frames schema identifier (bump on incompatible frame layout changes).
FRAMES_SCHEMA = "repro.obs.frames/1"

#: Frame keys that may differ between two runs of the same seed (wall
#: clock, memory, rates).  Everything else is part of the determinism
#: contract.
VOLATILE_KEYS = ("wall",)

#: Default sampling cadence: one frame per simulated hour.
DEFAULT_INTERVAL = HOUR_SECONDS

#: Frames buffered in the sink before a flush reaches the OS.
SINK_BUFFER_FRAMES = 8


class FrameSchemaError(ReproError):
    """An obs file that is empty, not JSON, or of a missing, foreign, or
    unsupported schema."""


# ---------------------------------------------------------------------------
# sink
# ---------------------------------------------------------------------------

def recover_jsonl(path: Union[str, os.PathLike]) -> int:
    """Truncate a trailing partial line of ``path``; return bytes dropped.

    A process killed mid-``write`` can leave the final line of an
    append-only JSONL file incomplete (no newline, or syntactically
    broken JSON).  Every complete, newline-terminated line was written
    atomically from the writer's buffer, so recovery is: keep the
    longest prefix ending in a newline whose final line parses, drop
    the rest.  Missing files recover to nothing (0 bytes dropped).
    """
    path = Path(path)
    if not path.exists():
        return 0
    data = path.read_bytes()
    if not data:
        return 0
    keep = len(data)
    if not data.endswith(b"\n"):
        cut = data.rfind(b"\n")
        keep = cut + 1 if cut >= 0 else 0
    # The last retained line must itself parse (a crash can land exactly
    # on a flush boundary mid-buffer in pathological filesystems).
    while keep > 0:
        start = data.rfind(b"\n", 0, keep - 1) + 1
        try:
            json.loads(data[start:keep].decode("utf-8"))
            break
        except (ValueError, UnicodeDecodeError):
            keep = start
    dropped = len(data) - keep
    if dropped:
        with open(path, "r+b") as f:
            f.truncate(keep)
    return dropped


class FrameSink:
    """Buffered, crash-safe, append-only JSONL writer for frames.

    Frames are serialized to compact single-line JSON with sorted keys
    (stable, diffable output) and buffered; every
    ``SINK_BUFFER_FRAMES`` appends — and on :meth:`flush`/:meth:`close`
    — the buffer is written and flushed to the OS in one call, so a
    crash loses at most the buffered tail and never interleaves partial
    lines.  Opening a path truncates it.
    """

    def __init__(self, path: Union[str, os.PathLike],
                 buffer_frames: int = SINK_BUFFER_FRAMES) -> None:
        self.path = Path(path)
        self.frames_written = 0
        self._buffer: List[str] = []
        self._buffer_frames = max(1, buffer_frames)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file: Optional[TextIO] = open(self.path, "w",
                                            encoding="utf-8")

    def append(self, frame: dict) -> None:
        """Queue one frame; flushes on the buffering cadence."""
        if self._file is None:
            raise ValueError(f"FrameSink({self.path}) is closed")
        self._buffer.append(
            json.dumps(frame, sort_keys=True, separators=(",", ":")))
        self.frames_written += 1
        if len(self._buffer) >= self._buffer_frames:
            self.flush()

    def flush(self) -> None:
        if self._buffer and self._file is not None:
            self._file.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None

    def __enter__(self) -> "FrameSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# reading / determinism helpers
# ---------------------------------------------------------------------------

def strip_volatile(frame: dict) -> dict:
    """The frame's deterministic payload (volatile keys removed)."""
    return {k: v for k, v in frame.items() if k not in VOLATILE_KEYS}


def frames_fingerprint(frames: List[dict]) -> str:
    """SHA-256 over the deterministic payload of a frame sequence."""
    h = hashlib.sha256()
    for frame in frames:
        h.update(json.dumps(strip_volatile(frame), sort_keys=True,
                            separators=(",", ":")).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def iter_frames(stream: Iterable[Union[str, bytes]],
                source: str = "<frames>") -> Iterator[dict]:
    """Parse frames from an open JSONL stream (text or bytes), validating
    each schema."""
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            frame = json.loads(line)
        except ValueError as exc:
            raise FrameSchemaError(
                f"{source}:{lineno}: not valid JSONL ({exc})") from exc
        if not isinstance(frame, dict):
            raise FrameSchemaError(
                f"{source}:{lineno}: frame is not a JSON object")
        schema = frame.get("schema")
        if schema != FRAMES_SCHEMA:
            raise FrameSchemaError(
                f"{source}:{lineno}: unsupported frames schema {schema!r} "
                f"(this build reads {FRAMES_SCHEMA!r})")
        yield frame


def read_frames(path: Union[str, os.PathLike]) -> List[dict]:
    """Load every frame of a ``repro.obs.frames/1`` JSONL file."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as f:
        return list(iter_frames(f, source=str(path)))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _read_rss_kb() -> Optional[int]:
    """Resident set size in KiB, or None where /proc is unavailable."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, OSError, ValueError):
        return None


class CellRecorder:
    """Samples one cell's metrics on a simulated-time cadence.

    The simulator calls :meth:`tick` from its event loop (behind an
    ``if recorder is not None`` guard — lint rule RPR007) with each
    event's simulated timestamp; whenever a frame-interval boundary is
    crossed, the recorder emits one frame per crossed boundary, stamped
    at the boundary time, carrying the registry state at the sampling
    point.  :meth:`finish` emits the remaining boundaries up to the
    horizon after the cell's counters are fully exported, so the last
    cell frame holds the cell's closing cumulative state.

    Recording runs inside a per-cell scoped registry in *every*
    execution mode (see :func:`repro.sim.driver.run_cells`), so the
    sampled counters are exactly this cell's delta and frames agree
    between serial and pooled runs.
    """

    #: Queue-depth probe names, bound by ``CellSim`` at attach time.
    PROBE_NAMES = ("pending", "parked")

    def __init__(self, cell: str, interval: float = DEFAULT_INTERVAL,
                 emit: Optional[Callable[[dict], None]] = None) -> None:
        if interval <= 0:
            raise ValueError(f"record interval must be positive, got {interval}")
        self.cell = cell
        self.interval = float(interval)
        self.frames: List[dict] = []
        self._emit = emit if emit is not None else self.frames.append
        #: The simulated time of the next frame boundary — read directly
        #: by the event-loop guard, so keep it a plain attribute.
        self.next_due = float(interval)
        self.seq = 0
        self._probes: Dict[str, Callable[[], int]] = {}
        self._counters_probe: Optional[Callable[[], Dict[str, int]]] = None
        self._registry: Optional[MetricsRegistry] = None
        self._wall_start = time.perf_counter()
        self._wall_last = self._wall_start
        self._events_last = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, probes: Dict[str, Callable[[], int]],
               counters_probe: Optional[Callable[[], Dict[str, int]]] = None,
               ) -> None:
        """Bind live probes and the current registry.

        Called by ``CellSim`` once, inside the scoped registry the cell
        runs under; the registry is captured here so samples read the
        cell's own delta even while other registries exist.
        ``counters_probe`` returns the simulator's live integrity
        counters (unprefixed names); the sim only bulk-exports those to
        the registry at end of run, so sampling them live is what makes
        mid-run frames show schedule/eviction/restart progress.  At the
        horizon the probe values equal the exported registry values, so
        the overlay never desynchronizes the final cell frame.
        """
        self._probes = dict(probes)
        self._counters_probe = counters_probe
        self._registry = get_registry()
        self._wall_start = time.perf_counter()
        self._wall_last = self._wall_start

    # -- sampling -------------------------------------------------------------

    def tick(self, t_sim: float) -> None:
        """Hot-loop hook: emit frames for every boundary ``<= t_sim``."""
        while t_sim >= self.next_due:
            self._sample(self.next_due)
            self.next_due += self.interval

    def finish(self, horizon: float) -> None:
        """Emit the remaining boundary frames up to ``horizon`` inclusive.

        Called after the cell's counters are exported; trailing frames
        (simulated hours after the last event) repeat the closing state,
        which keeps the per-hour table regular out to the horizon.
        """
        while self.next_due <= horizon:
            self._sample(self.next_due)
            self.next_due += self.interval

    def _sample(self, t_frame: float) -> None:
        registry = self._registry if self._registry is not None \
            else get_registry()
        snapshot = registry.snapshot()
        counters = dict(snapshot.counters)
        if self._counters_probe is not None:
            for name, value in self._counters_probe().items():
                counters["sim." + name] = int(value)
        events = counters.get("sim.events_processed", 0)
        now = time.perf_counter()
        wall_delta = now - self._wall_last
        frame = {
            "schema": FRAMES_SCHEMA,
            "kind": "frame",
            "cell": self.cell,
            "seq": self.seq,
            "t_sim": t_frame,
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(snapshot.gauges.items())),
            "queues": {name: int(probe())
                       for name, probe in sorted(self._probes.items())},
            "wall": {
                "elapsed_s": round(now - self._wall_start, 6),
                "events_per_s": round(
                    (events - self._events_last) / wall_delta, 1)
                    if wall_delta > 0 else 0.0,
                "rss_kb": _read_rss_kb(),
            },
        }
        self._wall_last = now
        self._events_last = events
        self.seq += 1
        self._emit(frame)


# ---------------------------------------------------------------------------
# TTY status line
# ---------------------------------------------------------------------------

class StatusLine:
    """A single self-overwriting progress line on a TTY stream.

    Inert (every call a no-op) when the stream is not a terminal, so
    recording in CI or under redirection never interleaves control
    characters into logs.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self.enabled = bool(getattr(self._stream, "isatty", lambda: False)())
        self._width = 0
        self._dirty = False

    def update(self, text: str) -> None:
        if not self.enabled:
            return
        pad = max(0, self._width - len(text))
        self._stream.write("\r" + text + " " * pad)
        self._stream.flush()
        self._width = len(text)
        self._dirty = True

    def close(self, keep_last: bool = False) -> None:
        """End the status line (newline if anything was drawn)."""
        if not self.enabled or not self._dirty:
            return
        if keep_last:
            self._stream.write("\n")
        else:
            self._stream.write("\r" + " " * self._width + "\r")
        self._stream.flush()
        self._dirty = False
        self._width = 0


def _fmt_count(n: float) -> str:
    if n >= 1e6:
        return f"{n / 1e6:.1f}M"
    if n >= 1e3:
        return f"{n / 1e3:.1f}k"
    return f"{n:.0f}"


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

class RunRecorder:
    """The whole-run recorder: one sink, many cells, one final frame.

    Built by the CLI when ``--record`` is given and handed to
    :func:`repro.sim.driver.run_cells`.  In serial mode each cell's
    frames stream straight into the sink as they are sampled; in pooled
    mode each worker collects its cell's frames in memory and the
    parent appends them in task order as cells complete — either way
    the file holds each cell's frames contiguously, in scenario order,
    with identical deterministic payloads, and every completed cell
    passes through :meth:`merge_frames` (the final frame's ``seq``).
    """

    def __init__(self, path: Union[str, os.PathLike],
                 interval: float = DEFAULT_INTERVAL,
                 status: Optional[StatusLine] = None) -> None:
        self.interval = float(interval)
        self.sink = FrameSink(path)
        self.status = status if status is not None else StatusLine()
        self.cells_done = 0
        self._max_t_sim = 0.0

    # -- serial path ----------------------------------------------------------

    def for_cell(self, cell: str) -> CellRecorder:
        """A streaming per-cell recorder (serial execution)."""
        return CellRecorder(cell, interval=self.interval,
                            emit=self._on_frame)

    def _on_frame(self, frame: dict) -> None:
        self.sink.append(frame)
        self._max_t_sim = max(self._max_t_sim, frame.get("t_sim", 0.0))
        wall = frame.get("wall") or {}
        counters = frame.get("counters") or {}
        queues = frame.get("queues") or {}
        rss = wall.get("rss_kb")
        self.status.update(
            f"[record] cell {frame.get('cell')}  "
            f"t={frame.get('t_sim', 0.0) / HOUR_SECONDS:.1f}h  "
            f"events={_fmt_count(counters.get('sim.events_processed', 0))}  "
            f"{_fmt_count(wall.get('events_per_s') or 0)} ev/s  "
            f"pend={queues.get('pending', 0)}  "
            + (f"rss={rss // 1024}MB" if rss else ""))

    # -- per completed cell ---------------------------------------------------

    def merge_frames(self, frames: List[dict], cell: str = "") -> None:
        """Count one completed cell and append its collected frames
        (task order = file order; a streamed cell collected none)."""
        for frame in frames:
            self.sink.append(frame)
            self._max_t_sim = max(self._max_t_sim, frame.get("t_sim", 0.0))
        self.cells_done += 1
        self.status.update(f"[record] {self.cells_done} cell(s) merged"
                           + (f", last: {cell}" if cell else ""))

    # -- end of run -----------------------------------------------------------

    def finalize(self, command: str = "",
                 meta: Optional[dict] = None) -> dict:
        """Append the run-final frame (parent registry, everything merged).

        Its cumulative counters equal the ``--obs-out`` report written
        at the same point in the run — both read the same snapshot
        source — which is the property the trajectory tooling and the
        acceptance test pin down.
        """
        snapshot = get_registry().snapshot()
        frame = {
            "schema": FRAMES_SCHEMA,
            "kind": "final",
            "cell": None,
            "seq": self.cells_done,
            "t_sim": self._max_t_sim,
            "command": command,
            "meta": dict(meta or {}),
            "counters": dict(sorted(snapshot.counters.items())),
            "gauges": dict(sorted(snapshot.gauges.items())),
            "queues": {},
            "wall": {"rss_kb": _read_rss_kb()},
        }
        self.sink.append(frame)
        return frame

    def close(self) -> None:
        self.status.close()
        self.sink.close()

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# text rendering (the `stats` per-hour table)
# ---------------------------------------------------------------------------

#: (column header, counter name) pairs rendered as per-interval deltas.
_TABLE_DELTAS = (
    ("+events", "sim.events_processed"),
    ("+sched", "sim.schedule_events"),
    ("+evict", "sim.evictions"),
    ("+restart", "sim.task_restarts"),
)


def render_frames(frames: List[dict]) -> str:
    """Render a frames file as one per-hour table per cell.

    Cumulative counters are differenced frame-to-frame so each row shows
    what happened *in* that interval; queue depths are the live probe
    values at the frame boundary.
    """
    lines: List[str] = []
    cells: Dict[str, List[dict]] = {}
    final: Optional[dict] = None
    for frame in frames:
        if frame.get("kind") == "final":
            final = frame
        else:
            cells.setdefault(str(frame.get("cell")), []).append(frame)
    n_frames = sum(len(v) for v in cells.values())
    lines.append(f"repro.obs frames  (schema {FRAMES_SCHEMA}, "
                 f"{len(cells)} cell(s), {n_frames} frame(s)"
                 + (", final frame present)" if final else ")"))
    header = (f"  {'hour':>6s} {'events':>9s} "
              + " ".join(f"{h:>9s}" for h, _ in _TABLE_DELTAS)
              + f" {'pending':>8s} {'parked':>7s} {'ev/s':>8s}")
    for cell, cell_frames in cells.items():
        lines.append("")
        lines.append(f"cell {cell}:")
        lines.append(header)
        previous: Dict[str, int] = {}
        for frame in cell_frames:
            counters = frame.get("counters") or {}
            queues = frame.get("queues") or {}
            wall = frame.get("wall") or {}
            deltas = [counters.get(name, 0) - previous.get(name, 0)
                      for _, name in _TABLE_DELTAS]
            lines.append(
                f"  {frame.get('t_sim', 0.0) / HOUR_SECONDS:>6.1f} "
                f"{counters.get('sim.events_processed', 0):>9d} "
                + " ".join(f"{d:>9d}" for d in deltas)
                + f" {queues.get('pending', 0):>8d}"
                + f" {queues.get('parked', 0):>7d}"
                + f" {_fmt_count(wall.get('events_per_s') or 0):>8s}")
            previous = counters
    if final is not None:
        lines.append("")
        counters = final.get("counters") or {}
        lines.append("final frame (cumulative, all cells merged):")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<44s} {value}")
    return "\n".join(lines) + "\n"
