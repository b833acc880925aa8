"""In-memory span recorder for the benchmark's traced runs.

A span records a name, the layer it belongs to, its parent span and two
clocks: wall (``perf_counter``) and CPU (``process_time``, user + sys).
Spans are opened around calls into the program: either directly, by the
benchmark's own code, or by temporarily replacing a module or class
attribute with a recording wrapper (:func:`patched`), so nothing in the
library is edited.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  Summing self time per layer therefore splits a
unit's time across layers without double counting nested calls (a lazy
store decode inside a figure reducer is charged to ``store.read``, not
to ``analysis``).
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    layer: str
    wall0: float
    cpu0: float
    wall1: float = 0.0
    cpu1: float = 0.0

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "layer": self.layer, "wall_s": self.wall1 - self.wall0,
                "cpu_s": self.cpu1 - self.cpu0,
                "start_s": self.wall0}


class Recorder:
    """Collects spans and counts in memory for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, layer,
                    time.perf_counter(), time.process_time())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.cpu1 = time.process_time()
            span.wall1 = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def wrap(self, fn: Callable, name: str, layer: str,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``after(result, *args)``
        may add counts from the call's inputs and result."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result, *args)
            return result
        return wrapper


#: (owner, attribute, span name, layer, after-hook or None).
Target = Tuple[object, str, str, str, Optional[Callable]]


@contextlib.contextmanager
def patched(recorder: Recorder, targets: Sequence[Target]) -> Iterator[None]:
    """Replace each target attribute with a recording wrapper, then
    restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, layer, after in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, layer, after))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= max(lo, end):
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, Tuple[float, float]]:
    """span id -> (self wall s, self CPU s)."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        kids = children[span.id]
        wall = span.wall1 - span.wall0 - covered(
            [(max(k.wall0, span.wall0), min(k.wall1, span.wall1)) for k in kids])
        cpu = span.cpu1 - span.cpu0 - covered(
            [(max(k.cpu0, span.cpu0), min(k.cpu1, span.cpu1)) for k in kids])
        out[span.id] = (wall, cpu)
    return out


def by_key(recorders: Sequence[Recorder], key: Callable[[Span], str]
           ) -> Dict[str, Tuple[float, float]]:
    """Self (wall, CPU) seconds summed over the recorders' spans, grouped
    by ``key``.  Span ids are per recorder, so each is resolved alone."""
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
    for recorder in recorders:
        own = self_times(recorder.spans)
        for span in recorder.spans:
            wall, cpu = own[span.id]
            out[key(span)][0] += wall
            out[key(span)][1] += cpu
    return {k: (v[0], v[1]) for k, v in out.items()}
