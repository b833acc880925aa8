"""Machine-speed probe: time measured work at a fixed reference speed.

The shared machine the benchmark runs on changes speed with its
neighbours' load, by up to 2x, in phases of seconds to minutes, and
CPU time slows with wall time.  A :class:`SpeedProbe` runs a fixed
slice of pure-Python reference work every ``interval`` seconds of CPU
time *inside* the measured region (from a ``SIGPROF`` interval timer),
so the slices sample the machine's speed over the same stretch of time
as the work they sit in.  The region's time, minus the slices, is then
scaled by ``REFERENCE_SLICE_S / mean slice time``: the seconds the work
would take on the machine at its reference speed.  A change to the
program moves the region's time but not the slices', so it still shows
in full.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from typing import List, Tuple

#: Mean wall seconds of one slice inside a measured region on the
#: reference machine (a 2-core Linux VM, Python 3.11) in its fast phase.
#: Scaled times are reported in seconds at this speed.
REFERENCE_SLICE_S = 0.00017

#: CPU seconds between slices.  About 2% of the measured time goes to the
#: slices, and is taken back out; a 2 s region holds about 200 slices.
INTERVAL_S = 0.01


def reference_work(n: int = 250) -> int:
    """The fixed slice: heap pushes and pops and dict updates, the kind
    of interpreter work the simulator's event loop does."""
    heap: List[Tuple[int, int]] = []
    counts = {}
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i & 127] = counts.get(i & 127, 0) + i
    while heap:
        heapq.heappop(heap)
    return len(counts)


class SpeedProbe:
    """Samples the machine's speed during one measured region.

    Use as a context manager around the region; afterwards
    :meth:`scaled` turns the region's raw (wall, CPU) seconds into
    seconds at the reference speed."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self._old = None

    def _on_signal(self, _signum, _frame) -> None:
        # A collection of the program's heap must not land in a slice.
        collecting = gc.isenabled()
        gc.disable()
        w0, c0 = time.perf_counter(), time.thread_time()
        reference_work()
        self.cpus.append(time.thread_time() - c0)
        self.walls.append(time.perf_counter() - w0)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self.walls.clear()
        self.cpus.clear()
        self._old = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old or signal.SIG_DFL)

    def net(self, wall: float, cpu: float) -> Tuple[float, float]:
        """(wall, CPU) of the region without the slices."""
        return wall - sum(self.walls), cpu - sum(self.cpus)

    def slowdown(self, clock: str = "wall") -> float:
        """Mean slice time over the reference slice time: how much slower
        than its reference speed the machine ran during the region (1.0
        when no slice was taken, in a region shorter than one interval)."""
        times = self.walls if clock == "wall" else self.cpus
        if not times:
            return 1.0
        # The mean, not the median: a slice that a slow moment stretches
        # stands for the stretch of the region around it.
        return sum(times) / len(times) / REFERENCE_SLICE_S

    def scaled(self, wall: float, cpu: float) -> Tuple[float, float]:
        """(wall, CPU) of the region without the slices, scaled to the
        reference speed."""
        wall, cpu = self.net(wall, cpu)
        return wall / self.slowdown("wall"), cpu / self.slowdown("cpu")
