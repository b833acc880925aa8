"""Parallel multi-cell run driver.

Cell simulations are embarrassingly parallel: each
:class:`~repro.workload.scenarios.CellScenario` carries its own config,
fleet, workload and seed, and two cells never share mutable state.
:func:`run_cells` runs every cell through one task function,
:func:`cell_task`, either inline or over a ``multiprocessing`` pool (one
task per cell, results in input order).  It reuses the store executor's
fork-safety pattern for observability: every cell runs inside a *fresh*
scoped :mod:`repro.obs` registry and returns the resulting
:class:`~repro.obs.Snapshot` with its result, and the parent merges each
snapshot exactly once, in scenario order.  Counters, gauges and span
trees therefore agree between ``workers=1`` and ``workers=N`` — and so
do the simulated traces themselves, because each cell's RNG is derived
only from its scenario seed (see the driver determinism test).

Flight recording (``record=``) rides on the same task: because every
cell runs in its own scoped registry, the frames each cell's
:class:`~repro.obs.recorder.CellRecorder` samples are exactly that
cell's metrics delta, and the recorded frame payloads are identical
between serial and ``--workers N`` execution.  Serial cells stream
frames straight into the sink as they are sampled (which keeps the live
status line moving); pooled cells collect frames worker-side and the
parent appends each batch as its cell completes (``imap`` keeps the
merge in scenario order).
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs.recorder import CellRecorder, RunRecorder
from repro.sim.cell import CellResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.workload.scenarios import CellScenario


def cell_task(scenario: CellScenario, interval: Optional[float] = None,
              recorder: Optional[CellRecorder] = None
              ) -> Tuple[CellResult, obs.Snapshot, List[dict]]:
    """Simulate one cell inside a fresh scoped registry.

    Returns the result, the cell's metrics delta and its collected
    flight-recorder frames.  ``recorder`` streams frames wherever it
    emits them (the serial path); otherwise ``interval`` builds a
    collecting recorder (the pooled path), and with neither the cell is
    unrecorded and the frame list is empty.

    Under ``fork`` start methods a worker begins with a copy of the
    parent's registry; recording into that copy and snapshotting it
    wholesale would re-count everything the parent had already recorded.
    The fresh scoped registry makes the returned snapshot exactly the
    delta of this one cell run, so the parent can merge each snapshot
    once — no double counts, no drops.
    """
    if recorder is None and interval is not None:
        recorder = CellRecorder(scenario.name, interval=interval)
    with obs.scoped_registry() as registry:
        result = scenario.run(recorder=recorder)
    frames = recorder.frames if recorder is not None else []
    return result, registry.snapshot(), frames


def run_cells(scenarios: Sequence[CellScenario],
              workers: Optional[int] = None,
              record: Optional[RunRecorder] = None) -> List[CellResult]:
    """Simulate cells, fanning out over processes when it pays off.

    ``workers=None`` or ``<= 1`` runs inline; otherwise a pool of
    ``min(workers, len(scenarios))`` processes maps over the scenarios
    with ``chunksize=1`` (cells are few and coarse — static chunking
    would serialize the longest cells behind each other).  Results come
    back in input order regardless of completion order, and each cell's
    obs metrics are merged into this process's registry in that order
    (exactly once per cell), so metrics agree between serial and
    parallel runs.

    With ``record`` set, frames land in the recorder's sink in scenario
    order in both modes; the caller still owns
    :meth:`RunRecorder.finalize`/``close`` (the final frame should be
    sampled after trace encoding so it matches the obs report).
    """
    # ``workers`` <= 1 (including 0 and negatives) means serial, and a
    # pool never exceeds the scenario count: requesting ``--workers 8``
    # for 3 cells spawns 3 processes, not 8 with 5 idle.  Zero cells is
    # a legal (if degenerate) input: no pool, no idle workers.
    serial = workers is None or workers <= 1 or len(scenarios) <= 1
    registry = obs.get_registry()
    results: List[CellResult] = []
    with contextlib.ExitStack() as stack:
        if serial:
            outputs = (cell_task(scenario, recorder=None if record is None
                                 else record.for_cell(scenario.name))
                       for scenario in scenarios)
        else:
            n = min(workers, len(scenarios))
            obs.gauge("sim.pool_workers", n)
            obs.inc("sim.parallel_batches")
            pool = stack.enter_context(multiprocessing.Pool(processes=n))
            task = functools.partial(
                cell_task, interval=None if record is None else record.interval)
            outputs = pool.imap(task, scenarios, chunksize=1)
        for scenario, (result, snapshot, frames) in zip(scenarios, outputs):
            registry.merge_snapshot(snapshot)
            if record is not None and not serial:
                record.merge_frames(frames, cell=scenario.name)
            results.append(result)
    if record is not None:
        # A recording run gets its sink flushed even with zero cells, so
        # the frames file is complete and parseable.
        record.sink.flush()
    return results


def default_workers() -> int:
    """A sensible pool size: all-but-one CPU, at least one."""
    return max(1, (multiprocessing.cpu_count() or 2) - 1)
