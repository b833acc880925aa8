"""Parallel multi-cell run driver.

Cell simulations are embarrassingly parallel: each
:class:`~repro.workload.scenarios.CellScenario` carries its own config,
fleet, workload and seed, and two cells never share mutable state.
:func:`run_cells` hands every cell to :func:`repro.obs.fan_out`, which
decides inline versus pooled, runs each cell in a fresh scoped
registry and merges its metrics exactly once, in scenario order.  The
simulated traces agree between ``workers=1`` and ``workers=N`` because
each cell's RNG is derived only from its scenario seed (see the driver
determinism test).

Flight recording (``record=``) rides on the same per-cell scope: the
frames each cell's :class:`~repro.obs.recorder.CellRecorder` samples
are exactly that cell's metrics delta, so recorded frame payloads are
identical between serial and ``--workers N`` execution.  Serial cells
stream frames straight into the sink as they are sampled (which keeps
the live status line moving); pooled cells collect frames worker-side
and the parent appends each batch as its cell's result is yielded.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs.recorder import CellRecorder, RunRecorder
from repro.sim.cell import CellResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.workload.scenarios import CellScenario


def cell_task(scenario: CellScenario, interval: Optional[float] = None,
              stream: Optional[RunRecorder] = None
              ) -> Tuple[CellResult, List[dict]]:
    """Simulate one cell; return its result and collected frames.

    ``stream`` records the cell straight into a run's sink (serial
    only: a :class:`RunRecorder` does not cross processes); otherwise
    ``interval`` builds a collecting recorder (the pooled path), and
    with neither the cell is unrecorded.  The frame list is empty unless
    frames were collected.
    """
    recorder: Optional[CellRecorder] = None
    if stream is not None:
        recorder = stream.for_cell(scenario.name)
    elif interval is not None:
        recorder = CellRecorder(scenario.name, interval=interval)
    result = scenario.run(recorder=recorder)
    return result, [] if recorder is None else recorder.frames


def run_cells(scenarios: Sequence[CellScenario],
              workers: Optional[int] = None,
              record: Optional[RunRecorder] = None) -> List[CellResult]:
    """Simulate cells through :func:`repro.obs.fan_out`.

    Results come back in input order, and each cell's obs metrics are
    merged into this process's registry once, in that order, so metrics
    agree between serial and parallel runs.

    With ``record`` set, frames land in the recorder's sink in scenario
    order in both modes and every cell counts towards the final frame's
    ``seq``; the caller still owns :meth:`RunRecorder.finalize`/``close``
    (the final frame should be sampled after trace encoding so it
    matches the obs report).
    """
    if record is not None and obs.pool_size(workers, len(scenarios)) == 1:
        task = functools.partial(cell_task, stream=record)
    else:
        task = functools.partial(
            cell_task, interval=None if record is None else record.interval)
    results: List[CellResult] = []
    for scenario, (result, frames) in zip(
            scenarios, obs.fan_out(task, scenarios, workers, section="sim")):
        if record is not None:
            record.merge_frames(frames, cell=scenario.name)
        results.append(result)
    if record is not None:
        # A recording run gets its sink flushed even with zero cells, so
        # the frames file is complete and parseable.
        record.sink.flush()
    return results
