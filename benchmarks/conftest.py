"""Benchmark fixtures: bench-scale traces built once per session.

The benchmark suite regenerates every paper table/figure, so it needs
the 2011 cell plus all eight 2019 cells.  Building them dominates the
wall clock (a couple of minutes); everything is cached at session scope
and the individual tests check the paper's claims against them.  The
simulate-and-encode setup itself lives in :mod:`tests.trace_fixtures`,
shared with ``tests/conftest.py`` and parametrized on cell size.

Environment knobs (see :func:`tests.trace_fixtures.bench_scale`):
  REPRO_BENCH_MACHINES  machines per cell       (default 100)
  REPRO_BENCH_HOURS     trace horizon in hours  (default 48)
  REPRO_BENCH_SCALE     arrival-rate scale      (default 0.02)
  REPRO_BENCH_CELLS     2019 cells to simulate  (default all eight)
  REPRO_BENCH_SEED      simulation seed         (default 0)
"""

from __future__ import annotations

import pytest

from tests.trace_fixtures import bench_scale, build_trace, build_traces_2019

BENCH_SCALE = bench_scale()


@pytest.fixture(scope="session")
def bench_trace_2011():
    return build_trace("2011", BENCH_SCALE, verbose=True)


@pytest.fixture(scope="session")
def bench_traces_2019():
    return build_traces_2019(BENCH_SCALE, verbose=True)


@pytest.fixture(scope="session")
def bench_traces_2011(bench_trace_2011):
    return [bench_trace_2011]

