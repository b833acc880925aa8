"""The capacity reconcile against its reference spelling.

``_reconcile_machine_usage`` must scale exactly the rows, by exactly the
factors, that the sort + ``reduceat`` + ``scale`` reference
(``tests/reconcile_oracles.py``) does.  Groups hold 1 to 20 rows, so the
group sums cross numpy's pairwise summation from 9 rows up, and they
are interleaved in row order, so only a stable grouping keeps each
sum's order.  Groups sit over and under capacity in each dimension.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Machine, Resources
from repro.sim.cell import _reconcile_machine_usage
from repro.sim.fleet import FleetState
from tests.reconcile_oracles import reference_reconcile

COLUMNS = ("avg_cpu", "max_cpu", "avg_mem", "max_mem")


def _fleet(capacities) -> FleetState:
    # Machine ids run against slot order, so a mix-up of the two shows.
    return FleetState([Machine(1_000 - 7 * i, Resources(cpu, mem))
                       for i, (cpu, mem) in enumerate(capacities)])


def _assert_matches_reference(usage, slots, fleet, period) -> None:
    got = {k: v.copy() for k, v in usage.items()}
    want = {k: v.copy() for k, v in usage.items()}
    _reconcile_machine_usage(got, slots, fleet, period)
    reference_reconcile(want, slots, fleet, period)
    for column in usage:
        assert got[column].dtype == want[column].dtype, column
        assert got[column].tobytes() == want[column].tobytes(), column


#: One group: (slot, window, rows, per-row load in units of capacity).
_GROUP = st.tuples(st.integers(0, 4), st.integers(0, 30),
                   st.integers(1, 20),
                   st.sampled_from((0.01, 0.04, 0.06, 0.2, 0.7)),
                   st.sampled_from((0.01, 0.04, 0.06, 0.2, 0.7)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 4.0)),
                min_size=5, max_size=5),
       st.lists(_GROUP, min_size=1, max_size=40),
       st.sampled_from((300.0, 60.0, 37.5, 0.7)),
       st.integers(0, 2**32 - 1))
def test_reconcile_matches_reference(capacities, groups, period, seed):
    fleet = _fleet(capacities)
    draw = np.random.default_rng(seed)
    slot, window, cpu, mem = [], [], [], []
    for s, w, rows, cpu_load, mem_load in groups:
        cap_cpu, cap_mem = capacities[s]
        slot += [s] * rows
        window += [w] * rows
        # Loads jitter around their level, so a group of k rows at level
        # x sums to about k * x capacities: some over, some under 98%.
        cpu += list(cap_cpu * cpu_load * draw.uniform(0.5, 1.5, rows))
        mem += list(cap_mem * mem_load * draw.uniform(0.5, 1.5, rows))
    # Interleave the groups' rows.
    perm = draw.permutation(len(slot))
    avg_cpu, avg_mem = np.array(cpu)[perm], np.array(mem)[perm]
    usage = {
        "window_start": (np.array(window, dtype=np.float64) * period)[perm],
        "avg_cpu": avg_cpu,
        "max_cpu": avg_cpu * draw.uniform(1.0, 1.3, len(perm)),
        "avg_mem": avg_mem,
        "max_mem": avg_mem * draw.uniform(1.0, 1.1, len(perm)),
    }
    slots = np.array(slot, dtype=np.int32)[perm]
    _assert_matches_reference(usage, slots, fleet, period)


def test_over_and_under_capacity_in_each_dimension():
    """Four groups of 12 rows on one window: over in CPU only, in memory
    only, in both, in neither."""
    fleet = _fleet([(1.0, 1.0)] * 4)
    loads = {0: (0.2, 0.01), 1: (0.01, 0.2), 2: (0.2, 0.2), 3: (0.01, 0.01)}
    slots = np.repeat(np.arange(4, dtype=np.int32), 12)
    cpu = np.array([loads[s][0] for s in slots]) * np.linspace(0.9, 1.1, 48)
    mem = np.array([loads[s][1] for s in slots]) * np.linspace(1.1, 0.9, 48)
    usage = {"window_start": np.zeros(48), "avg_cpu": cpu,
             "max_cpu": cpu * 1.2, "avg_mem": mem, "max_mem": mem * 1.05}
    before = {k: v.copy() for k, v in usage.items()}
    _assert_matches_reference(usage, slots, fleet, 300.0)
    _reconcile_machine_usage(usage, slots, fleet, 300.0)
    changed_cpu = usage["avg_cpu"] != before["avg_cpu"]
    changed_mem = usage["avg_mem"] != before["avg_mem"]
    assert changed_cpu.tolist() == [s in (0, 2) for s in slots]
    assert changed_mem.tolist() == [s in (1, 2) for s in slots]


def test_empty_input():
    usage = {k: np.empty(0) for k in ("window_start",) + COLUMNS}
    _assert_matches_reference(usage, np.empty(0, dtype=np.int32),
                              _fleet([(1.0, 1.0)]), 300.0)


#: Peak bytes the reconcile may allocate per usage row.  On the input
#: below (about 6 rows per group, 19% of rows in over-capacity groups,
#: close to a 2000-machine 2019 cell) it allocates 21.1 B/row: 17 B/row
#: for the packed sort words, their row order and the group-change
#: mask, and the rest per group or per over-capacity row.  The
#: reference spelling (``tests/reconcile_oracles.py``) allocates
#: 65 B/row here.
PEAK_BYTES_PER_ROW = 24


def test_peak_memory_per_row():
    n_slots, n_windows, n = 400, 80, 200_000
    draw = np.random.default_rng(3)
    fleet = _fleet([(1.0, 1.0)] * n_slots)
    slots = draw.integers(0, n_slots, n).astype(np.int32)
    window = draw.integers(0, n_windows, n)
    avg_cpu = draw.uniform(0.0, 0.2, n)
    usage = {"window_start": window * 300.0, "avg_cpu": avg_cpu,
             "max_cpu": avg_cpu * 1.2, "avg_mem": avg_cpu * 0.5,
             "max_mem": avg_cpu * 0.6}
    before = avg_cpu.copy()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _reconcile_machine_usage(usage, slots, fleet, 300.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0.1 < np.mean(usage["avg_cpu"] != before) < 0.3
    assert peak / n < PEAK_BYTES_PER_ROW, f"{peak / n:.1f} B/row"
