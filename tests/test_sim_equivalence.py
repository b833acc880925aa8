"""Whole-simulation bit-equality across the performance knobs.

The event-queue implementation (heap vs calendar) may not move a single
byte of simulator output: event tuples, counters, and every float in the
usage trajectories must be identical.
These are the acceptance tests behind the goldens' stability — a golden
failure points at *what* changed, these point at *which knob* broke it.

Scenarios are single-use (``CellSim`` consumes the scenario's machine
and workload objects), so each configuration rebuilds from scratch and
determinism does the rest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload.scenarios import small_test_scenario


def run_config(era: str, queue=None):
    return small_test_scenario(seed=13, era=era, machines_per_cell=40,
                               horizon_hours=18.0, arrival_scale=0.03,
                               queue=queue).run()


def assert_results_byte_equal(a, b, label: str) -> None:
    assert a.events.collection_events == b.events.collection_events, label
    assert a.events.instance_events == b.events.instance_events, label
    assert a.events.machine_events == b.events.machine_events, label
    assert a.events.resubmit_events == b.events.resubmit_events, label
    assert a.counters == b.counters, label
    assert set(a.usage) == set(b.usage), label
    for key in a.usage:
        ua, ub = a.usage[key], b.usage[key]
        assert ua.dtype == ub.dtype and ua.shape == ub.shape, (label, key)
        # tobytes catches even -0.0 vs 0.0 and NaN payload differences
        # that array_equal would wave through.
        assert ua.tobytes() == ub.tobytes(), (label, key)


@pytest.mark.parametrize("era", ["2019", "2011"])
def test_all_knob_combinations_byte_identical(era):
    base = run_config(era, queue="heap")
    assert base.counters.jobs_submitted > 20  # non-trivial run
    for queue in ("calendar", None):
        other = run_config(era, queue=queue)
        assert_results_byte_equal(base, other, f"era={era} queue={queue}")


def test_usage_rows_are_nontrivial():
    """Guard against the equivalence test passing vacuously: the
    scenario must actually exercise the usage sampler."""
    result = run_config("2019")
    total_rows = sum(arr.shape[0] for arr in result.usage.values()
                     if isinstance(arr, np.ndarray) and arr.ndim >= 1)
    assert total_rows > 100
