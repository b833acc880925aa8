"""Tests for the parallel multi-cell run driver (repro.sim.driver).

The driver's contract: ``run_cells(scenarios, workers=N)`` returns the
same results as running each scenario inline — identical traces (cells
derive all randomness from their scenario seed) and identical obs
counters (each worker's metrics snapshot is merged exactly once).
"""

import hashlib
import io

import numpy as np

from repro import obs
from repro.obs.fanout import default_workers
from repro.sim.driver import run_cells
from repro.trace import encode_cell
from repro.workload import scenarios_2019, small_test_scenario


def _fingerprint(trace) -> str:
    """SHA-256 over every table's columns, byte-exact."""
    h = hashlib.sha256()
    for name in sorted(trace.tables):
        table = trace.tables[name]
        h.update(name.encode())
        for col in table.column_names:
            values = table.column(col).values
            h.update(col.encode())
            if values.dtype == object:
                h.update(str(values.tolist()).encode())
            else:
                h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


def _scenarios():
    """Three fast, distinct 2019 cells (fresh objects per call)."""
    return scenarios_2019(seed=7, machines_per_cell=12, horizon_hours=3.0,
                          arrival_scale=0.015, cells=["a", "c", "g"])


class TestRunCells:
    def test_empty_input(self):
        assert run_cells([], workers=4) == []

    def test_serial_path_matches_scenario_run(self):
        scenario = small_test_scenario(seed=3, machines_per_cell=12,
                                       horizon_hours=3.0)
        direct = small_test_scenario(seed=3, machines_per_cell=12,
                                     horizon_hours=3.0).run()
        [via_driver] = run_cells([scenario], workers=1)
        assert _fingerprint(encode_cell(via_driver)) == \
            _fingerprint(encode_cell(direct))

    def test_results_come_back_in_input_order(self):
        results = run_cells(_scenarios(), workers=2)
        assert [r.config.name for r in results] == ["a", "c", "g"]

    def test_parallel_traces_identical_to_serial(self):
        # The determinism sweep: workers=2 must yield byte-identical
        # traces to the serial path for every cell.
        serial = [_fingerprint(encode_cell(r))
                  for r in run_cells(_scenarios(), workers=1)]
        parallel = [_fingerprint(encode_cell(r))
                    for r in run_cells(_scenarios(), workers=2)]
        assert serial == parallel

    def test_obs_counters_merged_exactly_once(self):
        with obs.scoped_registry() as serial_reg:
            run_cells(_scenarios(), workers=1)
        with obs.scoped_registry() as parallel_reg:
            run_cells(_scenarios(), workers=2)
        serial = serial_reg.snapshot().counters
        parallel = parallel_reg.snapshot().counters
        # Every simulator counter the serial run incremented must come
        # back with the same value from the pooled run (no double
        # merges, no dropped snapshots).
        sim_keys = [k for k, v in serial.items()
                    if k.startswith("sim.") and v
                    and k != "sim.parallel_batches"]
        assert sim_keys  # the run must actually have recorded something
        for key in sim_keys:
            assert parallel.get(key) == serial[key], key
        assert parallel.get("sim.parallel_batches") == 1

    def test_single_scenario_stays_inline(self):
        scenario = small_test_scenario(seed=1, machines_per_cell=8,
                                       horizon_hours=2.0)
        with obs.scoped_registry() as registry:
            run_cells([scenario], workers=4)
        # One scenario never pays pool startup: no parallel batch.
        assert not registry.snapshot().counters.get("sim.parallel_batches")

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestEdgeCases:
    """Degenerate inputs surfaced by the campaign runner: zero cells,
    workers exceeding the cell count, non-positive worker counts."""

    def test_empty_input_with_record_flushes_sink(self, tmp_path):
        from repro.obs.recorder import RunRecorder
        record = RunRecorder(tmp_path / "frames.jsonl")
        assert run_cells([], workers=4, record=record) == []
        record.close()
        # The sink was flushed and closed: the file exists and is empty
        # (no cells, no frames), not absent or half-buffered.
        assert (tmp_path / "frames.jsonl").read_text() == ""

    def test_workers_zero_and_negative_run_serial(self):
        for workers in (0, -3):
            # Fresh scenario per run: simulating mutates collection state.
            scenario = small_test_scenario(seed=5, machines_per_cell=8,
                                           horizon_hours=2.0)
            with obs.scoped_registry() as registry:
                [result] = run_cells([scenario], workers=workers)
            assert result.counters.jobs_submitted > 0
            # Serial path: no pool was ever spawned.
            counters = registry.snapshot().counters
            assert not counters.get("sim.parallel_batches")

    def test_pool_never_exceeds_cell_count(self):
        # 3 cells with workers=8 must spawn exactly 3 processes: the
        # pool-size gauge records min(workers, cells), never idle extras.
        with obs.scoped_registry() as registry:
            results = run_cells(_scenarios(), workers=8)
        assert len(results) == 3
        assert registry.snapshot().gauges.get("sim.pool_workers") == 3

    def test_recorded_pool_never_exceeds_cell_count(self, tmp_path):
        from repro.obs.recorder import RunRecorder
        record = RunRecorder(tmp_path / "frames.jsonl")
        with obs.scoped_registry() as registry:
            results = run_cells(_scenarios(), workers=16, record=record)
        record.close()
        assert len(results) == 3
        assert registry.snapshot().gauges.get("sim.pool_workers") == 3


def _faulty_scenarios():
    """Two failure-heavy cells: heavy faults + mixed archetypes."""
    return scenarios_2019(seed=7, machines_per_cell=12, horizon_hours=3.0,
                          arrival_scale=0.015, sample_period=300.0,
                          cells=["a", "g"], faults="heavy",
                          fault_rate=25.0, archetype_mix="mixed")


class TestFailureHeavyDeterminism:
    """The scenario-pack determinism sweep: fault injection, resubmission
    and archetype workloads must stay bit-exact between serial and
    pooled execution at a fixed seed."""

    def test_parallel_traces_identical_to_serial(self):
        serial = run_cells(_faulty_scenarios(), workers=1)
        pooled = run_cells(_faulty_scenarios(), workers=2)
        assert any(r.counters.fault_events for r in serial)
        assert [_fingerprint(encode_cell(r)) for r in serial] == \
            [_fingerprint(encode_cell(r)) for r in pooled]
        # The resubmission side stream is part of the contract too.
        assert [r.events.resubmit_events for r in serial] == \
            [r.events.resubmit_events for r in pooled]

    def test_rerun_is_bit_exact(self):
        a = run_cells(_faulty_scenarios(), workers=1)
        b = run_cells(_faulty_scenarios(), workers=1)
        assert [_fingerprint(encode_cell(r)) for r in a] == \
            [_fingerprint(encode_cell(r)) for r in b]
        assert [r.counters for r in a] == [r.counters for r in b]

    def test_serial_equals_pooled_frames(self, tmp_path):
        from repro.obs.recorder import RunRecorder, StatusLine, \
            read_frames, strip_volatile

        def record_run(name, workers):
            path = tmp_path / f"{name}.jsonl"
            with obs.scoped_registry():
                record = RunRecorder(path, interval=3600.0,
                                     status=StatusLine(io.StringIO()))
                run_cells(_faulty_scenarios(), workers=workers,
                          record=record)
                record.finalize("test")
                record.close()
            return [strip_volatile(f) for f in read_frames(path)
                    if f["kind"] == "frame"]

        serial = record_run("serial", None)
        pooled = record_run("pooled", 2)
        assert serial  # the failure-heavy run must emit cell frames
        assert serial == pooled
