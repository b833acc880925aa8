"""Tests for trace-driven workload replay."""

import dataclasses

import pytest

from repro.sim.cell import CellSim
from repro.trace import encode_cell, validate_trace
from repro.util.rng import RngFactory
from repro.workload.replay import (
    machines_from_trace,
    replay_components,
    workload_from_trace,
)
from tests.trace_fixtures import TEST_SCALE, build_scenarios


class TestReconstruction:
    def test_collection_population_preserved(self, trace_2019):
        workload = workload_from_trace(trace_2019)
        ce = trace_2019.collection_events
        n_submitted = len(ce.filter(ce.column("type") == "SUBMIT")
                          .distinct("collection_id"))
        assert len(workload) == n_submitted

    def test_tiers_and_widths_preserved(self, trace_2019, result_2019):
        replayed = {c.collection_id: c for c in workload_from_trace(trace_2019)}
        for original in result_2019.collections:
            replay = replayed[original.collection_id]
            assert replay.tier == original.tier
            assert replay.num_instances == original.num_instances
            assert replay.collection_type == original.collection_type
            assert replay.constraint == original.constraint

    def test_requests_preserved(self, trace_2019, result_2019):
        replayed = {c.collection_id: c for c in workload_from_trace(trace_2019)}
        original = result_2019.collections[0]
        replay = replayed[original.collection_id]
        for a, b in zip(original.instances, replay.instances):
            assert b.request.cpu == pytest.approx(a.request.cpu)
            assert b.request.mem == pytest.approx(a.request.mem)

    def test_parent_links_preserved(self, trace_2019, result_2019):
        replayed = {c.collection_id: c for c in workload_from_trace(trace_2019)}
        parents_original = {c.collection_id: c.parent_id
                            for c in result_2019.collections}
        for cid, parent in parents_original.items():
            assert replayed[cid].parent_id == parent

    def test_machines_rebuilt(self, trace_2019, result_2019):
        machines = machines_from_trace(trace_2019)
        assert len(machines) == len(result_2019.machines)
        by_id = {m.machine_id: m for m in result_2019.machines}
        for m in machines:
            assert m.capacity.cpu == pytest.approx(by_id[m.machine_id].capacity.cpu)
            assert m.platform == by_id[m.machine_id].platform


class TestReplayConfig:
    @pytest.mark.parametrize("era", ["2011", "2019"])
    def test_default_config_is_the_recorded_cells(self, request, era):
        """A preset cell replays under its own knobs (over-commit, batch
        budget, hazards), not under bare ``CellConfig`` defaults."""
        trace = request.getfixturevalue(f"trace_{era}")
        source = build_scenarios(era, TEST_SCALE)[0].config
        replayed = replay_components(trace).config
        assert replayed.name == f"replay-{trace.cell}"
        assert dataclasses.replace(replayed, name=source.name) == source


class TestReplayRun:
    def test_replay_produces_valid_trace(self, trace_2019):
        parts = replay_components(trace_2019)
        result = CellSim(parts.config, parts.machines, parts.workload,
                         RngFactory(99)).run()
        replay_trace = encode_cell(result)
        assert validate_trace(replay_trace) == []

    def test_replay_utilization_close_to_original(self, trace_2019):
        from repro.analysis.utilization import total_usage_fraction
        parts = replay_components(trace_2019)
        result = CellSim(parts.config, parts.machines, parts.workload,
                         RngFactory(99)).run()
        replay_trace = encode_cell(result)
        original = total_usage_fraction(trace_2019, "cpu")
        replayed = total_usage_fraction(replay_trace, "cpu")
        assert replayed == pytest.approx(original, rel=0.1)

    def test_what_if_config_override(self, trace_2019):
        parts = replay_components(trace_2019)
        strict = dataclasses.replace(
            parts.config,
            scheduler=dataclasses.replace(parts.config.scheduler,
                                          overcommit_cpu=1.0,
                                          overcommit_mem=1.0),
        )
        result = CellSim(strict, machines_from_trace(trace_2019),
                         workload_from_trace(trace_2019), RngFactory(99)).run()
        # Stricter admission means allocation never exceeds capacity.
        u = result.usage
        if len(u["window_start"]):
            from repro.util.timeutil import HOUR_SECONDS
            cap = result.capacity
            hours = trace_2019.horizon / HOUR_SECONDS
            alloc = float((u["cpu_limit"] * u["duration"])[~u["in_alloc"]].sum()
                          ) / HOUR_SECONDS / (cap.cpu * hours)
            assert alloc <= 1.05
