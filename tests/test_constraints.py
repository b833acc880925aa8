"""Tests for placement constraints, end to end."""

import numpy as np
import pytest

from repro.analysis import constraints as constraints_analysis
from repro.sim import CellConfig, CellSim, Machine, Resources, Tier
from repro.sim.entities import Collection, CollectionType, EndReason, Instance
from repro.sim.fleet import FleetState
from repro.sim.scheduler import PlacementPolicy, SchedulerParams
from repro.trace import encode_cell, validate_trace
from repro.util.rng import RngFactory

PARAMS = SchedulerParams(overcommit_cpu=1.0, overcommit_mem=1.0)


class TestPolicyConstraints:
    def _fleet(self):
        return FleetState([Machine(0, Resources(1.0, 1.0), platform="A"),
                           Machine(1, Resources(1.0, 1.0), platform="B")])

    def test_constraint_restricts_platform(self):
        policy = PlacementPolicy(PARAMS, np.random.default_rng(0))
        fleet = self._fleet()
        for _ in range(10):
            found = policy.find_machine(fleet, Resources(0.1, 0.1),
                                        constraint="B")
            assert found is not None and found.platform == "B"

    def test_unsatisfiable_constraint(self):
        policy = PlacementPolicy(PARAMS, np.random.default_rng(0))
        assert policy.find_machine(self._fleet(), Resources(0.1, 0.1),
                                   constraint="Z") is None

    def test_empty_constraint_means_anywhere(self):
        policy = PlacementPolicy(PARAMS, np.random.default_rng(0))
        assert policy.find_machine(self._fleet(), Resources(0.1, 0.1),
                                   constraint="") is not None

    def test_preemption_respects_constraint(self):
        fleet = self._fleet()
        filler = Collection(collection_id=1, collection_type=CollectionType.JOB,
                            priority=25, tier=Tier.FREE, user="u", submit_time=0.0)
        inst = Instance(collection=filler, index=0, request=Resources(0.9, 0.9))
        filler.instances.append(inst)
        fleet.machines[0].place(inst)  # platform A full of preemptible work
        policy = PlacementPolicy(PARAMS, np.random.default_rng(0))
        found_a = policy.find_preemption(fleet, Resources(0.5, 0.5),
                                         Tier.PROD.rank, constraint="A")
        found_b = policy.find_preemption(fleet, Resources(0.5, 0.5),
                                         Tier.PROD.rank, constraint="B")
        assert found_a is not None and found_a[0].platform == "A"
        assert found_b is None  # nothing preemptible on B


class TestCellConstraints:
    def _run(self):
        machines = [Machine(0, Resources(1.0, 1.0), platform="A"),
                    Machine(1, Resources(1.0, 1.0), platform="B")]
        jobs = []
        for i, platform in enumerate(("A", "B", "")):
            c = Collection(
                collection_id=i + 1, collection_type=CollectionType.JOB,
                priority=112, tier=Tier.BEB, user="u", submit_time=10.0 * i,
                planned_duration=1800.0, planned_end=EndReason.FINISH,
                constraint=platform, cpu_usage_fraction=0.5,
                mem_usage_fraction=0.5,
            )
            c.instances.append(Instance(collection=c, index=0,
                                        request=Resources(0.2, 0.2)))
            jobs.append(c)
        config = CellConfig(name="t", era="2019", horizon=2 * 3600.0,
                            restart_rate_per_hour=0.0,
                            eviction_rate_per_hour={t: 0.0 for t in Tier},
                            machine_downtime_per_month=0.0,
                            batch_queueing=False)
        return CellSim(config, machines, jobs, RngFactory(0)).run()

    def test_constrained_tasks_land_on_required_platform(self):
        result = self._run()
        placements = {}
        for e in result.events.instance_events:
            if e.event.value == "SCHEDULE":
                placements[e.collection_id] = e.machine_id
        assert placements[1] == 0  # platform A
        assert placements[2] == 1  # platform B

    def test_trace_validates_including_constraint_invariant(self):
        trace = encode_cell(self._run())
        assert validate_trace(trace) == []
        constraints = trace.collection_events.column("constraint").values
        assert set(constraints.tolist()) == {"A", "B", ""}


class TestWorkloadConstraints:
    def test_generated_workload_has_constraints(self):
        from repro.workload import small_test_scenario
        sc = small_test_scenario(seed=13)
        constrained = [c for c in sc.workload if c.constraint]
        assert constrained, "2019 workload should carry some constraints"
        share = len(constrained) / len(sc.workload)
        assert 0.01 < share < 0.20
        platforms = {m.platform for m in sc.machines}
        assert all(c.constraint in platforms for c in constrained)


class TestConstraintAnalysis:
    def test_report_on_simulated_trace(self, traces_2019):
        rep = constraints_analysis.constraint_report(traces_2019)
        assert 0.0 < rep.constrained_job_fraction < 0.2
        assert rep.satisfied_fraction == pytest.approx(1.0)
        assert rep.constraints_by_platform
        d = rep.as_dict()
        assert len(d) == 4

    def test_2011_trace_has_fewer_constraints(self, traces_2011, traces_2019):
        r11 = constraints_analysis.constraint_report(traces_2011)
        r19 = constraints_analysis.constraint_report(traces_2019)
        assert r11.constrained_job_fraction <= r19.constrained_job_fraction
