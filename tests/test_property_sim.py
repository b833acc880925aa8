"""Property-based tests over the whole simulator.

Hypothesis generates small random workloads (shapes, tiers, timings,
outcomes, dependencies); every one must run to completion, produce an
invariant-clean trace, and satisfy the engine's accounting identities.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CellConfig, CellSim, Machine, Resources, Tier
from repro.sim.entities import (
    Collection,
    CollectionType,
    EndReason,
    Instance,
    SchedulerKind,
)
from repro.trace import encode_cell, validate_trace
from repro.util.rng import RngFactory

TIERS = [Tier.FREE, Tier.BEB, Tier.MID, Tier.PROD]
ENDS = [EndReason.FINISH, EndReason.KILL, EndReason.FAIL]

job_strategy = st.fixed_dictionaries({
    "tier": st.sampled_from(TIERS),
    "submit": st.floats(min_value=0.0, max_value=3600.0 * 3),
    "duration": st.floats(min_value=30.0, max_value=3600.0 * 6),
    "n_tasks": st.integers(min_value=1, max_value=6),
    "cpu": st.floats(min_value=0.01, max_value=0.4),
    "mem": st.floats(min_value=0.01, max_value=0.4),
    "end": st.sampled_from(ENDS),
    "batch": st.booleans(),
    "child_of_previous": st.booleans(),
})

PRIORITY = {Tier.FREE: 25, Tier.BEB: 112, Tier.MID: 117, Tier.PROD: 200}


def build_workload(specs):
    collections = []
    for i, spec in enumerate(specs):
        parent = None
        if spec["child_of_previous"] and collections:
            parent = collections[-1].collection_id
        c = Collection(
            collection_id=i + 1,
            collection_type=CollectionType.JOB,
            priority=PRIORITY[spec["tier"]],
            tier=spec["tier"],
            user=f"user_{i % 3}",
            submit_time=spec["submit"],
            scheduler=(SchedulerKind.BATCH if spec["batch"]
                       and spec["tier"] is Tier.BEB else SchedulerKind.BORG),
            parent_id=parent,
            planned_duration=spec["duration"],
            planned_end=spec["end"],
            cpu_usage_fraction=0.5,
            mem_usage_fraction=0.5,
        )
        for idx in range(spec["n_tasks"]):
            c.instances.append(Instance(
                collection=c, index=idx,
                request=Resources(spec["cpu"], spec["mem"]),
            ))
        collections.append(c)
    return collections


def build_sim(specs, seed):
    config = CellConfig(
        name="prop", era="2019", horizon=6 * 3600.0,
        restart_rate_per_hour=1.0,
        machine_downtime_per_month=50.0,
        machine_downtime_duration=300.0,
    )
    machines = [Machine(i, Resources(1.0, 1.0)) for i in range(3)]
    return CellSim(config, machines, build_workload(specs), RngFactory(seed))


def run(specs, seed):
    return build_sim(specs, seed).run()


@settings(max_examples=25, deadline=None)
@given(st.lists(job_strategy, min_size=1, max_size=12),
       st.integers(min_value=0, max_value=100))
def test_any_workload_yields_valid_trace(specs, seed):
    result = run(specs, seed)
    trace = encode_cell(result)
    assert validate_trace(trace) == []


@settings(max_examples=25, deadline=None)
@given(st.lists(job_strategy, min_size=1, max_size=12),
       st.integers(min_value=0, max_value=100))
def test_engine_accounting_identities(specs, seed):
    sim = build_sim(specs, seed)
    result = sim.run()
    # Counters match the event log.
    schedules = sum(1 for e in result.events.instance_events
                    if e.event.value == "SCHEDULE")
    assert schedules == result.counters.schedule_events
    # Every dead instance's collection is done, with a matching reason.
    for collection in result.collections:
        if collection.is_done:
            for inst in collection.instances:
                assert inst.end_reason == collection.end_reason
    # No instance runs outside [0, horizon]: every run starts at a
    # SCHEDULE and stops at a logged event or the horizon, and every
    # usage window lies inside a run.
    horizon = 6 * 3600.0
    assert all(0.0 <= e.time <= horizon for e in result.events.instance_events)
    u = result.usage
    assert (u["window_start"] >= 0.0).all()
    assert (u["duration"] > 0.0).all()
    assert (u["window_start"] + u["duration"] <= horizon + 1e-6).all()
    # Machines are internally consistent at the end: allocation equals
    # the sum of requests of instances still placed.
    fleet = sim.fleet
    fleet.check_consistency()
    for slot in range(fleet.n):
        residents = fleet.residents[slot]
        cpu, mem = fleet.py_alloc[slot]
        assert abs(cpu - sum((i.request.cpu for i in residents), 0.0)) < 1e-6
        assert abs(mem - sum((i.request.mem for i in residents), 0.0)) < 1e-6


@settings(max_examples=10, deadline=None)
@given(st.lists(job_strategy, min_size=1, max_size=8),
       st.integers(min_value=0, max_value=50))
def test_determinism_property(specs, seed):
    a = run(specs, seed)
    b = run(specs, seed)
    assert len(a.events.instance_events) == len(b.events.instance_events)
    np.testing.assert_array_equal(a.usage["avg_cpu"], b.usage["avg_cpu"])