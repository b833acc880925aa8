"""Property tests: the vectorized placement kernel == the scalar loop.

:meth:`PlacementPolicy.find_machine` runs as a structure-of-arrays
kernel over :class:`FleetState`.  Its contract is *bit-equivalence* with
looping the scalar reference methods ``_admissible`` / ``_score`` over
the same candidate indices — same float operations in the same order,
same tie-breaking (first occurrence wins).  These tests hold the two
paths together over randomized fleets, requests and constraints, and
pin the incremental-sync invariant the kernel depends on.
"""

import numpy as np
import pytest

from repro.sim import Machine, Resources, Tier
from repro.sim.entities import Collection, CollectionType, Instance
from repro.sim.fleet import FleetState
from repro.sim.scheduler import PlacementPolicy, SchedulerParams

PLATFORMS = ("amd-rome", "intel-skylake", "arm-n1")


def _reference_find_machine(policy, machines, request, constraint, rng):
    """The old per-object loop: sample, scalar-check, full-scan fallback.

    Draws candidate indices with per-call ``rng.integers`` — bit-identical
    to the kernel's pre-drawn index block consumed in order.
    """
    n = len(machines)
    if n == 0:
        return None
    sampled = None
    if policy.params.candidates < n:
        idx = rng.integers(0, n, size=policy.params.candidates)
        best, best_score = None, float("inf")
        for i in idx:
            m = machines[int(i)]
            if policy._admissible(m, request, constraint):
                score = policy._score(m, request)
                if score < best_score:
                    best, best_score = m, score
        if best is not None:
            return best
        sampled = {int(i) for i in idx}
    best, best_score = None, float("inf")
    for i, m in enumerate(machines):
        if sampled is not None and i in sampled:
            continue
        if policy._admissible(m, request, constraint):
            score = policy._score(m, request)
            if score < best_score:
                best, best_score = m, score
    return best


def _random_fleet(rng, n):
    machines = []
    for i in range(n):
        cap = Resources(float(rng.uniform(0.2, 2.0)),
                        float(rng.uniform(0.2, 2.0)))
        m = Machine(i, cap,
                    platform=PLATFORMS[int(rng.integers(0, len(PLATFORMS)))])
        # Random pre-existing allocation, sometimes over-committed.
        m.allocated = Resources(float(rng.uniform(0.0, cap.cpu * 1.6)),
                                float(rng.uniform(0.0, cap.mem * 1.6)))
        m.up = bool(rng.random() < 0.9)
        machines.append(m)
    return machines


def _random_constraint(rng):
    r = rng.random()
    if r < 0.5:
        return ""
    if r < 0.9:
        return PLATFORMS[int(rng.integers(0, len(PLATFORMS)))]
    return "no-such-platform"


class TestKernelEquivalence:
    def test_kernel_matches_reference_randomized(self):
        master = np.random.default_rng(20260805)
        for trial in range(150):
            n = int(master.integers(1, 48))
            machines = _random_fleet(master, n)
            params = SchedulerParams(
                overcommit_cpu=float(master.uniform(1.0, 2.0)),
                overcommit_mem=float(master.uniform(1.0, 2.0)),
                candidates=int(master.integers(1, 20)))
            seed = int(master.integers(0, 2**31))
            policy = PlacementPolicy(params, np.random.default_rng(seed))
            ref_rng = np.random.default_rng(seed)
            fleet = FleetState(machines)
            for _ in range(6):
                request = Resources(float(master.uniform(0.01, 1.2)),
                                    float(master.uniform(0.01, 1.2)))
                constraint = _random_constraint(master)
                got = policy.find_machine(fleet, request, constraint)
                want = _reference_find_machine(policy, machines, request,
                                               constraint, ref_rng)
                assert got is want, (
                    f"trial {trial}: kernel picked "
                    f"{got and got.machine_id}, reference picked "
                    f"{want and want.machine_id} for {request} "
                    f"constraint={constraint!r}")


def _instance(cid, cpu, mem, tier=Tier.PROD):
    c = Collection(collection_id=cid, collection_type=CollectionType.JOB,
                   priority=200, tier=tier, user="u", submit_time=0.0)
    inst = Instance(collection=c, index=0, request=Resources(cpu, mem))
    c.instances.append(inst)
    return inst


class TestIncrementalSync:
    def test_random_churn_keeps_arrays_consistent(self):
        # place / remove / up-down churn through the Machine mutators
        # must keep the columnar mirror exact (the invariant the kernel's
        # bit-equivalence rests on).
        rng = np.random.default_rng(99)
        machines = _random_fleet(rng, 16)
        fleet = FleetState(machines)
        placed = []
        for step in range(300):
            op = rng.random()
            if op < 0.5:
                m = machines[int(rng.integers(0, len(machines)))]
                if m.up:
                    inst = _instance(step, float(rng.uniform(0.01, 0.3)),
                                     float(rng.uniform(0.01, 0.3)))
                    m.place(inst)
                    placed.append((m, inst))
            elif op < 0.8 and placed:
                m, inst = placed.pop(int(rng.integers(0, len(placed))))
                m.remove(inst)
            else:
                m = machines[int(rng.integers(0, len(machines)))]
                m.up = not m.up
        fleet.check_consistency()

    def test_sync_is_copy_not_recompute(self):
        # The array value must be the machine's own float, bit for bit.
        m = Machine(0, Resources(1.0, 1.0))
        fleet = FleetState([m])
        for k in range(1, 20):
            m.place(_instance(k, 0.1, 0.1))
        assert fleet.allocated_cpu[0] == m.allocated.cpu
        assert fleet.allocated_mem[0] == m.allocated.mem

    def test_check_consistency_raises_on_drift(self):
        m = Machine(0, Resources(1.0, 1.0))
        fleet = FleetState([m])
        fleet.alloc[0, 0] = 0.123  # simulate a missed sync
        with pytest.raises(AssertionError):
            fleet.check_consistency()

    def test_check_consistency_covers_sampled_path_mirror(self):
        # The sampled placement path reads py_alloc, not the arrays.
        m = Machine(0, Resources(1.0, 1.0))
        fleet = FleetState([m])
        fleet.py_alloc[0] = (0.123, 0.0)  # simulate a missed sync
        with pytest.raises(AssertionError):
            fleet.check_consistency()
