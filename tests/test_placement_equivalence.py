"""Property tests: the vectorized placement kernel == the scalar loop.

:meth:`PlacementPolicy.find_machine` runs as a structure-of-arrays
kernel over :class:`FleetState`.  Its contract is *bit-equivalence* with
looping the scalar reference methods ``_admissible`` / ``_score`` over
the same candidate slots — same float operations in the same order,
same tie-breaking (first occurrence wins).  These tests hold the two
paths together over randomized fleets, requests and constraints, and
pin the invariant the kernel depends on: every :class:`FleetState`
mutator writes the array and the list form of its state together.
"""

import numpy as np
import pytest

from repro.sim import Machine, Resources, Tier
from repro.sim.entities import Collection, CollectionType, Instance
from repro.sim.fleet import FleetState
from repro.sim.scheduler import PlacementPolicy, SchedulerParams

PLATFORMS = ("amd-rome", "intel-skylake", "arm-n1")


def _instance(cid, cpu, mem, tier=Tier.PROD):
    c = Collection(collection_id=cid, collection_type=CollectionType.JOB,
                   priority=200, tier=tier, user="u", submit_time=0.0)
    inst = Instance(collection=c, index=0, request=Resources(cpu, mem))
    c.instances.append(inst)
    return inst


def _reference_find_machine(policy, request, constraint, rng):
    """The per-slot loop: sample, scalar-check, full-scan fallback.

    Draws candidate slots with per-call ``rng.integers`` — bit-identical
    to the kernel's pre-drawn index block consumed in order.
    """
    n = policy.fleet.n
    if n == 0:
        return None
    sampled = None
    if policy.params.candidates < n:
        idx = rng.integers(0, n, size=policy.params.candidates)
        best, best_score = None, float("inf")
        for i in idx:
            slot = int(i)
            if policy._admissible(slot, request, constraint):
                score = policy._score(slot, request)
                if score < best_score:
                    best, best_score = slot, score
        if best is not None:
            return best
        sampled = {int(i) for i in idx}
    best, best_score = None, float("inf")
    for slot in range(n):
        if sampled is not None and slot in sampled:
            continue
        if policy._admissible(slot, request, constraint):
            score = policy._score(slot, request)
            if score < best_score:
                best, best_score = slot, score
    return best


def _random_fleet(rng, n):
    machines = []
    for i in range(n):
        cap = Resources(float(rng.uniform(0.2, 2.0)),
                        float(rng.uniform(0.2, 2.0)))
        machines.append(Machine(
            i, cap, platform=PLATFORMS[int(rng.integers(0, len(PLATFORMS)))]))
    fleet = FleetState(machines)
    for slot, m in enumerate(machines):
        # Random pre-existing allocation, sometimes over-committed.
        cap = m.capacity
        fleet.place(slot, _instance(slot, float(rng.uniform(0.0, cap.cpu * 1.6)),
                                    float(rng.uniform(0.0, cap.mem * 1.6))))
        fleet.set_up(slot, rng.random() < 0.9)
    return fleet


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
            fleet = _random_fleet(master, n)
            params = SchedulerParams(
                overcommit_cpu=float(master.uniform(1.0, 2.0)),
                overcommit_mem=float(master.uniform(1.0, 2.0)),
                candidates=int(master.integers(1, 20)))
            seed = int(master.integers(0, 2**31))
            policy = PlacementPolicy(fleet, params, np.random.default_rng(seed))
            ref_rng = np.random.default_rng(seed)
            for _ in range(6):
                request = Resources(float(master.uniform(0.01, 1.2)),
                                    float(master.uniform(0.01, 1.2)))
                constraint = _random_constraint(master)
                got = policy.find_machine(request, constraint)
                want = _reference_find_machine(policy, request, constraint,
                                               ref_rng)
                assert got == want, (
                    f"trial {trial}: kernel picked slot {got}, reference "
                    f"picked slot {want} for {request} "
                    f"constraint={constraint!r}")


class TestIncrementalSync:
    def test_random_churn_keeps_arrays_consistent(self):
        # place / remove / up-down churn through the FleetState mutators
        # must keep the array and list forms exact (the invariant the
        # kernel's bit-equivalence rests on).
        rng = np.random.default_rng(99)
        fleet = _random_fleet(rng, 16)
        placed = []
        for step in range(300):
            op = rng.random()
            if op < 0.5:
                slot = int(rng.integers(0, fleet.n))
                if fleet.py_up[slot]:
                    inst = _instance(1000 + step, float(rng.uniform(0.01, 0.3)),
                                     float(rng.uniform(0.01, 0.3)))
                    fleet.place(slot, inst)
                    placed.append((slot, inst))
            elif op < 0.8 and placed:
                slot, inst = placed.pop(int(rng.integers(0, len(placed))))
                fleet.remove(slot, inst)
            else:
                slot = int(rng.integers(0, fleet.n))
                fleet.set_up(slot, not fleet.py_up[slot])
        fleet.check_consistency()
        # Allocation is the sum of the residents' requests.
        for slot in range(fleet.n):
            total = sum((i.request.cpu for i in fleet.residents[slot]), 0.0)
            assert fleet.py_alloc[slot][0] == pytest.approx(total, abs=1e-9)

    def test_sync_is_copy_not_recompute(self):
        # Both forms hold the same float, bit for bit: the running sum
        # of the placed requests, accumulated in placement order.
        fleet = FleetState([Machine(0, Resources(1.0, 1.0))])
        want = 0.0
        for k in range(1, 20):
            fleet.place(0, _instance(k, 0.1, 0.1))
            want = want + 0.1
        assert fleet.allocated_cpu[0] == fleet.py_alloc[0][0] == want
        assert fleet.allocated_mem[0] == fleet.py_alloc[0][1] == want

    def test_check_consistency_raises_on_drift(self):
        fleet = FleetState([Machine(0, Resources(1.0, 1.0))])
        fleet.alloc[0, 0] = 0.123  # simulate a missed write
        with pytest.raises(AssertionError):
            fleet.check_consistency()

    def test_check_consistency_covers_sampled_path_mirror(self):
        # The sampled placement path reads py_alloc, not the arrays.
        fleet = FleetState([Machine(0, Resources(1.0, 1.0))])
        fleet.py_alloc[0] = (0.123, 0.0)  # simulate a missed write
        with pytest.raises(AssertionError):
            fleet.check_consistency()
