"""Per-row reference implementations of the event-table reducers.

The reducers in :mod:`repro.analysis` group, pair and count event rows
with sort-and-segment NumPy kernels.  These are the straightforward
row-at-a-time versions they replaced, kept only as test oracles: each
walks the tables in row order with Python dicts, so its semantics can be
read off the code.  ``tests/test_analysis_oracles.py`` asserts that
every kernel returns exactly what its oracle returns.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.analysis.allocsets import AllocSetReport
from repro.analysis.common import TIER_ORDER, merge_monitoring_tier
from repro.analysis.constraints import ConstraintReport
from repro.analysis.terminations import TERMINAL, TerminationReport
from repro.analysis.transitions import _EVENT_TO_STATE
from repro.table import Table
from repro.trace.dataset import TraceDataset
from repro.util.timeutil import HOUR_SECONDS


def alloc_set_ids(trace: TraceDataset) -> Set[int]:
    ce = trace.collection_events
    ids = ce.column("collection_id").values
    kinds = ce.column("collection_type").values
    return {int(ids[i]) for i in range(len(ce)) if kinds[i] == "alloc_set"}


def collection_metadata(trace: TraceDataset) -> Table:
    ce = trace.collection_events
    return ce.filter(ce.column("type") == "SUBMIT").distinct("collection_id")


def hourly_tier_series(trace: TraceDataset, resource: str = "cpu",
                       quantity: str = "usage") -> Dict[str, np.ndarray]:
    n_hours = int(np.ceil(trace.horizon / HOUR_SECONDS))
    capacity = trace.capacity_cpu if resource == "cpu" else trace.capacity_mem
    out = {tier: np.zeros(n_hours) for tier in TIER_ORDER}
    iu = trace.instance_usage
    if len(iu) == 0 or capacity <= 0:
        return out
    column = {"usage": {"cpu": "avg_cpu", "mem": "avg_mem"},
              "allocation": {"cpu": "limit_cpu", "mem": "limit_mem"}}[quantity][resource]
    values = iu.column(column).values * (iu.column("duration").values / HOUR_SECONDS)
    hour = (iu.column("start_time").values / HOUR_SECONDS).astype(np.int64)
    hour = np.clip(hour, 0, n_hours - 1)
    tiers = merge_monitoring_tier(iu.column("tier").values)
    mask_base = np.ones(len(iu), dtype=bool)
    if quantity == "allocation":
        mask_base = ~iu.column("in_alloc").values
    for tier in TIER_ORDER:
        mask = mask_base & (tiers == tier)
        if not mask.any():
            continue
        out[tier] = np.bincount(hour[mask], weights=values[mask],
                                minlength=n_hours) / capacity
    return out


def _count_stream(ids: List[Tuple[int, ...]], events: List[str],
                  times: List[float]) -> Counter:
    per_entity: Dict[Tuple[int, ...], List[Tuple[float, int, str]]] = defaultdict(list)
    for seq, (key, event, t) in enumerate(zip(ids, events, times)):
        per_entity[key].append((t, seq, event))
    counts: Counter = Counter()
    for entries in per_entity.values():
        entries.sort()
        state = "NONE"
        for _, __, event in entries:
            nxt = _EVENT_TO_STATE.get(event)
            if nxt is None:
                continue
            label = nxt if nxt != "DEAD" else f"DEAD({event.lower()})"
            if label != state:
                counts[(state, label)] += 1
            state = label
    return counts


def collection_transitions(trace: TraceDataset) -> Counter:
    ce = trace.collection_events
    ids = [(int(i),) for i in ce.column("collection_id").values]
    return _count_stream(ids, list(ce.column("type").values),
                         list(ce.column("time").values))


def instance_transitions(trace: TraceDataset) -> Counter:
    ie = trace.instance_events
    ids = list(zip(ie.column("collection_id").values.tolist(),
                   ie.column("instance_index").values.tolist()))
    return _count_stream([tuple(i) for i in ids],
                         list(ie.column("type").values),
                         list(ie.column("time").values))


def scheduling_delays(trace: TraceDataset,
                      skip_warmup_hours: float = 1.0) -> Table:
    ce = trace.collection_events
    ie = trace.instance_events
    ready: Dict[int, float] = {}
    tier_of: Dict[int, str] = {}
    is_job: Dict[int, bool] = {}
    c_ids = ce.column("collection_id").values
    c_types = ce.column("type").values
    c_times = ce.column("time").values
    c_kinds = ce.column("collection_type").values
    c_tiers = merge_monitoring_tier(ce.column("tier").values)
    for i in range(len(ce)):
        cid = int(c_ids[i])
        if c_types[i] == "SUBMIT":
            ready.setdefault(cid, float(c_times[i]))
            tier_of[cid] = c_tiers[i]
            is_job[cid] = c_kinds[i] == "job"
        elif c_types[i] == "ENABLE":
            ready[cid] = float(c_times[i])

    first_run: Dict[int, float] = {}
    i_ids = ie.column("collection_id").values
    i_types = ie.column("type").values
    i_times = ie.column("time").values
    for i in range(len(ie)):
        if i_types[i] == "SCHEDULE":
            cid = int(i_ids[i])
            t = float(i_times[i])
            if cid not in first_run or t < first_run[cid]:
                first_run[cid] = t

    cutoff = skip_warmup_hours * HOUR_SECONDS
    rows: Dict[str, list] = {"collection_id": [], "tier": [], "delay": []}
    for cid, t_ready in ready.items():
        if not is_job.get(cid, False) or cid not in first_run:
            continue
        if t_ready < cutoff:
            continue
        rows["collection_id"].append(cid)
        rows["tier"].append(tier_of[cid])
        rows["delay"].append(max(0.0, first_run[cid] - t_ready))
    return Table(rows)


def _constraints_of(trace: TraceDataset) -> Dict[int, str]:
    ce = trace.collection_events
    out: Dict[int, str] = {}
    ids = ce.column("collection_id").values
    types = ce.column("type").values
    constraints = ce.column("constraint").values
    kinds = ce.column("collection_type").values
    for i in range(len(ce)):
        if types[i] == "SUBMIT" and kinds[i] == "job" and constraints[i]:
            out[int(ids[i])] = constraints[i]
    return out


def constraint_report(traces: Sequence[TraceDataset]) -> ConstraintReport:
    n_jobs = 0
    by_platform: Dict[str, int] = {}
    satisfied = 0
    total_placements = 0
    delays_constrained: List[float] = []
    delays_unconstrained: List[float] = []

    for trace in traces:
        constrained = _constraints_of(trace)
        ce = trace.collection_events
        submits = ((ce.column("type").values == "SUBMIT")
                   & (ce.column("collection_type").values == "job"))
        n_jobs += int(submits.sum())
        for platform in constrained.values():
            by_platform[platform] = by_platform.get(platform, 0) + 1

        attrs = trace.machine_attributes
        platform_of = dict(zip(attrs.column("machine_id").values.tolist(),
                               attrs.column("platform").values.tolist()))
        ie = trace.instance_events
        ids = ie.column("collection_id").values
        types = ie.column("type").values
        machines = ie.column("machine_id").values
        for i in range(len(ie)):
            if types[i] != "SCHEDULE":
                continue
            required = constrained.get(int(ids[i]))
            if required is None:
                continue
            total_placements += 1
            if platform_of.get(int(machines[i])) == required:
                satisfied += 1

        delays = scheduling_delays(trace)
        d_ids = delays.column("collection_id").values
        d_vals = delays.column("delay").values
        for cid, delay in zip(d_ids, d_vals):
            if int(cid) in constrained:
                delays_constrained.append(float(delay))
            else:
                delays_unconstrained.append(float(delay))

    n_constrained = sum(by_platform.values())
    return ConstraintReport(
        constrained_job_fraction=n_constrained / n_jobs if n_jobs else 0.0,
        constraints_by_platform=by_platform,
        satisfied_fraction=(satisfied / total_placements
                            if total_placements else 1.0),
        median_delay_constrained=(float(np.median(delays_constrained))
                                  if delays_constrained else 0.0),
        median_delay_unconstrained=(float(np.median(delays_unconstrained))
                                    if delays_unconstrained else 0.0),
    )


def termination_report(traces: Sequence[TraceDataset]) -> TerminationReport:
    end_counts: Counter = Counter()
    killed_with_parent = total_with_parent = 0
    killed_without_parent = total_without_parent = 0
    n_collections = 0
    eviction_counts: Dict[int, int] = defaultdict(int)
    collection_tier: Dict[int, str] = {}

    for trace in traces:
        ce = trace.collection_events
        ids = ce.column("collection_id").values
        types = ce.column("type").values
        parents = ce.column("parent_collection_id").values
        tiers = ce.column("tier").values
        has_parent: Dict[int, bool] = {}
        for i in range(len(ce)):
            cid = int(ids[i])
            if types[i] == "SUBMIT":
                if cid not in has_parent:
                    n_collections += 1
                has_parent[cid] = parents[i] >= 0
                collection_tier[cid] = tiers[i]
            elif types[i] in TERMINAL:
                end_counts[types[i]] += 1
                if has_parent.get(cid, False):
                    total_with_parent += 1
                    if types[i] == "KILL":
                        killed_with_parent += 1
                else:
                    total_without_parent += 1
                    if types[i] == "KILL":
                        killed_without_parent += 1

        ie = trace.instance_events
        i_ids = ie.column("collection_id").values
        i_types = ie.column("type").values
        for i in range(len(ie)):
            if i_types[i] == "EVICT":
                eviction_counts[int(i_ids[i])] += 1

    evicted = set(eviction_counts)
    evicted_nonprod = sum(1 for cid in evicted
                          if collection_tier.get(cid) not in ("prod", "monitoring"))
    prod_ids = {cid for cid, tier in collection_tier.items()
                if tier in ("prod", "monitoring")}
    prod_evicted = evicted & prod_ids
    prod_single = sum(1 for cid in prod_evicted if eviction_counts[cid] == 1)

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    return TerminationReport(
        end_reason_counts=dict(end_counts),
        kill_rate_with_parent=ratio(killed_with_parent, total_with_parent),
        kill_rate_without_parent=ratio(killed_without_parent, total_without_parent),
        collections_with_evictions_fraction=ratio(len(evicted), n_collections),
        evicted_collections_nonprod_fraction=ratio(evicted_nonprod, len(evicted)),
        prod_collections_evicted_fraction=ratio(len(prod_evicted), len(prod_ids)),
        prod_evicted_single_eviction_fraction=ratio(prod_single, len(prod_evicted)),
    )


def alloc_set_report(traces: Sequence[TraceDataset]) -> AllocSetReport:
    n_collections = 0
    n_alloc_sets = 0
    n_jobs = 0
    n_jobs_in_alloc = 0
    n_jobs_in_alloc_prod = 0
    alloc_cpu_hours = 0.0
    total_cpu_hours = 0.0
    alloc_mem_hours = 0.0
    total_mem_hours = 0.0
    mem_used_in = mem_limit_in = 0.0
    mem_used_out = mem_limit_out = 0.0

    for trace in traces:
        meta = collection_metadata(trace)
        kinds = meta.column("collection_type").values
        tiers = meta.column("tier").values
        alloc_ids = meta.column("alloc_collection_id").values
        n_collections += len(meta)
        for i in range(len(meta)):
            if kinds[i] == "alloc_set":
                n_alloc_sets += 1
            else:
                n_jobs += 1
                if alloc_ids[i] >= 0:
                    n_jobs_in_alloc += 1
                    if tiers[i] in ("prod", "monitoring"):
                        n_jobs_in_alloc_prod += 1

        iu = trace.instance_usage
        if len(iu) == 0:
            continue
        hours = iu.column("duration").values / HOUR_SECONDS
        limit_cpu = iu.column("limit_cpu").values * hours
        limit_mem = iu.column("limit_mem").values * hours
        used_mem = iu.column("avg_mem").values * hours
        in_alloc = iu.column("in_alloc").values
        ids = iu.column("collection_id").values
        allocs = alloc_set_ids(trace)
        is_alloc_row = np.asarray([int(i) in allocs for i in ids], dtype=bool)

        direct = ~in_alloc
        total_cpu_hours += float(limit_cpu[direct].sum())
        total_mem_hours += float(limit_mem[direct].sum())
        alloc_cpu_hours += float(limit_cpu[is_alloc_row].sum())
        alloc_mem_hours += float(limit_mem[is_alloc_row].sum())

        task_rows = ~is_alloc_row
        mem_used_in += float(used_mem[task_rows & in_alloc].sum())
        mem_limit_in += float(limit_mem[task_rows & in_alloc].sum())
        mem_used_out += float(used_mem[task_rows & ~in_alloc].sum())
        mem_limit_out += float(limit_mem[task_rows & ~in_alloc].sum())

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    return AllocSetReport(
        alloc_set_fraction_of_collections=ratio(n_alloc_sets, n_collections),
        alloc_cpu_allocation_share=ratio(alloc_cpu_hours, total_cpu_hours),
        alloc_mem_allocation_share=ratio(alloc_mem_hours, total_mem_hours),
        jobs_in_alloc_fraction=ratio(n_jobs_in_alloc, n_jobs),
        in_alloc_prod_fraction=ratio(n_jobs_in_alloc_prod, n_jobs_in_alloc),
        mem_utilization_in_alloc=ratio(mem_used_in, mem_limit_in),
        mem_utilization_outside=ratio(mem_used_out, mem_limit_out),
    )


def tasks_per_job(trace: TraceDataset) -> Dict[str, np.ndarray]:
    ce = trace.collection_events
    out: Dict[str, List[int]] = {}
    types = ce.column("type").values
    kinds = ce.column("collection_type").values
    tiers = merge_monitoring_tier(ce.column("tier").values)
    counts = ce.column("num_instances").values
    seen = set()
    ids = ce.column("collection_id").values
    for i in range(len(ce)):
        if types[i] != "SUBMIT" or kinds[i] != "job":
            continue
        cid = int(ids[i])
        if cid in seen:
            continue
        seen.add(cid)
        out.setdefault(tiers[i], []).append(int(counts[i]))
    return {tier: np.asarray(values) for tier, values in out.items()}


def queue_waits(trace: TraceDataset) -> np.ndarray:
    ce = trace.collection_events
    queued: Dict[int, float] = {}
    waits = []
    ids = ce.column("collection_id").values
    types = ce.column("type").values
    times = ce.column("time").values
    for i in range(len(ce)):
        cid = int(ids[i])
        if types[i] == "QUEUE":
            queued[cid] = float(times[i])
        elif types[i] == "ENABLE" and cid in queued:
            waits.append(float(times[i]) - queued.pop(cid))
    return np.asarray(waits)


def queue_depth_series(trace: TraceDataset) -> np.ndarray:
    ce = trace.collection_events
    n_hours = int(np.ceil(trace.horizon / HOUR_SECONDS))
    delta = np.zeros(n_hours + 1)
    ids = ce.column("collection_id").values
    types = ce.column("type").values
    times = ce.column("time").values
    enter: Dict[int, float] = {}
    for i in range(len(ce)):
        cid = int(ids[i])
        if types[i] == "QUEUE":
            enter[cid] = float(times[i])
        elif cid in enter and types[i] in ("ENABLE", "KILL", "FINISH",
                                           "FAIL", "EVICT"):
            start_h = int(enter.pop(cid) / HOUR_SECONDS)
            end_h = min(int(times[i] / HOUR_SECONDS), n_hours - 1)
            delta[start_h] += 1
            delta[end_h + 1] -= 1
    for t in enter.values():
        delta[int(t / HOUR_SECONDS)] += 1
    return np.cumsum(delta[:n_hours])
