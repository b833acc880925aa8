"""Trace-driven workload replay: turn a trace back into a simulable workload.

The classic systems-research loop the public traces enable: take a
recorded workload and replay it against a *modified* system to answer
what-if questions ("what if this cell didn't over-commit?", "what if the
batch queue were removed?").  :func:`workload_from_trace` reconstructs
collections — shapes, tiers, timings, outcomes, dependencies, alloc
links, constraints — from a :class:`~repro.trace.TraceDataset`, and
:func:`replay_components` packages everything needed to re-run the cell.

Reconstruction caveats (inherent to any trace replay):

* durations come from observed SUBMIT→terminal spans; collections still
  running at the horizon are replayed as running to the horizon;
* usage fractions are re-estimated from the usage table per collection;
* the original's evictions/restarts are *not* replayed — they re-emerge
  from the replay cell's own hazards, which is the point of a what-if.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.cell import CellConfig
from repro.sim.entities import (
    Collection,
    CollectionType,
    EndReason,
    Instance,
    SchedulerKind,
)
from repro.sim.machine import Machine
from repro.sim.priority import Tier
from repro.sim.resources import Resources
from repro.table.segment import segments
from repro.trace.dataset import TraceDataset
from repro.workload.params import era_2011, era_2019
from repro.workload.scenarios import CELL_PROFILES_2019, cell_config

_END_REASON = {
    "FINISH": EndReason.FINISH,
    "KILL": EndReason.KILL,
    "FAIL": EndReason.FAIL,
    "EVICT": EndReason.EVICT,
}

#: Fallback usage fractions when a collection left no usage samples.
_DEFAULT_FRACTION = 0.5


def _usage_fractions(trace: TraceDataset) -> Dict[int, Tuple[float, float]]:
    """Per-collection (cpu, mem) usage/limit ratios from the usage table."""
    iu = trace.instance_usage
    if len(iu) == 0:
        return {}
    ids = iu.column("collection_id").values
    cpu_used = iu.column("avg_cpu").values * iu.column("duration").values
    cpu_lim = iu.column("limit_cpu").values * iu.column("duration").values
    mem_used = iu.column("avg_mem").values * iu.column("duration").values
    mem_lim = iu.column("limit_mem").values * iu.column("duration").values
    order, starts = segments(ids)
    out: Dict[int, Tuple[float, float]] = {}
    cu = np.add.reduceat(cpu_used[order], starts)
    cl = np.add.reduceat(cpu_lim[order], starts)
    mu = np.add.reduceat(mem_used[order], starts)
    ml = np.add.reduceat(mem_lim[order], starts)
    uids = ids[order[starts]]
    for i, cid in enumerate(uids):
        cpu_frac = float(np.clip(cu[i] / cl[i], 0.05, 0.95)) if cl[i] > 0 \
            else _DEFAULT_FRACTION
        mem_frac = float(np.clip(mu[i] / ml[i], 0.05, 0.95)) if ml[i] > 0 \
            else _DEFAULT_FRACTION
        out[int(cid)] = (cpu_frac, mem_frac)
    return out


def workload_from_trace(trace: TraceDataset) -> List[Collection]:
    """Reconstruct the trace's collections as a fresh simulable workload."""
    ce = trace.collection_events
    ie = trace.instance_events

    # First SCHEDULE per collection: durations run from first start.
    first_run: Dict[int, float] = {}
    requests: Dict[Tuple[int, int], Tuple[float, float]] = {}
    i_ids = ie.column("collection_id").values
    i_idx = ie.column("instance_index").values
    i_types = ie.column("type").values
    i_times = ie.column("time").values
    i_cpu = ie.column("resource_request_cpu").values
    i_mem = ie.column("resource_request_mem").values
    for i in range(len(ie)):
        cid = int(i_ids[i])
        if i_types[i] == "SCHEDULE":
            t = float(i_times[i])
            if cid not in first_run or t < first_run[cid]:
                first_run[cid] = t
        elif i_types[i] == "SUBMIT":
            key = (cid, int(i_idx[i]))
            if key not in requests:
                requests[key] = (float(i_cpu[i]), float(i_mem[i]))

    fractions = _usage_fractions(trace)

    collections: Dict[int, Collection] = {}
    end_info: Dict[int, Tuple[float, EndReason]] = {}
    c_ids = ce.column("collection_id").values
    c_types = ce.column("type").values
    c_times = ce.column("time").values
    c_kinds = ce.column("collection_type").values
    c_priorities = ce.column("priority").values
    c_tiers = ce.column("tier").values
    c_users = ce.column("user").values
    c_scheds = ce.column("scheduler").values
    c_parents = ce.column("parent_collection_id").values
    c_allocs = ce.column("alloc_collection_id").values
    c_scaling = ce.column("vertical_scaling").values
    c_constraints = ce.column("constraint").values
    c_counts = ce.column("num_instances").values

    for i in range(len(ce)):
        cid = int(c_ids[i])
        event = c_types[i]
        if event == "SUBMIT" and cid not in collections:
            cpu_frac, mem_frac = fractions.get(cid, (_DEFAULT_FRACTION,
                                                     _DEFAULT_FRACTION))
            collection = Collection(
                collection_id=cid,
                collection_type=(CollectionType.ALLOC_SET
                                 if c_kinds[i] == "alloc_set"
                                 else CollectionType.JOB),
                priority=int(c_priorities[i]),
                tier=Tier(c_tiers[i]),
                user=c_users[i],
                submit_time=float(c_times[i]),
                scheduler=SchedulerKind(c_scheds[i]),
                parent_id=int(c_parents[i]) if c_parents[i] >= 0 else None,
                alloc_collection_id=(int(c_allocs[i]) if c_allocs[i] >= 0
                                     else None),
                autopilot_mode=c_scaling[i],
                constraint=c_constraints[i],
                cpu_usage_fraction=cpu_frac,
                mem_usage_fraction=mem_frac,
            )
            for idx in range(int(c_counts[i])):
                cpu, mem = requests.get((cid, idx), (0.05, 0.05))
                collection.instances.append(Instance(
                    collection=collection, index=idx,
                    request=Resources(cpu, mem),
                ))
            collections[cid] = collection
        elif event in _END_REASON:
            end_info[cid] = (float(c_times[i]), _END_REASON[event])

    for cid, collection in collections.items():
        start = first_run.get(cid, collection.submit_time)
        if cid in end_info:
            end_time, reason = end_info[cid]
            # Evictions at the collection level replay as kills (the
            # replay cell makes its own eviction decisions).
            collection.planned_end = (EndReason.KILL if reason is EndReason.EVICT
                                      else reason)
            collection.planned_duration = max(30.0, end_time - start)
        else:
            # Censored: ran to the horizon; keep it running in the replay.
            collection.planned_end = EndReason.KILL
            collection.planned_duration = max(30.0, 2.0 * (trace.horizon - start))

    return sorted(collections.values(), key=lambda c: c.submit_time)


def machines_from_trace(trace: TraceDataset) -> List[Machine]:
    """Rebuild the machine fleet from the trace's machine attributes."""
    attrs = trace.machine_attributes
    machines = []
    ids = attrs.column("machine_id").values
    cpus = attrs.column("cpu_capacity").values
    mems = attrs.column("mem_capacity").values
    platforms = attrs.column("platform").values
    offsets = attrs.column("utc_offset_hours").values
    for i in range(len(attrs)):
        machines.append(Machine(
            machine_id=int(ids[i]),
            capacity=Resources(float(cpus[i]), float(mems[i])),
            platform=platforms[i],
            utc_offset_hours=float(offsets[i]),
        ))
    return machines


@dataclass
class ReplayComponents:
    """Everything needed to re-run a traced cell (possibly modified)."""

    config: CellConfig
    machines: List[Machine]
    workload: List[Collection]


def replay_components(trace: TraceDataset,
                      config: Optional[CellConfig] = None) -> ReplayComponents:
    """Package a trace as a runnable cell.

    Pass a ``config`` to run the what-if variant (different over-commit,
    batch queueing, hazards, ...); the default is the recorded preset
    cell's own :func:`~repro.workload.scenarios.cell_config`, faults off
    (the 2011 cell and names outside the presets get no tier multipliers).
    """
    if config is None:
        era = era_2011() if trace.era == "2011" else era_2019()
        _, multipliers, fractions = CELL_PROFILES_2019.get(trace.cell, (None, {}, {}))
        config = cell_config(
            f"replay-{trace.cell}", era, trace.horizon, trace.sample_period,
            (trace.utc_offset_hours, multipliers, fractions))
    return ReplayComponents(
        config=config,
        machines=machines_from_trace(trace),
        workload=workload_from_trace(trace),
    )
