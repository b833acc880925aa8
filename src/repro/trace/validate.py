"""Automated trace validation (paper section 9).

The authors describe checking "a raft of logical invariants" — e.g. "the
total resource usage of all instances on a machine should be smaller
than the machine's capacity", "a submit event should happen before any
termination event" — and note that a repeatable, automated pipeline beat
their initial one-off scripts.  This module is that pipeline for our
traces: each invariant is a named check returning violations, and
:func:`validate_trace` runs them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.sim.priority import tier_of_priority_2011, tier_of_priority_2019
from repro.table.segment import segments
from repro.trace.dataset import TraceDataset
from repro.trace.schema import EVENT_TABLES
from repro.util.errors import ValidationError

TERMINAL = ("EVICT", "FAIL", "FINISH", "KILL")


@dataclass(frozen=True)
class Violation:
    """One invariant violation."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


def _check_times_in_window(trace: TraceDataset) -> List[Violation]:
    """Every event timestamp lies within [0, horizon]."""
    out = []
    for name in EVENT_TABLES:
        times = trace.tables[name].column("time").values
        if len(times) == 0:
            continue
        bad = np.flatnonzero((times < 0) | (times > trace.horizon))
        for i in bad[:5]:
            out.append(Violation(
                "event-time-in-window",
                f"{name}[{i}] time={times[i]} outside [0, {trace.horizon}]",
            ))
    return out


def _check_submit_before_terminal(trace: TraceDataset) -> List[Violation]:
    """A collection's SUBMIT precedes any terminal event."""
    ce = trace.collection_events
    out = []
    submit: Dict[int, float] = {}
    ids = ce.column("collection_id").values
    types = ce.column("type").values
    times = ce.column("time").values
    for i in range(len(ce)):
        if types[i] == "SUBMIT":
            cid = int(ids[i])
            if cid not in submit or times[i] < submit[cid]:
                submit[cid] = float(times[i])
    for i in range(len(ce)):
        if types[i] in TERMINAL:
            cid = int(ids[i])
            if cid not in submit:
                out.append(Violation(
                    "submit-before-terminal",
                    f"collection {cid} terminates at {times[i]} without a SUBMIT",
                ))
            elif times[i] < submit[cid]:
                out.append(Violation(
                    "submit-before-terminal",
                    f"collection {cid} terminates at {times[i]} before its "
                    f"SUBMIT at {submit[cid]}",
                ))
    return out


def _check_single_terminal_per_collection(trace: TraceDataset) -> List[Violation]:
    """A collection terminates at most once."""
    ce = trace.collection_events
    ids = ce.column("collection_id").values
    types = ce.column("type").values
    seen: Dict[int, int] = {}
    out = []
    for i in range(len(ce)):
        if types[i] in TERMINAL:
            cid = int(ids[i])
            seen[cid] = seen.get(cid, 0) + 1
    for cid, count in seen.items():
        if count > 1:
            out.append(Violation(
                "single-terminal-event",
                f"collection {cid} has {count} terminal events",
            ))
    return out


def _check_machine_usage_within_capacity(trace: TraceDataset) -> List[Violation]:
    """Per 5-minute window, machine usage stays within physical capacity.

    CPU is work-conserving so a modest overage is legal (we allow 1.2x);
    memory is a hard bound (we allow 1.02x for sampling noise).
    """
    iu = trace.instance_usage
    if len(iu) == 0:
        return []
    attrs = trace.machine_attributes
    cap_cpu = dict(zip(attrs.column("machine_id").values.tolist(),
                       attrs.column("cpu_capacity").values.tolist()))
    cap_mem = dict(zip(attrs.column("machine_id").values.tolist(),
                       attrs.column("mem_capacity").values.tolist()))
    machine = iu.column("machine_id").values
    window = iu.column("start_time").values
    cpu = iu.column("avg_cpu").values
    mem = iu.column("avg_mem").values
    # Rows start on the sample grid, so rounding (as the simulator's
    # capacity reconcile does) recovers each row's window at any period;
    # truncation would split one window when the ratio lands just below
    # an integer.
    window_index = np.rint(window / trace.sample_period).astype(np.int64)
    key = machine.astype(np.int64) * 10_000_000 + window_index
    order, bounds = segments(key)
    cpu_sums = np.add.reduceat(cpu[order], bounds)
    mem_sums = np.add.reduceat(mem[order], bounds)
    machines = machine[order[bounds]]
    out = []
    for i in range(len(bounds)):
        m = int(machines[i])
        if m in cap_cpu and cpu_sums[i] > cap_cpu[m] * 1.2 + 1e-9:
            out.append(Violation(
                "machine-cpu-usage-within-capacity",
                f"machine {m}: window CPU usage {cpu_sums[i]:.3f} exceeds "
                f"capacity {cap_cpu[m]:.3f} (x1.2 allowance)",
            ))
        if m in cap_mem and mem_sums[i] > cap_mem[m] * 1.02 + 1e-9:
            out.append(Violation(
                "machine-mem-usage-within-capacity",
                f"machine {m}: window memory usage {mem_sums[i]:.3f} exceeds "
                f"capacity {cap_mem[m]:.3f}",
            ))
        if len(out) >= 20:
            break
    return out


def _check_usage_within_limits(trace: TraceDataset) -> List[Violation]:
    """Memory usage never exceeds its limit; CPU respects work-conserving slack."""
    iu = trace.instance_usage
    if len(iu) == 0:
        return []
    out = []
    mem_over = np.flatnonzero(iu.column("avg_mem").values
                              > iu.column("limit_mem").values * 1.001 + 1e-12)
    for i in mem_over[:5]:
        out.append(Violation(
            "memory-usage-within-limit",
            f"usage row {i}: avg_mem exceeds limit_mem",
        ))
    cpu_over = np.flatnonzero(iu.column("max_cpu").values
                              > iu.column("limit_cpu").values * 1.5 + 1e-9)
    for i in cpu_over[:5]:
        out.append(Violation(
            "cpu-usage-within-work-conserving-bound",
            f"usage row {i}: max_cpu exceeds 1.5x limit_cpu",
        ))
    return out


def _check_priorities_match_tiers(trace: TraceDataset) -> List[Violation]:
    """The tier column agrees with the era's priority banding."""
    tier_of = tier_of_priority_2011 if trace.era == "2011" else tier_of_priority_2019
    ce = trace.collection_events
    if len(ce) == 0:
        return []
    out = []
    priorities = ce.column("priority").values
    tiers = ce.column("tier").values
    for i in range(len(ce)):
        expected = tier_of(int(priorities[i])).value
        got = tiers[i]
        # Monitoring is merged into prod by the paper's convention, so
        # either label is acceptable for monitoring-band priorities.
        if got != expected and not (expected == "monitoring" and got == "prod"):
            out.append(Violation(
                "priority-tier-consistency",
                f"collection_events[{i}]: priority {priorities[i]} implies "
                f"tier {expected!r}, trace says {got!r}",
            ))
            if len(out) >= 5:
                break
    return out


def _check_constraints_respected(trace: TraceDataset) -> List[Violation]:
    """Scheduled instances of constrained collections sit on machines of
    the required platform."""
    ce = trace.collection_events
    if len(ce) == 0 or "constraint" not in ce:
        return []
    constraint_of: Dict[int, str] = {}
    c_ids = ce.column("collection_id").values
    c_constraints = ce.column("constraint").values
    for i in range(len(ce)):
        if c_constraints[i]:
            constraint_of[int(c_ids[i])] = c_constraints[i]
    if not constraint_of:
        return []
    attrs = trace.machine_attributes
    platform_of = dict(zip(attrs.column("machine_id").values.tolist(),
                           attrs.column("platform").values.tolist()))
    ie = trace.instance_events
    ids = ie.column("collection_id").values
    types = ie.column("type").values
    machines = ie.column("machine_id").values
    out: List[Violation] = []
    for i in range(len(ie)):
        if types[i] != "SCHEDULE":
            continue
        required = constraint_of.get(int(ids[i]))
        if required is None:
            continue
        platform = platform_of.get(int(machines[i]))
        if platform is not None and platform != required:
            out.append(Violation(
                "constraint-respected",
                f"instance_events[{i}]: collection {ids[i]} requires "
                f"platform {required!r} but ran on {platform!r}",
            ))
            if len(out) >= 5:
                break
    return out


def _check_schedule_has_machine(trace: TraceDataset) -> List[Violation]:
    """SCHEDULE events carry a machine id."""
    ie = trace.instance_events
    if len(ie) == 0:
        return []
    types = ie.column("type").values
    machines = ie.column("machine_id").values
    bad = [i for i in range(len(ie)) if types[i] == "SCHEDULE" and machines[i] < 0]
    return [Violation("schedule-has-machine",
                      f"instance_events[{i}] SCHEDULE without machine") for i in bad[:5]]


#: The named invariant suite, in execution order.
INVARIANTS: Dict[str, Callable[[TraceDataset], List[Violation]]] = {
    "event-time-in-window": _check_times_in_window,
    "submit-before-terminal": _check_submit_before_terminal,
    "single-terminal-event": _check_single_terminal_per_collection,
    "machine-usage-within-capacity": _check_machine_usage_within_capacity,
    "usage-within-limits": _check_usage_within_limits,
    "priority-tier-consistency": _check_priorities_match_tiers,
    "schedule-has-machine": _check_schedule_has_machine,
    "constraint-respected": _check_constraints_respected,
}


def validate_trace(trace: TraceDataset, raise_on_violation: bool = False,
                   only: Optional[List[str]] = None) -> List[Violation]:
    """Run the invariant suite; return (or raise on) violations found."""
    names = only or list(INVARIANTS)
    unknown = set(names) - set(INVARIANTS)
    if unknown:
        raise ValueError(f"unknown invariants: {sorted(unknown)}")
    violations: List[Violation] = []
    for name in names:
        violations.extend(INVARIANTS[name](trace))
    if violations and raise_on_violation:
        raise ValidationError(violations[0].invariant, violations[0].detail)
    return violations
