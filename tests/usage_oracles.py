"""Per-interval reference for the usage flush.

:meth:`repro.sim.usage.UsageBatch.finalize` materializes every queued
run interval in cache-sized blocks, drawing the noise of short intervals
as one block.  The functions here are the straightforward spelling it
must match byte for byte, generator end state included: each interval's
grid built with ``np.arange``, its four noise streams drawn by four
``Generator`` calls, and its Autopilot limits from one
:func:`repro.sim.autopilot.limit_trajectory` call, record by record.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.sim.autopilot import AutopilotMode, AutopilotParams, limit_trajectory
from repro.sim.usage import AUTOPILOT_FROM_CODE, UsageBatch, UsageModel, diurnal_factor


def window_starts(model: UsageModel, start: float, end: float) -> np.ndarray:
    """Grid-aligned sample-window start times covering [start, end)."""
    if end <= start:
        return np.empty(0)
    period = model.sample_period
    first = np.floor(start / period) * period
    return np.arange(first, end, period)


def sample_interval(model: UsageModel, rng: np.random.Generator,
                    start: float, end: float,
                    cpu_limit: float, mem_limit: float,
                    cpu_fraction: float, mem_fraction: float) -> Dict[str, np.ndarray]:
    """Usage samples for one run interval.

    Returns a dict of equal-length arrays: ``window_start``,
    ``duration`` (seconds of the window actually overlapped by the
    run), ``avg_cpu``, ``max_cpu``, ``avg_mem``, ``max_mem``.
    """
    starts = window_starts(model, start, end)
    n = len(starts)
    if n == 0:
        return {k: np.empty(0) for k in
                ("window_start", "duration", "avg_cpu", "max_cpu", "avg_mem", "max_mem")}
    p = model.params
    period = model.sample_period

    window_ends = np.minimum(starts + period, end)
    window_begin = np.maximum(starts, start)
    duration = window_ends - window_begin

    diurnal = diurnal_factor(starts + period / 2.0, model.utc_offset_hours,
                             p.diurnal_amplitude)
    noise = rng.lognormal(mean=0.0, sigma=p.noise_sigma, size=n)
    avg_cpu = cpu_limit * cpu_fraction * diurnal * noise
    # CPU is work-conserving: clip at a soft overage above the limit.
    avg_cpu = np.clip(avg_cpu, 0.0, cpu_limit * p.cpu_overage_factor)

    burst = np.maximum(1.0, rng.normal(p.burst_mean, p.burst_sigma, size=n))
    max_cpu = np.clip(avg_cpu * burst, avg_cpu, cpu_limit * p.cpu_overage_factor)

    # Memory: slow random walk around the target fraction, hard-capped.
    mem_noise = rng.lognormal(mean=0.0, sigma=p.noise_sigma * 0.5, size=n)
    avg_mem = np.clip(mem_limit * mem_fraction * mem_noise, 0.0, mem_limit)
    mem_burst = np.maximum(1.0, rng.normal(1.05, 0.03, size=n))
    max_mem = np.clip(avg_mem * mem_burst, avg_mem, mem_limit)

    return {
        "window_start": starts,
        "duration": duration,
        "avg_cpu": avg_cpu,
        "max_cpu": max_cpu,
        "avg_mem": avg_mem,
        "max_mem": max_mem,
    }


#: Output dtype of each integer/bool column of a usage flush.
_KEY_DTYPES = {
    "collection_id": np.int64, "instance_index": np.int32,
    "machine_id": np.int32, "tier_code": np.int8,
    "autopilot_code": np.int8, "in_alloc": bool,
}


def reference_finalize(model: UsageModel, autopilot: AutopilotParams,
                       machine_ids: np.ndarray, records: List[Mapping],
                       rng: np.random.Generator
                       ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """What ``UsageBatch.finalize`` returns for ``records``, one at a time:
    the usage columns and each row's slot.

    Each record is a mapping with ``is_alloc`` plus the keyword
    arguments of ``UsageBatch.add_task`` (task) or ``add_alloc`` (alloc);
    its machine is ``machine_ids[slot]``.
    """
    parts: Dict[str, List[np.ndarray]] = {c: [] for c in UsageBatch.COLUMNS}
    slots: List[np.ndarray] = []
    for r in records:
        if r["is_alloc"]:
            starts = window_starts(model, r["start"], r["end"])
            n = len(starts)
            sample = {
                "window_start": starts,
                "duration": (np.minimum(starts + model.sample_period, r["end"])
                             - np.maximum(starts, r["start"])),
                **{k: np.zeros(n)
                   for k in ("avg_cpu", "max_cpu", "avg_mem", "max_mem")},
                "cpu_limit": np.full(n, float(r["cpu_limit"])),
                "mem_limit": np.full(n, float(r["mem_limit"])),
            }
            in_alloc = False
        else:
            sample = sample_interval(
                model, rng, r["start"], r["end"], r["cpu_limit"],
                r["mem_limit"], r["cpu_fraction"], r["mem_fraction"])
            mode = AutopilotMode(AUTOPILOT_FROM_CODE[r["autopilot_code"]])
            sample["cpu_limit"] = limit_trajectory(
                mode, r["cpu_limit"], sample["max_cpu"], autopilot)
            sample["mem_limit"] = limit_trajectory(
                mode, r["mem_limit"], sample["max_mem"], autopilot)
            in_alloc = r["in_alloc"]
        n = len(sample["window_start"])
        keys = {**{k: r[k] for k in _KEY_DTYPES
                   if k not in ("machine_id", "in_alloc")},
                "machine_id": machine_ids[r["slot"]], "in_alloc": in_alloc}
        for k, dtype in _KEY_DTYPES.items():
            parts[k].append(np.full(n, keys[k], dtype=dtype))
        for k, v in sample.items():
            parts[k].append(v)
        slots.append(np.full(n, r["slot"], dtype=np.int32))
    if not sum(len(v) for v in parts["window_start"]):
        return ({c: np.empty(0) for c in UsageBatch.COLUMNS},
                np.empty(0, dtype=np.int32))
    return ({c: np.concatenate(v) for c, v in parts.items()},
            np.concatenate(slots))
