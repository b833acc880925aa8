"""The per-instance resource usage model.

Real tasks use only a fraction of their requested limit, with diurnal
modulation and short-term noise; the 2019 trace records this as 5-minute
samples (average and maximum usage within each window).  This module
generates those samples for all of a run's closed intervals in one
blocked, vectorized flush, which is what keeps month-scale simulations
tractable.

CPU is work-conserving (usage may burst past the limit); memory is a
hard bound (usage never exceeds the limit) — paper section 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.sim.autopilot import AutopilotParams, limit_trajectory_rows
from repro.sim.priority import Tier
from repro.util.timeutil import HOUR_SECONDS, SAMPLE_PERIOD_SECONDS

#: Integer tier codes used in the packed usage arrays.  A tier's code
#: IS its preemption rank — the simulator's hot path relies on this and
#: writes ``tier.rank`` directly instead of hashing an enum key here.
TIER_CODES = {tier: tier.rank for tier in Tier}
TIER_FROM_CODE = {v: k for k, v in TIER_CODES.items()}
AUTOPILOT_CODES = {"none": 0, "fully": 1, "constrained": 2}
AUTOPILOT_FROM_CODE = {v: k for k, v in AUTOPILOT_CODES.items()}


@dataclass(frozen=True)
class UsageModelParams:
    """Knobs of the synthetic usage process."""

    #: Relative amplitude of the diurnal (24 h) usage cycle.
    diurnal_amplitude: float = 0.15
    #: Lognormal sigma of window-to-window multiplicative noise.
    noise_sigma: float = 0.18
    #: Mean ratio of within-window peak to within-window average.
    burst_mean: float = 1.25
    #: Spread of the peak/average ratio.
    burst_sigma: float = 0.12
    #: CPU usage may exceed the limit by up to this factor (work conserving).
    cpu_overage_factor: float = 1.15


class UsageModel:
    """Generates 5-minute usage samples for instance run intervals."""

    def __init__(self, params: Optional[UsageModelParams] = None,
                 sample_period: float = SAMPLE_PERIOD_SECONDS,
                 utc_offset_hours: float = 0.0):
        self.params = params or UsageModelParams()
        if sample_period <= 0:
            raise ValueError(f"sample_period must be positive, got {sample_period}")
        self.sample_period = sample_period
        self.utc_offset_hours = utc_offset_hours


class _IntervalRecord(NamedTuple):
    """One closed run interval, queued for batched sample materialization.

    Every field is a scalar captured at stop time, so deferring the
    sampling to the end of the run cannot observe later mutations.
    """

    is_alloc: bool
    collection_id: int
    instance_index: int
    machine_id: int
    tier_code: int
    autopilot_code: int
    in_alloc: bool
    start: float
    end: float
    cpu_limit: float
    mem_limit: float
    cpu_fraction: float
    mem_fraction: float


#: Column indices of the packed (n_records, 13) float matrix ``finalize``
#: builds from the record list (field order of :class:`_IntervalRecord`).
_F_IS_ALLOC = _IntervalRecord._fields.index("is_alloc")
_F_COLLECTION_ID = _IntervalRecord._fields.index("collection_id")
_F_INSTANCE_INDEX = _IntervalRecord._fields.index("instance_index")
_F_MACHINE_ID = _IntervalRecord._fields.index("machine_id")
_F_TIER_CODE = _IntervalRecord._fields.index("tier_code")
_F_AUTOPILOT = _IntervalRecord._fields.index("autopilot_code")
_F_IN_ALLOC = _IntervalRecord._fields.index("in_alloc")
_F_START = _IntervalRecord._fields.index("start")
_F_END = _IntervalRecord._fields.index("end")
_F_CPU_LIMIT = _IntervalRecord._fields.index("cpu_limit")
_F_MEM_LIMIT = _IntervalRecord._fields.index("mem_limit")
_F_CPU_FRACTION = _IntervalRecord._fields.index("cpu_fraction")
_F_MEM_FRACTION = _IntervalRecord._fields.index("mem_fraction")


#: Most output windows one flush block holds.  A block's working set —
#: its slice of every output column plus four noise draws per window —
#: stays cache-sized.  Records never split across blocks; a record longer
#: than this forms a block of its own.  Sizes from 2^12 to 2^16 flush
#: within run-to-run noise of each other (EXPERIMENTS.md).
BLOCK_WINDOWS = 1 << 14


class UsageBatch:
    """Accumulates run intervals and materializes usage samples in bulk.

    The simulator records each closed run interval as a scalar tuple and
    generates every sample column at finalize time, walking the records
    in consecutive blocks of at most :data:`BLOCK_WINDOWS` output windows.
    Each block writes its rows into output columns allocated once for
    the whole flush.

    Bit-exactness contract: the output, and the usage RNG's end state,
    equal those of drawing every interval on its own (the per-interval
    reference, ``tests/usage_oracles.py``): for an interval with ``n``
    windows, ``lognormal(0, noise_sigma, n)``, ``normal(burst_mean,
    burst_sigma, n)``, ``lognormal(0, noise_sigma / 2, n)`` and
    ``normal(1.05, 0.03, n)``, in record order.

    A block draws those four streams of all its task intervals at once:
    its ``4 * m`` standard normals in one call.  The generator fills
    normals one after another, so that block is the exact concatenation
    of the per-interval draws, and ``normal(loc, scale)`` is exactly
    ``loc + scale * z``.  ``lognormal`` applies libm's scalar ``exp``,
    which ``np.exp`` (SIMD) matches only to within ULPs, so a clone
    generator set to the primary's state replays the same normals
    through ``Generator.lognormal`` with a per-position sigma; gathers
    then pick each stream's positions.

    All arithmetic keeps the per-interval operation order (e.g.
    ``(limit * fraction) * diurnal * noise``), with per-interval scalars
    broadcast via ``np.repeat``.
    """

    COLUMNS = (
        "collection_id", "instance_index", "machine_id", "tier_code",
        "autopilot_code", "in_alloc", "window_start", "duration",
        "avg_cpu", "max_cpu", "avg_mem", "max_mem", "cpu_limit", "mem_limit",
    )

    def __init__(self, model: UsageModel, autopilot: AutopilotParams):
        self._model = model
        self._autopilot = autopilot
        self._records: List[_IntervalRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def add_task(self, *, collection_id: int, instance_index: int,
                 machine_id: int, tier_code: int, autopilot_code: int,
                 in_alloc: bool, start: float, end: float,
                 cpu_limit: float, mem_limit: float,
                 cpu_fraction: float, mem_fraction: float) -> None:
        """Queue a task run interval (samples drawn at finalize).

        The interval must be non-empty (``end > start``); the simulator
        never queues an empty one.
        """
        self._records.append(_IntervalRecord(
            False, collection_id, instance_index, machine_id, tier_code,
            autopilot_code, in_alloc, start, end, cpu_limit, mem_limit,
            cpu_fraction, mem_fraction,
        ))

    def add_alloc(self, *, collection_id: int, instance_index: int,
                  machine_id: int, tier_code: int, autopilot_code: int,
                  start: float, end: float,
                  cpu_limit: float, mem_limit: float) -> None:
        """Queue an alloc-instance reservation interval (zero usage);
        ``end > start`` as for :meth:`add_task`."""
        self._records.append(_IntervalRecord(
            True, collection_id, instance_index, machine_id, tier_code,
            autopilot_code, False, start, end, cpu_limit, mem_limit,
            0.0, 0.0,
        ))

    def finalize(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Materialize all queued intervals into usage-sample columns."""
        period = self._model.sample_period
        records = self._records
        if not records:
            return {c: np.empty(0) for c in self.COLUMNS}

        # One pass from the namedtuple list into a (n, 13) float matrix;
        # every scalar field (ints, bools, floats) is exact in float64.
        rec = np.array(records, dtype=np.float64)
        # The per-interval grid ``np.arange(first, end, period)`` has
        # ``ceil((end - first) / period)`` elements and equals ``first +
        # k * period`` element for element, so it is built directly.
        first = np.floor(rec[:, _F_START] / period) * period
        counts = np.ceil((rec[:, _F_END] - first) / period).astype(np.int64)
        # bounds[j] is the first output row of record j.
        bounds = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        n_rows = int(bounds[-1])

        def rep(col: int, dtype) -> np.ndarray:
            return np.repeat(rec[:, col].astype(dtype), counts)

        out = {
            "collection_id": rep(_F_COLLECTION_ID, np.int64),
            "instance_index": rep(_F_INSTANCE_INDEX, np.int32),
            "machine_id": rep(_F_MACHINE_ID, np.int32),
            "tier_code": rep(_F_TIER_CODE, np.int8),
            "autopilot_code": rep(_F_AUTOPILOT, np.int8),
            "in_alloc": rep(_F_IN_ALLOC, bool),
            "window_start": np.empty(n_rows),
            "duration": np.empty(n_rows),
            # Alloc rows carry zero usage.
            "avg_cpu": np.zeros(n_rows),
            "max_cpu": np.zeros(n_rows),
            "avg_mem": np.zeros(n_rows),
            "max_mem": np.zeros(n_rows),
            "cpu_limit": np.empty(n_rows),
            "mem_limit": np.empty(n_rows),
        }
        # The lognormal replays of the block draw run on this clone.
        clone = np.random.Generator(type(rng.bit_generator)(0))
        n_records = len(records)
        j0 = 0
        while j0 < n_records:
            # The longest run of whole records within BLOCK_WINDOWS rows,
            # or one record on its own when it alone is longer.
            j1 = int(np.searchsorted(bounds, bounds[j0] + BLOCK_WINDOWS,
                                     side="right")) - 1
            j1 = max(j1, j0 + 1)
            self._fill_block(rng, clone, rec[j0:j1], first[j0:j1],
                             counts[j0:j1], bounds[j0:j1 + 1], out)
            j0 = j1
        return out

    def _fill_block(self, rng: np.random.Generator,
                    clone: np.random.Generator, rec: np.ndarray,
                    first: np.ndarray, counts: np.ndarray,
                    bounds: np.ndarray, out: Dict[str, np.ndarray]) -> None:
        """Write one block's rows (``bounds[0]:bounds[-1]``) into ``out``."""
        model = self._model
        period = model.sample_period
        r0, r1 = int(bounds[0]), int(bounds[-1])
        within = np.arange(r1 - r0) - np.repeat(bounds[:-1] - r0, counts)
        window_start = out["window_start"][r0:r1]
        np.add(np.repeat(first, counts), within * period, out=window_start)
        np.subtract(
            np.minimum(window_start + period, np.repeat(rec[:, _F_END], counts)),
            np.maximum(window_start, np.repeat(rec[:, _F_START], counts)),
            out=out["duration"][r0:r1])
        out["cpu_limit"][r0:r1] = np.repeat(rec[:, _F_CPU_LIMIT], counts)
        out["mem_limit"][r0:r1] = np.repeat(rec[:, _F_MEM_LIMIT], counts)

        is_task = rec[:, _F_IS_ALLOC] == 0.0
        t_counts = counts[is_task]
        rows = r0 + np.flatnonzero(np.repeat(is_task, counts))
        rec = rec[is_task]
        m = int(t_counts.sum())
        if m == 0:
            return
        p = model.params
        noise, burst_raw, mem_noise, mem_burst_raw = _draw_block(
            rng, clone, p, t_counts, m)

        diurnal = diurnal_factor(out["window_start"][rows] + period / 2.0,
                                 model.utc_offset_hours, p.diurnal_amplitude)
        cl = rec[:, _F_CPU_LIMIT]
        ml = rec[:, _F_MEM_LIMIT]
        cpu_cap = np.repeat(cl * p.cpu_overage_factor, t_counts)
        avg_c = np.clip(
            np.repeat(cl * rec[:, _F_CPU_FRACTION], t_counts) * diurnal * noise,
            0.0, cpu_cap)
        max_c = np.clip(avg_c * np.maximum(1.0, burst_raw), avg_c, cpu_cap)
        ml_rep = np.repeat(ml, t_counts)
        avg_m = np.clip(
            np.repeat(ml * rec[:, _F_MEM_FRACTION], t_counts) * mem_noise,
            0.0, ml_rep)
        max_m = np.clip(avg_m * np.maximum(1.0, mem_burst_raw), avg_m, ml_rep)
        out["avg_cpu"][rows] = avg_c
        out["max_cpu"][rows] = max_c
        out["avg_mem"][rows] = avg_m
        out["max_mem"][rows] = max_m

        # Autopilot limit trajectories are causal *within* one run
        # interval; mode NONE (the common case) is just the repeated
        # request limit, already in place.  The flagged minority of
        # records runs through one row-vectorized controller pass
        # (bit-equal to per-record limit_trajectory calls).
        ap_codes = rec[:, _F_AUTOPILOT]
        ap = np.flatnonzero(ap_codes)
        if not ap.size:
            return
        seg_counts = t_counts[ap]
        n_ap = int(seg_counts.sum())
        t_excl = np.cumsum(t_counts) - t_counts
        excl = np.cumsum(seg_counts) - seg_counts
        ap_rows = np.repeat(t_excl[ap] - excl, seg_counts) + np.arange(n_ap)
        wpos = np.arange(n_ap) - np.repeat(excl, seg_counts)
        auto = self._autopilot
        frac = np.where(ap_codes[ap] == AUTOPILOT_CODES["fully"],
                        auto.min_limit_fraction_fully,
                        auto.min_limit_fraction_constrained)
        frac_rows = np.repeat(frac, seg_counts)
        dest = rows[ap_rows]
        init_c = np.repeat(cl[ap], seg_counts)
        out["cpu_limit"][dest] = limit_trajectory_rows(
            wpos, max_c[ap_rows], init_c, init_c * frac_rows, auto)
        init_m = np.repeat(ml[ap], seg_counts)
        out["mem_limit"][dest] = limit_trajectory_rows(
            wpos, max_m[ap_rows], init_m, init_m * frac_rows, auto)


def _draw_block(rng: np.random.Generator, clone: np.random.Generator,
                p: UsageModelParams, t_counts: np.ndarray, m: int):
    """The four noise streams of a block's task intervals, from one
    ``4 * m`` standard-normal draw (see :class:`UsageBatch`)."""
    clone.bit_generator.state = rng.bit_generator.state
    z = rng.standard_normal(4 * m)
    # Interval i draws [noise, burst, mem noise, mem burst] x n_i in turn;
    # the normal positions get sigma 0 and their replays are discarded.
    sigma = np.repeat(
        np.tile((p.noise_sigma, 0.0, p.noise_sigma * 0.5, 0.0), len(t_counts)),
        np.repeat(t_counts, 4))
    lognormal = clone.lognormal(0.0, sigma)
    # Window w of interval i sits at 4 * o_i + w (o_i: the interval's
    # first task window), and each later stream n_i positions further.
    excl = np.cumsum(t_counts) - t_counts
    base = np.arange(m) + np.repeat(3 * excl, t_counts)
    step = np.repeat(t_counts, t_counts)
    return (lognormal[base],
            p.burst_mean + p.burst_sigma * z[base + step],
            lognormal[base + 2 * step],
            1.05 + 0.03 * z[base + 3 * step])


def diurnal_factor(t, utc_offset_hours: float, amplitude: float):
    """Multiplicative diurnal factor, peaking mid-afternoon local time.

    ``t`` is simulated seconds, a float or an array.  Job arrival rates
    (the workload generators) and instance usage (the flush) both follow
    this cycle, so the load cycle the paper sees in section 4.1
    (Singapore's cell g busy when US cells sleep) emerges from cell time
    zones.
    """
    local_hours = (t / HOUR_SECONDS + utc_offset_hours) % 24.0
    phase = 2.0 * np.pi * (local_hours - 15.0) / 24.0
    return 1.0 + amplitude * np.cos(phase)
