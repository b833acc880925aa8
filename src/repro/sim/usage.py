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

import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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


#: The fields of one queued run interval, in the order
#: :class:`UsageBatch` packs them into its flat buffer.  Every field is
#: held as a float64; the ints and bools are exact there.
_FIELDS = ("is_alloc", "collection_id", "instance_index", "slot",
           "tier_code", "autopilot_code", "in_alloc", "start", "end",
           "cpu_limit", "mem_limit", "cpu_fraction", "mem_fraction")
(_F_IS_ALLOC, _F_COLLECTION_ID, _F_INSTANCE_INDEX, _F_SLOT, _F_TIER_CODE,
 _F_AUTOPILOT, _F_IN_ALLOC, _F_START, _F_END, _F_CPU_LIMIT, _F_MEM_LIMIT,
 _F_CPU_FRACTION, _F_MEM_FRACTION) = range(len(_FIELDS))
#: Packs one interval's fields as native float64s, the buffer's rows.
_PACK = struct.Struct(f"={len(_FIELDS)}d").pack

#: Most output windows one flush block holds.  A block's working set —
#: its slice of every output column plus four noise draws per window —
#: stays cache-sized.  Records never split across blocks; a record longer
#: than this forms a block of its own.  Sizes from 2^12 to 2^16 flush
#: within run-to-run noise of each other (EXPERIMENTS.md).
BLOCK_WINDOWS = 1 << 14


class UsageBatch:
    """Accumulates run intervals and materializes usage samples in bulk.

    The simulator queues each closed run interval as one row of scalars
    in a flat float64 buffer (:data:`_FIELDS`), naming its machine by
    fleet slot.  :meth:`finalize` generates every sample column at once,
    walking the records in consecutive blocks of at most
    :data:`BLOCK_WINDOWS` output windows; each block writes its rows into
    output columns allocated once for the whole flush.

    Bit-exactness contract: the output, and the usage RNG's end state,
    equal those of drawing every interval on its own (the per-interval
    reference, ``tests/usage_oracles.py``): for an interval with ``n``
    windows, ``lognormal(0, noise_sigma, n)``, ``normal(burst_mean,
    burst_sigma, n)``, ``lognormal(0, noise_sigma / 2, n)`` and
    ``normal(1.05, 0.03, n)``, in record order.

    A block draws those four streams of all its task intervals at once:
    its ``4 * m`` standard normals in one call.  The generator fills
    normals one after another, so that block is the exact concatenation
    of the per-interval draws; gathers pick each stream's positions.
    ``normal(loc, scale)`` is exactly ``loc + scale * z``, and
    ``lognormal(0, sigma)`` is libm's scalar ``exp(sigma * z)``, which
    ``np.exp`` (SIMD) matches only to within ULPs.  So the two lognormal
    streams' exponents go through ``Generator.lognormal(x, 0.0)`` on a
    throwaway clone generator: ``exp(x + 0.0 * z')`` is libm's
    ``exp(x)`` whatever ``z'`` the clone draws.

    All arithmetic keeps the per-interval operation order (e.g.
    ``(limit * fraction) * diurnal * noise``), with per-interval scalars
    broadcast via ``np.repeat``.  Where the sample grid is exact (see
    :func:`_diurnal_table`) the diurnal factor is computed once per
    distinct window and gathered.
    """

    COLUMNS = (
        "collection_id", "instance_index", "machine_id", "tier_code",
        "autopilot_code", "in_alloc", "window_start", "duration",
        "avg_cpu", "max_cpu", "avg_mem", "max_mem", "cpu_limit", "mem_limit",
    )

    def __init__(self, model: UsageModel, autopilot: AutopilotParams,
                 machine_ids: np.ndarray):
        self._model = model
        self._autopilot = autopilot
        #: Machine id of each fleet slot; records name machines by slot.
        self._machine_ids = machine_ids
        self._buf = bytearray()

    def add_task(self, *, collection_id: int, instance_index: int,
                 slot: int, tier_code: int, autopilot_code: int,
                 in_alloc: bool, start: float, end: float,
                 cpu_limit: float, mem_limit: float,
                 cpu_fraction: float, mem_fraction: float) -> None:
        """Queue a task run interval (samples drawn at finalize).

        The interval must be non-empty (``end > start``); the simulator
        never queues an empty one.
        """
        self._buf += _PACK(
            0.0, collection_id, instance_index, slot, tier_code,
            autopilot_code, in_alloc, start, end, cpu_limit, mem_limit,
            cpu_fraction, mem_fraction)

    def add_alloc(self, *, collection_id: int, instance_index: int,
                  slot: int, tier_code: int, autopilot_code: int,
                  start: float, end: float,
                  cpu_limit: float, mem_limit: float) -> None:
        """Queue an alloc-instance reservation interval (zero usage);
        ``end > start`` as for :meth:`add_task`."""
        self._buf += _PACK(
            1.0, collection_id, instance_index, slot, tier_code,
            autopilot_code, 0.0, start, end, cpu_limit, mem_limit, 0.0, 0.0)

    def finalize(self, rng: np.random.Generator
                 ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Materialize, and drain, all queued intervals.

        Returns the usage-sample columns (:attr:`COLUMNS`) and each row's
        fleet slot (int32), which the capacity reconcile groups by.
        """
        buf, self._buf = self._buf, bytearray()
        if not buf:
            return ({c: np.empty(0) for c in self.COLUMNS},
                    np.empty(0, dtype=np.int32))
        rec = np.frombuffer(buf, dtype=np.float64).reshape(-1, len(_FIELDS))
        model = self._model
        period = model.sample_period
        # The per-interval grid ``np.arange(first, end, period)`` has
        # ``ceil((end - first) / period)`` elements, built directly in
        # each block.
        grid_index = np.floor(rec[:, _F_START] / period)
        first = grid_index * period
        counts = np.ceil((rec[:, _F_END] - first) / period).astype(np.int64)
        # bounds[j] is the first output row of record j.
        bounds = np.zeros(len(rec) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        n_rows = int(bounds[-1])
        slot = rec[:, _F_SLOT].astype(np.int64)

        def rep(values: np.ndarray, dtype) -> np.ndarray:
            return np.repeat(values.astype(dtype), counts)

        out = {
            "collection_id": rep(rec[:, _F_COLLECTION_ID], np.int64),
            "instance_index": rep(rec[:, _F_INSTANCE_INDEX], np.int32),
            "machine_id": rep(self._machine_ids[slot], np.int32),
            "tier_code": rep(rec[:, _F_TIER_CODE], np.int8),
            "autopilot_code": rep(rec[:, _F_AUTOPILOT], np.int8),
            "in_alloc": rep(rec[:, _F_IN_ALLOC], bool),
            "window_start": np.empty(n_rows),
            "duration": np.empty(n_rows),
            # Alloc rows carry zero usage.
            "avg_cpu": np.zeros(n_rows),
            "max_cpu": np.zeros(n_rows),
            "avg_mem": np.zeros(n_rows),
            "max_mem": np.zeros(n_rows),
            "cpu_limit": rep(rec[:, _F_CPU_LIMIT], np.float64),
            "mem_limit": rep(rec[:, _F_MEM_LIMIT], np.float64),
        }
        slots = rep(slot, np.int32)
        grid = grid_index.astype(np.int64)
        table = _diurnal_table(model, grid, counts)
        # The exponent clone of the block draws (see the class docstring).
        clone = np.random.Generator(type(rng.bit_generator)(0))
        n_records = len(rec)
        j0 = 0
        while j0 < n_records:
            # The longest run of whole records within BLOCK_WINDOWS rows,
            # or one record on its own when it alone is longer.
            j1 = int(np.searchsorted(bounds, bounds[j0] + BLOCK_WINDOWS,
                                     side="right")) - 1
            j1 = max(j1, j0 + 1)
            self._fill_block(rng, clone, rec[j0:j1], first[j0:j1],
                             grid[j0:j1], counts[j0:j1], bounds[j0:j1 + 1],
                             table, out)
            j0 = j1
        return out, slots

    def _fill_block(self, rng: np.random.Generator,
                    clone: np.random.Generator, rec: np.ndarray,
                    first: np.ndarray, grid: np.ndarray, counts: np.ndarray,
                    bounds: np.ndarray, table: Optional[Tuple[int, np.ndarray]],
                    out: Dict[str, np.ndarray]) -> None:
        """Write one block's rows (``bounds[0]:bounds[-1]``) into ``out``.

        Alloc rows run through the task arithmetic too, on any drawn
        normals: their usage fractions are zero, so every usage value is
        ``+0.0`` times finite positive factors, clipped at zero — exactly
        the zeros they are allocated with.  The block therefore writes
        its rows as one slice, with no task-row scatter.
        """
        model = self._model
        period = model.sample_period
        p = model.params
        r0, r1 = int(bounds[0]), int(bounds[-1])
        rows = slice(r0, r1)
        starts = bounds[:-1] - r0  # each record's first row in the block
        within = np.arange(r1 - r0) - np.repeat(starts, counts)
        # Element k of np.arange(first, end, period) is first + k * step
        # with numpy's fill step; that is ``period`` on an exact grid.
        step = (first + period) - first
        window_start = out["window_start"][rows]
        np.multiply(within, np.repeat(step, counts), out=window_start)
        window_start += np.repeat(first, counts)
        np.subtract(
            np.minimum(window_start + period, np.repeat(rec[:, _F_END], counts)),
            np.maximum(window_start, np.repeat(rec[:, _F_START], counts)),
            out=out["duration"][rows])

        is_task = rec[:, _F_IS_ALLOC] == 0.0
        t_counts = np.where(is_task, counts, 0)
        m = int(t_counts.sum())
        if m == 0:
            return
        noise, burst_raw, mem_noise, mem_burst_raw = _draw_block(
            rng, clone, p, counts, t_counts, within, m)
        if table is None:
            diurnal = diurnal_factor(window_start + period / 2.0,
                                     model.utc_offset_hours,
                                     p.diurnal_amplitude)
        else:
            grid_lo, factors = table
            diurnal = factors[np.repeat(grid - grid_lo, counts) + within]
        cl = rec[:, _F_CPU_LIMIT]
        ml = rec[:, _F_MEM_LIMIT]
        cpu_cap = np.repeat(cl * p.cpu_overage_factor, counts)
        avg_c = np.multiply(np.repeat(cl * rec[:, _F_CPU_FRACTION], counts),
                            diurnal, out=out["avg_cpu"][rows])
        avg_c *= noise
        np.clip(avg_c, 0.0, cpu_cap, out=avg_c)
        max_c = np.maximum(1.0, burst_raw, out=out["max_cpu"][rows])
        max_c *= avg_c
        np.clip(max_c, avg_c, cpu_cap, out=max_c)
        mem_cap = out["mem_limit"][rows]  # the request, before Autopilot
        avg_m = np.multiply(np.repeat(ml * rec[:, _F_MEM_FRACTION], counts),
                            mem_noise, out=out["avg_mem"][rows])
        np.clip(avg_m, 0.0, mem_cap, out=avg_m)
        max_m = np.maximum(1.0, mem_burst_raw, out=out["max_mem"][rows])
        max_m *= avg_m
        np.clip(max_m, avg_m, mem_cap, out=max_m)

        # Autopilot limit trajectories are causal *within* one run
        # interval; mode NONE (the common case) is just the repeated
        # request limit, already in place.  The flagged minority of task
        # records runs through one row-vectorized controller pass
        # (bit-equal to per-record limit_trajectory calls).
        ap_codes = rec[:, _F_AUTOPILOT]
        ap = np.flatnonzero(is_task & (ap_codes != 0))
        if not ap.size:
            return
        seg_counts = counts[ap]
        excl = np.cumsum(seg_counts) - seg_counts
        ap_rows = (np.repeat(starts[ap] - excl, seg_counts)
                   + np.arange(int(seg_counts.sum())))
        auto = self._autopilot
        frac = np.where(ap_codes[ap] == AUTOPILOT_CODES["fully"],
                        auto.min_limit_fraction_fully,
                        auto.min_limit_fraction_constrained)
        frac_rows = np.repeat(frac, seg_counts)
        wpos = within[ap_rows]
        init_c = np.repeat(cl[ap], seg_counts)
        out["cpu_limit"][r0 + ap_rows] = limit_trajectory_rows(
            wpos, max_c[ap_rows], init_c, init_c * frac_rows, auto)
        init_m = np.repeat(ml[ap], seg_counts)
        out["mem_limit"][r0 + ap_rows] = limit_trajectory_rows(
            wpos, max_m[ap_rows], init_m, init_m * frac_rows, auto)


def _diurnal_table(model: UsageModel, grid: np.ndarray, counts: np.ndarray
                   ) -> Optional[Tuple[int, np.ndarray]]:
    """The diurnal factor of every window a flush covers, once each, as
    ``(first grid index, factors)``; ``None`` where that is not provably
    what the per-row computation gives.

    Record ``j``'s row ``w`` starts at ``first_j + w * step_j`` with
    ``first_j = grid_j * period`` and ``step_j = (first_j + period) -
    first_j``.  With ``period = num / 2^e`` (every float is such a
    ratio), every ``k * period`` with ``|k| * num < 2^53`` is exactly
    representable.  When that holds for every ``grid_j``, ``grid_j + 1``,
    ``w`` and ``grid_j + w``, every product, sum and difference here is
    exact: ``step_j`` is ``period`` and the row's start is the very float
    ``(grid_j + w) * period`` that the table is built from, so the factor
    is the same.  An inexact grid (e.g. a period of 0.7 s) keeps the
    per-row factor.
    """
    period = model.sample_period
    lo = int(grid.min())
    hi = int((grid + counts).max())
    num, _ = float(period).as_integer_ratio()
    if max(abs(lo), abs(hi), int(counts.max())) * num >= 1 << 53:
        return None
    starts = np.arange(lo, hi) * period
    return lo, diurnal_factor(starts + period / 2.0, model.utc_offset_hours,
                              model.params.diurnal_amplitude)


def _draw_block(rng: np.random.Generator, clone: np.random.Generator,
                p: UsageModelParams, counts: np.ndarray, t_counts: np.ndarray,
                within: np.ndarray, m: int):
    """The four noise streams of a block's rows, from one ``4 * m``
    standard-normal draw for its ``m`` task windows (see
    :class:`UsageBatch`).  ``t_counts`` is each record's task window
    count (zero for an alloc record) and ``within`` each row's window
    position in its record; alloc rows get arbitrary finite values."""
    z = rng.standard_normal(4 * m)
    # Task record i draws [noise, burst, mem noise, mem burst] x n_i in
    # turn, so its window w sits at 4 * o_i + w (o_i: the task windows
    # before it) and each later stream n_i positions further.  An alloc
    # record's positions may run past the draw; ``clip`` keeps them in.
    pos = within + np.repeat(4 * (np.cumsum(t_counts) - t_counts), counts)
    stride = np.repeat(t_counts, counts)
    n = len(within)
    exponents = np.empty(2 * n)
    np.multiply(np.take(z, pos, mode="clip"), p.noise_sigma,
                out=exponents[:n])
    pos += stride
    burst = p.burst_mean + p.burst_sigma * np.take(z, pos, mode="clip")
    pos += stride
    np.multiply(np.take(z, pos, mode="clip"), p.noise_sigma * 0.5,
                out=exponents[n:])
    pos += stride
    mem_burst = 1.05 + 0.03 * np.take(z, pos, mode="clip")
    lognormal = clone.lognormal(exponents, 0.0)
    return lognormal[:n], burst, lognormal[n:], mem_burst


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
