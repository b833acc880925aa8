"""The benchmark harness: repeated, timed, checked units of one workload.

A :class:`Run` first times the workload's setup, then repeats its unit
of work until the requested seconds of timed work have run.  Untraced
units give the end-to-end metrics, timed under a
:class:`~perfbench.speed.SpeedProbe` and scaled to the reference machine
speed; with tracing on, traced units alternate with untraced ones and
give the per-layer metrics (see :mod:`perfbench.spans`), in raw CPU
seconds.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

from repro import obs

from perfbench.spans import Recorder, by_key, patched
from perfbench.speed import SpeedProbe
from perfbench.workloads import SECTIONS

#: Setup is timed in rounds of back-to-back setups, each at least
#: ``SETUP_ROUND_S`` long (one setup takes 0.1-1.7 s); ``setup_s`` is the
#: median round's time per setup.
SETUP_ROUNDS = 3
SETUP_ROUND_S = 1.0

#: Layers, in pipeline order, with the name of their self-CPU metric.
LAYERS = (("workload", "workload.cpu_s"), ("sim", "sim.cpu_s"),
          ("trace.encode", "trace.encode.cpu_s"),
          ("trace.validate", "trace.validate.cpu_s"),
          ("store.write", "store.write.cpu_s"), ("store.read", "store.read.cpu_s"),
          ("analysis", "analysis.cpu_s"), ("campaign", "campaign.self_cpu_s"))

#: Layers whose work can also sit in setup (reported per setup).
SETUP_LAYERS = ("workload", "sim", "trace.encode", "store.write")

#: Per-layer counts read from the unit's scoped ``repro.obs`` registry.
OBS_COUNTERS = {
    "sim.events_processed": "sim.events_processed",
    "sim.placement.attempts": "sim.placement.attempts",
    "sim.placement.full_scans": "sim.placement.full_scans",
    "sim.placement.preemption_searches": "sim.placement.preemption_searches",
    "store.write.bytes": "store.bytes_written",
    "store.write.chunks": "store.chunks_written",
    "store.read.chunks_decoded": "store.chunks_decoded",
    "store.read.chunks_skipped": "store.chunks_skipped",
    "store.read.rows_decoded": "store.rows_decoded",
    "store.read.rows_matched": "store.rows_matched",
    "store.read.cache_hits": "store.cache.hits",
    "store.read.cache_misses": "store.cache.misses",
}

#: Counts the workloads' hooks add to the unit recorder.
HOOK_COUNTS = ("workload.collections", "sim.instance_events", "sim.usage_rows",
               "sim.task_restarts", "sim.evictions", "sim.resubmissions",
               "trace.encode.rows", "campaign.points", "campaign.cache_hits",
               "campaign.errors")


def quantile(values, q: float) -> float:
    """The q-quantile of ``values`` (linear interpolation)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_summary(latencies) -> dict:
    """Median and the highest percentile with >= 10 samples beyond it."""
    if not latencies:
        return {}
    out = {"samples": len(latencies), "p50_ms": 1e3 * quantile(latencies, 0.5)}
    for q in (0.99, 0.95, 0.9):
        if len(latencies) * (1 - q) >= 10:
            out[f"p{round(q * 100)}_ms"] = 1e3 * quantile(latencies, q)
            break
    return out


class Run:
    """One benchmark run: repeated units of one workload."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.wl, self.seconds, self.trace = workload, seconds, trace
        self.setup_s = []    # scaled time per setup of each timed setup round
        self.plain = []      # scaled (wall, cpu) of untraced units
        self.raw = []        # unscaled (wall, cpu) of untraced units
        self.slowdown = []   # mean probe slice / reference slice, per unit
        self.traced = []     # (wall, cpu, unit recorder, obs counters)
        self.setup_recs = []
        self.attempted = self.failed = 0
        self.evidence = {}
        self.latencies = []

    def _time_setup(self):
        """Timed setup rounds; returns the last setup's inputs."""
        for _ in range(SETUP_ROUNDS):
            gc.collect()
            n, elapsed = 0, 0.0
            with SpeedProbe() as probe:
                t0 = time.perf_counter()
                while elapsed < SETUP_ROUND_S:
                    inputs = self.wl.setup()
                    n += 1
                    elapsed = time.perf_counter() - t0
            self.setup_s.append(probe.scaled(elapsed, 0.0)[0] / n)
        return inputs

    def _setup(self, traced: bool):
        """One untimed setup, recorded into ``setup_recs`` when traced."""
        if not traced:
            return self.wl.setup()
        rec = Recorder()
        with patched(rec, self.wl.targets()), rec.span("setup", "bench"):
            inputs = self.wl.setup(rec)
        self.setup_recs.append(rec)
        return inputs

    def _warm_up(self, inputs) -> None:
        """First calls pay one-off costs (imports, NumPy dispatch caches)
        that later units do not; run and check one unit before timing."""
        check = self.wl.check(self.wl.unit(inputs))
        self.attempted += check.attempted
        self.failed += check.failed

    def _unit(self, inputs, traced: bool):
        rec = Recorder() if traced else None
        gc.collect()
        if rec is None:
            with SpeedProbe() as probe:
                w0, c0 = time.perf_counter(), time.process_time()
                out = self.wl.unit(inputs)
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            self.raw.append(probe.net(wall, cpu))
            self.plain.append(probe.scaled(wall, cpu))
            self.slowdown.append(probe.slowdown())
            self.latencies.extend(out.get("latencies", ()))
        else:
            with patched(rec, self.wl.targets()), \
                    obs.scoped_registry() as registry:
                w0, c0 = time.perf_counter(), time.process_time()
                with rec.span("unit", "bench"):
                    out = self.wl.unit(inputs, rec)
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            self.traced.append((wall, cpu, rec, registry.snapshot().counters))
        check = self.wl.check(out)
        self.attempted += check.attempted
        self.failed += check.failed
        self.evidence = check.evidence
        return wall

    def execute(self) -> None:
        """Time the setup, run one warm-up unit (checked, not measured),
        then measured units until ``seconds`` of timed work have run."""
        # The warm-up also grows the heap, so the timed setups do not pay
        # a fresh process's first-touch page faults.
        self._warm_up(self._setup(traced=False))
        inputs = self._time_setup()
        per_unit = self.wl.setup_per_unit
        if not per_unit:
            if self.trace:
                inputs = self._setup(traced=True)
            self.wl.cleanup_setup(keep=inputs)
        timed = 0.0
        n = 0
        while timed < self.seconds or not self.plain or (self.trace and not self.traced):
            traced = self.trace and n % 2 == 1
            if per_unit:
                inputs = self._setup(traced)
            timed += self._unit(inputs, traced)
            n += 1

    # -- results ---------------------------------------------------------------

    def end_to_end(self) -> dict:
        """Medians over the run's setup rounds and untraced units, in
        seconds at the reference machine speed."""
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": {"value": statistics.median(self.setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(w for w, _ in self.plain),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(c for _, c in self.plain),
                      "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }

    def per_layer(self) -> dict:
        units = len(self.traced)
        recs = [rec for _, _, rec, _ in self.traced]
        layer = by_key(recs, lambda s: s.layer)
        name = by_key(recs, lambda s: s.name)
        m = {}

        def put(key, value, unit):
            m[key] = {"value": value, "unit": unit}

        for lay, key in LAYERS:
            put(key, layer.get(lay, (0.0, 0.0))[1] / units, "s")
        setup_layer = by_key(self.setup_recs, lambda s: s.layer)
        n_setups = max(1, len(self.setup_recs))
        for lay in SETUP_LAYERS:
            put(f"{lay}.setup_cpu_s",
                setup_layer.get(lay, (0.0, 0.0))[1] / n_setups, "s")
        put("workload.setup_collections", sum(
            rec.counts.get("workload.collections", 0) for rec in self.setup_recs)
            / n_setups, "count")
        put("sim.wall_s", layer.get("sim", (0.0, 0.0))[0] / units, "s")
        put("store.write.wall_s", layer.get("store.write", (0.0, 0.0))[0] / units, "s")
        put("store.read.open_cpu_s",
            name.get("store.read.open", (0.0, 0.0))[1] / units, "s")
        for section, _ in SECTIONS:
            put(f"analysis.{section}.cpu_s",
                name.get(f"analysis.{section}", (0.0, 0.0))[1] / units, "s")
        put("analysis.store_reducers.cpu_s",
            name.get("analysis.store_reducers", (0.0, 0.0))[1] / units, "s")

        counts = {}
        for _, _, rec, obs_counters in self.traced:
            for key in HOOK_COUNTS:
                counts[key] = counts.get(key, 0) + rec.counts.get(key, 0)
            for key, src in OBS_COUNTERS.items():
                counts[key] = counts.get(key, 0) + obs_counters.get(src, 0)
        for key in (*HOOK_COUNTS, *OBS_COUNTERS):
            put(key, counts[key] / units, "count")
        events = counts["sim.events_processed"]
        put("sim.cpu_us_per_event",
            1e6 * m["sim.cpu_s"]["value"] * units / events if events else 0.0, "us")
        lookups = counts["store.read.cache_hits"] + counts["store.read.cache_misses"]
        put("store.read.cache_hit_rate",
            counts["store.read.cache_hits"] / lookups if lookups else 0.0, "fraction")

        lat = self.latencies
        put("store.read.query_p50_ms", 1e3 * quantile(lat, 0.5) if lat else 0.0, "ms")
        put("store.read.query_p95_ms", 1e3 * quantile(lat, 0.95) if lat else 0.0, "ms")

        unit_cpu = statistics.fmean(c for _, c, _, _ in self.traced)
        put("tracing.unit_cpu_s", unit_cpu, "s")
        put("tracing.unattributed_cpu_s", layer.get("bench", (0.0, 0.0))[1] / units, "s")
        put("tracing.setup_cpu_s",
            sum(cpu for _, cpu in setup_layer.values()) / n_setups, "s")
        plain = statistics.fmean(w for w, _ in self.raw)
        traced = statistics.fmean(w for w, _, _, _ in self.traced)
        put("tracing.overhead_frac", traced / plain - 1.0, "fraction")
        return m

    def spans_json(self) -> dict:
        return {"units": [[s.to_dict() for s in rec.spans]
                          for _, _, rec, _ in self.traced],
                "setups": [[s.to_dict() for s in rec.spans]
                           for rec in self.setup_recs]}


