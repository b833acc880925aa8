"""The four benchmark workloads.

Each workload generates its inputs from the seed (``setup``), runs one
unit of timed work (``unit``) and checks the unit's outputs (``check``).
The harness in :mod:`perfbench.run` repeats units for the measured
window.  Traced units pass a :class:`~perfbench.spans.Recorder`; the
workload then opens spans around its own calls into each layer, and
``targets`` lists the library attributes to wrap for calls the program
makes internally (the report's ``render_*`` sections, the campaign's
scenario builder, ``CellScenario.run``, lazy table decodes).

Only public entry points are driven: scenario builders,
``CellScenario.run``/``run_cells``, ``encode_cell``, ``validate_trace``,
``save_trace``/``load_trace``/``open_store``/``Scan``, the
``repro.analysis`` reducers and ``full_report``, and
``run_campaign``/``build_report``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.analysis.report as report_mod
import repro.campaign.runner as campaign_runner
import repro.campaign.summary as campaign_summary
from repro.analysis.common import (hourly_tier_series, hourly_tier_series_store,
                                   job_usage_integrals, job_usage_integrals_store)
from repro.campaign import build_report, parse_spec, run_campaign
from repro.sim.driver import run_cells
from repro.store import Agg, Between, Compare, Scan, TraceStore, open_store
from repro.trace import encode_cell, load_trace, save_trace, validate_trace
from repro.util.timeutil import HOUR_SECONDS
from repro.workload import CellScenario, scenario_2011, scenarios_2019

from perfbench.spans import Recorder, Target

#: full_report's sections, in render order, with the title each renders.
SECTIONS: Tuple[Tuple[str, str], ...] = (
    ("table1", "Table 1:"),
    *((f"fig{i}", f"Figure {i}:") for i in range(1, 15)),
    ("table2", "Table 2:"),
    ("sec51", "Section 5.1:"),
    ("sec52", "Section 5.2:"),
    ("extras", "Extra:"),
)


#: Seed of the generated workload (fleet and jobs) every run simulates.
#: Job sizes are heavy-tailed, so a workload drawn from ``--seed`` changes
#: the amount of work by up to 2x between seeds; ``--seed`` drives the
#: simulation's own random streams and the query mix instead.
WORKLOAD_SEED = 1


@dataclass
class Check:
    """Outcome of checking one unit's outputs."""

    attempted: int
    failed: int
    evidence: Dict[str, object]


def span(rec: Optional[Recorder], name: str, layer: str):
    """A recorder span, or nothing in an untraced unit."""
    return rec.span(name, layer) if rec is not None else contextlib.nullcontext()


# -- count hooks for wrapped library calls ------------------------------------

def _count_sim(rec: Recorder, result, _scenario) -> None:
    c = result.counters
    rec.count("sim.instance_events", len(result.events.instance_events))
    rec.count("sim.usage_rows", len(result.usage["window_start"]))
    rec.count("sim.task_restarts", c.task_restarts)
    rec.count("sim.evictions", c.evictions)
    rec.count("sim.resubmissions", c.resubmissions)


def _count_encode(rec: Recorder, trace, _result) -> None:
    rec.count("trace.encode.rows", sum(len(t) for t in trace.tables.values()))


def _count_scenarios(rec: Recorder, scenarios, *_args) -> None:
    rec.count("workload.collections", sum(len(s.workload) for s in scenarios))


SIM_TARGET: Target = (CellScenario, "run", "sim.run", "sim", _count_sim)

STORE_READ_TARGETS: List[Target] = [
    (TraceStore, "read_table", "store.read.table", "store.read", None),
    (Scan, "to_table", "store.read.scan", "store.read", None),
    (Scan, "aggregate", "store.read.scan", "store.read", None),
    (Scan, "map_reduce", "store.read.scan", "store.read", None),
]

REPORT_TARGETS: List[Target] = [
    (report_mod, f"render_{name}", f"analysis.{name}", "analysis", None)
    for name, _ in SECTIONS
]


def build(rec: Optional[Recorder], scenarios_fn, *args, **kwargs
          ) -> List[CellScenario]:
    with span(rec, "workload.build", "workload"):
        scenarios = scenarios_fn(*args, **kwargs)
    if rec is not None:
        _count_scenarios(rec, scenarios)
    return scenarios


def with_sim_seed(scenarios: List[CellScenario], seed: int) -> List[CellScenario]:
    """The scenarios with their simulation streams drawn from ``seed``
    (``CellScenario.run`` derives them from ``CellScenario.seed``)."""
    return [dataclasses.replace(s, seed=seed) for s in scenarios]


def encode(rec: Optional[Recorder], result):
    with span(rec, "trace.encode", "trace.encode"):
        trace = encode_cell(result)
    if rec is not None:
        _count_encode(rec, trace, result)
    return trace


def event_counts(traces) -> Dict[str, int]:
    return {t.cell: len(t.instance_events) for t in traces}


# -- paper-pipeline ------------------------------------------------------------

class PaperPipeline:
    """simulate -> encode -> validate -> store write -> load -> full_report."""

    name = "paper-pipeline"
    setup_per_unit = True

    def __init__(self, seed: int, scratch: Path, machines: int = 100,
                 hours: float = 12.0, cells_2019: Sequence[str] = ("a", "g")):
        self.seed, self.scratch = seed, scratch
        self.machines, self.hours, self.cells_2019 = machines, hours, list(cells_2019)
        self._units = 0

    def setup(self, rec: Optional[Recorder] = None) -> List[CellScenario]:
        kw = dict(seed=WORKLOAD_SEED, machines_per_cell=self.machines,
                  horizon_hours=self.hours)
        return with_sim_seed(
            build(rec, lambda: [scenario_2011(**kw)])
            + build(rec, scenarios_2019, cells=self.cells_2019, **kw), self.seed)

    def targets(self) -> List[Target]:
        return [SIM_TARGET, *STORE_READ_TARGETS, *REPORT_TARGETS]

    def unit(self, scenarios, rec: Optional[Recorder] = None) -> dict:
        self._units += 1
        out_dir = self.scratch / f"pipeline-{self._units}"
        results = run_cells(scenarios)
        traces = [encode(rec, r) for r in results]
        violations = []
        for trace in traces:
            with span(rec, "trace.validate", "trace.validate"):
                violations.append(validate_trace(trace))
        for trace in traces:
            with span(rec, "store.write", "store.write"):
                save_trace(trace, out_dir / trace.cell, format="store")
        with span(rec, "store.read.open", "store.read"):
            loaded = [load_trace(out_dir / t.cell) for t in traces]
        with span(rec, "analysis.report", "analysis"):
            text = report_mod.full_report(
                [t for t in loaded if t.era == "2011"],
                [t for t in loaded if t.era == "2019"])
        return {"violations": violations, "report": text,
                "events": event_counts(traces), "out_dir": out_dir}

    def check(self, out: dict) -> Check:
        shutil.rmtree(out["out_dir"], ignore_errors=True)
        failed = sum(1 for v in out["violations"] if v)
        text = out["report"]
        missing = [name for name, title in SECTIONS if f"\n{title}" not in text]
        failed += bool(missing)
        return Check(len(out["violations"]) + 1, failed, {
            "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "instance_events": out["events"],
            "missing_sections": missing})


# -- engine-2k -----------------------------------------------------------------

class Engine2k:
    """One 2019 cell at a 2000-machine fleet: simulate + encode only."""

    name = "engine-2k"
    setup_per_unit = True

    def __init__(self, seed: int, scratch: Path, machines: int = 2000,
                 hours: float = 12.0):
        self.seed, self.machines, self.hours = seed, machines, hours

    def setup(self, rec: Optional[Recorder] = None) -> List[CellScenario]:
        return with_sim_seed(build(
            rec, scenarios_2019, seed=WORKLOAD_SEED,
            machines_per_cell=self.machines, horizon_hours=self.hours,
            arrival_scale=0.02, sample_period=300.0, cells=["a"]), self.seed)

    def targets(self) -> List[Target]:
        return [SIM_TARGET]

    def unit(self, scenarios, rec: Optional[Recorder] = None) -> dict:
        traces = [encode(rec, r) for r in run_cells(scenarios)]
        return {"traces": traces}

    def check(self, out: dict) -> Check:
        traces = out["traces"]
        failed = sum(1 for t in traces if validate_trace(t))
        return Check(len(traces), failed, {
            "instance_events": event_counts(traces),
            "usage_rows": {t.cell: len(t.instance_usage) for t in traces}})


# -- failure-sweep -------------------------------------------------------------

class FailureSweep:
    """Cold campaign over faults x fault_rate, warm re-run, build_report."""

    name = "failure-sweep"
    setup_per_unit = True

    def __init__(self, seed: int, scratch: Path, machines: int = 24,
                 hours: float = 8.0):
        self.scratch = scratch
        self.payload = {
            "campaign": "perfbench-failure-sweep",
            "base": {"era": "2019", "cells": ["d"], "machines": machines,
                     "hours": hours, "scale": 0.02, "sample_period": 300.0,
                     "archetype_mix": "mixed"},
            "grid": {"faults": ["heavy", "storm"], "fault_rate": [1.0, 10.0]},
            # run_campaign draws a point's workload and its simulation
            # from one seed, so the sweep cannot follow ``--seed`` without
            # its work swinging by up to 1.6x between seeds.
            "seeds": [WORKLOAD_SEED],
        }
        self._units = 0

    def setup(self, rec: Optional[Recorder] = None):
        """The spec plus every point's scenarios, built once as the
        workload-generation cost and size of the campaign's inputs (the
        campaign rebuilds them itself inside the unit).  The builder is
        looked up on its module, so a traced setup records it through
        the same wrapper as the campaign's own calls."""
        spec = parse_spec(self.payload)
        for point in spec.points:
            campaign_runner.build_scenarios(point.params, point.seed)
        return spec

    def targets(self) -> List[Target]:
        return [SIM_TARGET,
                (campaign_runner, "build_scenarios", "workload.build",
                 "workload", _count_scenarios),
                (campaign_runner, "point_metrics", "analysis.point_metrics",
                 "analysis", None),
                (campaign_summary, "encode_cell", "trace.encode",
                 "trace.encode", _count_encode)]

    def unit(self, spec, rec: Optional[Recorder] = None) -> dict:
        self._units += 1
        out_dir = self.scratch / f"campaign-{self._units}"
        with span(rec, "campaign.run", "campaign"):
            cold = run_campaign(spec, out_dir)
        with span(rec, "campaign.run", "campaign"):
            warm = run_campaign(spec, out_dir)
        with span(rec, "campaign.report", "campaign"):
            report = build_report(spec, warm.results)
        if rec is not None:
            rec.count("campaign.points", cold.total + warm.total)
            rec.count("campaign.cache_hits", cold.hits + warm.hits)
            rec.count("campaign.errors", cold.errors + warm.errors)
        return {"cold": cold, "warm": warm, "report": report, "out_dir": out_dir}

    def check(self, out: dict) -> Check:
        shutil.rmtree(out["out_dir"], ignore_errors=True)
        cold, warm, report = out["cold"], out["warm"], out["report"]
        bad_cold = sum(1 for r in cold.results if r["status"] != "ok")
        bad_cold += cold.total - len(cold.results)
        bad_warm = warm.total - warm.hits
        bad_report = int(len(report["rows"]) != cold.total)
        return Check(cold.total + warm.total + 1,
                     bad_cold + bad_warm + bad_report, {
                         "points": cold.total, "warm_hits": warm.hits,
                         "jobs_submitted": [r["metrics"].get("jobs_submitted")
                                            for r in cold.results],
                         "evictions": [r["metrics"].get("evictions")
                                       for r in cold.results]})


# -- trace-queries -------------------------------------------------------------

#: Bucket edges of the histogram query (avg_cpu, clipped into end buckets).
HIST_EDGES = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)

QUERY_KINDS = ("window_sum", "tier_mean", "events_count", "histogram",
               "projection")
TIERS = ("prod", "mid", "beb", "free")


@dataclass(frozen=True)
class Query:
    kind: str
    lo: float
    hi: float
    tier: str
    fresh: bool

    def run(self, store) -> List[float]:
        """The answer through the store's pushdown scans."""
        window = Between("time" if self.kind == "events_count" else "start_time",
                         self.lo, self.hi)
        if self.kind == "events_count":
            return [store.scan("instance_events").where(window).count()]
        scan = store.scan("instance_usage").where(window)
        if self.kind == "window_sum":
            r = scan.select("avg_cpu").aggregate(Agg("count"), Agg("sum", "avg_cpu"))
            return [r["count"], r["sum(avg_cpu)"]]
        if self.kind == "tier_mean":
            r = scan.where(Compare("tier", "==", self.tier)).select("avg_mem") \
                .aggregate(Agg("mean", "avg_mem"))
            return [r["mean(avg_mem)"]]
        if self.kind == "histogram":
            r = scan.select("avg_cpu").aggregate(
                Agg("histogram", "avg_cpu", edges=HIST_EDGES))
            return [float(v) for v in r["histogram(avg_cpu)"]]
        table = scan.select("collection_id", "avg_cpu").to_table()
        return [len(table), float(table.column("collection_id").values.sum()),
                float(table.column("avg_cpu").values.sum())]

    def expected(self, trace) -> List[float]:
        """The same answer by brute-force NumPy over the in-memory table."""
        if self.kind == "events_count":
            t = trace.instance_events.column("time").values
            return [int(((t >= self.lo) & (t <= self.hi)).sum())]
        usage = trace.instance_usage
        t = usage.column("start_time").values
        mask = (t >= self.lo) & (t <= self.hi)
        cpu = usage.column("avg_cpu").values
        if self.kind == "window_sum":
            return [int(mask.sum()), float(cpu[mask].sum())]
        if self.kind == "tier_mean":
            mask &= usage.column("tier").values == self.tier
            mem = usage.column("avg_mem").values[mask]
            return [float(mem.mean()) if mem.size else float("nan")]
        if self.kind == "histogram":
            clipped = np.clip(cpu[mask], HIST_EDGES[0], HIST_EDGES[-1])
            return [float(v) for v in np.histogram(clipped, bins=HIST_EDGES)[0]]
        ids = usage.column("collection_id").values[mask]
        return [int(mask.sum()), float(ids.sum()), float(cpu[mask].sum())]


def same(expected: Sequence[float], got: Sequence[float]) -> bool:
    a = np.asarray(expected, dtype=float)
    b = np.asarray(got, dtype=float)
    return a.shape == b.shape and bool(
        np.allclose(a, b, rtol=1e-9, atol=1e-9, equal_nan=True))


def query_mix(seed: int, horizon: float, n: int) -> List[Query]:
    """A seeded, fixed mix of ``n`` pushdown queries over ``horizon`` s.

    Kinds, window widths and fresh/shared handles cycle in a fixed
    pattern, so every seed asks for about the same work; the seed places
    the windows and picks the tiers."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        width = (1.0, 2.0, 4.0)[i % 3] * HOUR_SECONDS
        lo = rng.uniform(0.0, horizon - width)
        out.append(Query(kind=QUERY_KINDS[i % len(QUERY_KINDS)], lo=lo,
                         hi=lo + width, tier=rng.choice(TIERS),
                         fresh=i % 2 == 0))
    return out


class TraceQueries:
    """Seeded pushdown queries, back to back, against one written store."""

    name = "trace-queries"
    setup_per_unit = False

    def __init__(self, seed: int, scratch: Path, machines: int = 80,
                 hours: float = 24.0, chunk_rows: int = 1024,
                 queries: int = 60):
        self.seed, self.scratch = seed, scratch
        self.machines, self.hours, self.chunk_rows = machines, hours, chunk_rows
        self.mix = query_mix(seed, hours * HOUR_SECONDS, queries)
        self.trace = None
        self.expected = None
        self._setups = 0

    def setup(self, rec: Optional[Recorder] = None) -> Path:
        self._setups += 1
        # The queried store is the same for every seed; the seed picks
        # the query mix.
        scenarios = build(rec, scenarios_2019, seed=WORKLOAD_SEED,
                          machines_per_cell=self.machines,
                          horizon_hours=self.hours, cells=["d"])
        trace = encode(rec, run_cells(scenarios)[0])
        path = self.scratch / f"store-{self._setups}"
        with span(rec, "store.write", "store.write"):
            save_trace(trace, path, format="store", chunk_rows=self.chunk_rows)
        self.trace, self.expected = trace, None
        return path

    def targets(self) -> List[Target]:
        return [SIM_TARGET, *STORE_READ_TARGETS]

    def unit(self, path: Path, rec: Optional[Recorder] = None) -> dict:
        """One pass over the mix; fresh queries open their own handle,
        the rest share one session handle (and its chunk LRU)."""
        with span(rec, "store.read.open", "store.read"):
            session = open_store(path)
        answers, latencies = [], []
        for query in self.mix:
            t0 = time.perf_counter()
            with span(rec, f"query.{query.kind}", "store.read"):
                if query.fresh:
                    with span(rec, "store.read.open", "store.read"):
                        store = open_store(path)
                else:
                    store = session
                answers.append(query.run(store))
            latencies.append(time.perf_counter() - t0)
        # Whole-store analysis passes, not queries: timed with the unit,
        # kept out of the query latencies.
        with span(rec, "analysis.store_reducers", "analysis"):
            integrals = job_usage_integrals_store(session)
            series = hourly_tier_series_store(session, resource="cpu")
        return {"answers": answers, "integrals": integrals, "series": series,
                "latencies": latencies}

    def check(self, out: dict) -> Check:
        if self.expected is None:
            self.expected = ([q.expected(self.trace) for q in self.mix],
                             job_usage_integrals(self.trace),
                             hourly_tier_series(self.trace, resource="cpu"))
        answers, integrals, series = self.expected
        failed = sum(1 for e, g in zip(answers, out["answers"]) if not same(e, g))
        failed += len(self.mix) - len(out["answers"])
        failed += int(not _same_integrals(integrals, out["integrals"]))
        failed += int(set(series) != set(out["series"]) or not all(
            same(series[k], out["series"][k]) for k in series))
        return Check(len(self.mix) + 2, failed, {
            "instance_events": len(self.trace.instance_events),
            "usage_rows": len(self.trace.instance_usage)})

    def cleanup_setup(self, keep: Path) -> None:
        for k in range(1, self._setups + 1):
            path = self.scratch / f"store-{k}"
            if path != keep:
                shutil.rmtree(path, ignore_errors=True)


def _same_integrals(ref, got) -> bool:
    a = ref.column("collection_id").values
    b = got.column("collection_id").values
    if len(a) != len(b):
        return False
    ia, ib = np.argsort(a, kind="stable"), np.argsort(b, kind="stable")
    return bool((a[ia] == b[ib]).all()) and all(
        same(ref.column(c).values[ia], got.column(c).values[ib])
        for c in ("ncu_hours", "nmu_hours"))


WORKLOADS = {w.name: w for w in (PaperPipeline, Engine2k, FailureSweep,
                                 TraceQueries)}
