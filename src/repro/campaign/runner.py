"""The campaign runner: cached, fault-tolerant, parallel point evaluation.

Execution model
---------------
:func:`run_campaign` expands nothing itself — it takes a validated
:class:`~repro.campaign.spec.CampaignSpec` and walks its points:

1. **Cache probe.**  Each point's result lives at
   ``<out>/<key>/result.json`` (one JSONL line, schema
   ``repro.campaign.result/1``).  A probe first runs
   :func:`repro.obs.recorder.recover_jsonl` — a run killed mid-write
   leaves a truncated line, which recovery discards so the point simply
   re-runs instead of poisoning the cache — then accepts the payload
   only if its schema and embedded key match.  ``status == "error"``
   results are *kept* for reporting but never count as hits: transient
   failures retry on the next run.
2. **Fan-out.**  Cache misses run through :func:`repro.obs.fan_out`
   (``workers``), which evaluates each point in a fresh scoped registry
   and merges its metrics exactly once, in point order.  Each point's
   cells run through ``run_cells`` itself (serially — the point fan-out
   is the parallelism), so a campaign point is exactly a ``simulate``
   invocation with overrides.
3. **Fault isolation.**  A point whose evaluation raises records an
   ``error`` result (the exception is printed to stderr worker-side)
   and the campaign keeps going; the run summary's ``errors`` count is
   what the CLI turns into a partial-failure exit code.
4. **Progress.**  When the fan-out returns, each evaluated point is
   written to its result file and counted on the status line.  The
   result files are the campaign's whole on-disk state: resume,
   ``campaign status`` and ``campaign report`` read nothing else.

Determinism: a point's result payload is a pure function of its params
and seed (the simulators derive all randomness from the scenario seed),
and results are keyed by content address, so the on-disk state — and
every report built from it — is identical between serial and
``--workers N`` runs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.campaign.spec import CampaignSpec, EvalPoint
from repro.campaign.summary import point_metrics
from repro.obs.recorder import FrameSink, StatusLine, recover_jsonl
from repro.sim.driver import run_cells
from repro.workload.scenarios import CellScenario, build_cells

#: Per-point result schema (one JSONL line per ``result.json``).
RESULT_SCHEMA = "repro.campaign.result/1"

#: File name of a point's cached result under ``<out>/<key>/``.
RESULT_FILENAME = "result.json"


def build_scenarios(params: Dict[str, object], seed: int
                    ) -> List[CellScenario]:
    """Materialize one point's cell scenarios from its resolved params.

    Over-commit overrides are applied by rebuilding the (frozen) cell
    config with a replaced :class:`~repro.sim.scheduler.SchedulerParams`
    — the era preset stays the source of every knob the point does not
    override.
    """
    scenarios = build_cells(list(params["cells"]), seed=seed,
                            machines_per_cell=int(params["machines"]),
                            horizon_hours=float(params["hours"]),
                            arrival_scale=float(params["scale"]),
                            sample_period=float(params["sample_period"]),
                            faults=params.get("faults"),
                            fault_rate=float(params.get("fault_rate", 1.0)),
                            archetype_mix=params.get("archetype_mix"))
    overrides = {knob: float(params[knob])
                 for knob in ("overcommit_cpu", "overcommit_mem")
                 if params.get(knob) is not None}
    if overrides:
        for scenario in scenarios:
            scheduler = dataclasses.replace(scenario.config.scheduler,
                                            **overrides)
            scenario.config = dataclasses.replace(scenario.config,
                                                  scheduler=scheduler)
    return scenarios


def evaluate_point(point: EvalPoint) -> dict:
    """Run one point to a result payload (never raises for sim errors)."""
    t0 = time.perf_counter()
    payload = {
        "schema": RESULT_SCHEMA,
        "key": point.key,
        "point_id": point.point_id,
        "params": dict(point.params),
        "grid": dict(point.grid_values),
        "seed": point.seed,
        "status": "ok",
        "metrics": {},
        "error": None,
    }
    try:
        scenarios = build_scenarios(point.params, point.seed)
        results = run_cells(scenarios)
        payload["metrics"] = point_metrics(results)
        obs.inc("campaign.points_ok")
    except Exception as exc:
        print(f"campaign: point {point.key} ({point.describe()}) failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        payload["status"] = "error"
        payload["error"] = f"{type(exc).__name__}: {exc}"
        obs.inc("campaign.points_failed")
    # Wall-clock lives under the single volatile key, mirroring the
    # flight-recorder frame contract: reports must never read it.
    payload["wall"] = {"elapsed_s": round(time.perf_counter() - t0, 6)}
    return payload


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def result_path(out_dir: Union[str, os.PathLike], key: str) -> Path:
    return Path(out_dir) / key / RESULT_FILENAME


def load_point_result(out_dir: Union[str, os.PathLike],
                      key: str) -> Optional[dict]:
    """The recovered, validated cached payload for ``key``, or None.

    Recovery (:func:`recover_jsonl`) truncates a partial trailing line
    first; a file that recovers to nothing, fails to parse, or carries
    the wrong schema/key is discarded — deleted so the next writer
    starts clean — and the point re-runs.
    """
    path = result_path(out_dir, key)
    if not path.exists():
        return None
    recover_jsonl(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return None
    line = text.strip().splitlines()[0] if text.strip() else ""
    payload: Optional[dict] = None
    if line:
        try:
            decoded = json.loads(line)
        except ValueError:
            decoded = None
        if isinstance(decoded, dict) and decoded.get("schema") == RESULT_SCHEMA \
                and decoded.get("key") == key:
            payload = decoded
    if payload is None:
        path.unlink(missing_ok=True)
        obs.inc("campaign.cache_discarded")
    return payload


def write_point_result(out_dir: Union[str, os.PathLike],
                       payload: dict) -> Path:
    """Persist one payload as its point's single-line result file."""
    path = result_path(out_dir, payload["key"])
    with FrameSink(path, buffer_frames=1) as sink:
        sink.append(payload)
    return path


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

@dataclass
class CampaignRunResult:
    """What one ``campaign run`` did: counts plus per-point payloads."""

    campaign: str
    out_dir: Path
    total: int = 0
    hits: int = 0
    ran: int = 0
    errors: int = 0
    elapsed_s: float = 0.0
    #: Result payloads in spec point order (cache hits included).
    results: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.errors == 0

    def to_dict(self) -> dict:
        return {"campaign": self.campaign, "out": str(self.out_dir),
                "points": self.total, "hits": self.hits, "ran": self.ran,
                "errors": self.errors,
                "elapsed_s": round(self.elapsed_s, 3)}

    def render(self) -> str:
        return (f"campaign {self.campaign}: {self.total} point(s) — "
                f"{self.hits} cache hit(s), {self.ran} run, "
                f"{self.errors} error(s) in {self.elapsed_s:.1f}s")


def run_campaign(spec: CampaignSpec, out_dir: Union[str, os.PathLike],
                 workers: Optional[int] = None, force: bool = False,
                 status: Optional[StatusLine] = None) -> CampaignRunResult:
    """Evaluate every point of ``spec``, incrementally and in parallel."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    status = status if status is not None else StatusLine()
    summary = CampaignRunResult(campaign=spec.name, out_dir=out,
                                total=len(spec.points))
    obs.inc("campaign.runs")
    obs.gauge("campaign.points_total", len(spec.points))

    # Phase 1: probe the cache; keep hit payloads, queue the misses.
    by_point: Dict[int, dict] = {}  # index in spec.points -> payload
    misses: List[Tuple[int, EvalPoint]] = []
    for i, point in enumerate(spec.points):
        payload = None if force else load_point_result(out, point.key)
        if payload is not None and payload.get("status") == "ok":
            by_point[i] = payload
            summary.hits += 1
            obs.inc("campaign.cache_hits")
        else:
            misses.append((i, point))
        status.update(f"[campaign {spec.name}] probing cache "
                      f"{i + 1}/{len(spec.points)} ({summary.hits} hit(s))")

    # Phase 2: evaluate the misses, persisting each result.
    try:
        payloads = obs.fan_out(evaluate_point, [p for _, p in misses],
                               workers, section="campaign")
        for (i, point), payload in zip(misses, payloads):
            by_point[i] = payload
            write_point_result(out, payload)
            summary.ran += 1
            if payload["status"] != "ok":
                summary.errors += 1
                print(f"campaign: recorded error result for point "
                      f"{point.key} ({point.describe()}): "
                      f"{payload['error']}", file=sys.stderr)
            done = summary.hits + summary.ran
            status.update(f"[campaign {spec.name}] {done}/{summary.total} "
                          f"point(s) ({summary.errors} error(s)) "
                          f"last: {point.describe()}")

        summary.elapsed_s = time.perf_counter() - t0
    finally:
        status.close()
    summary.results = [by_point[i] for i in sorted(by_point)]
    return summary


def campaign_status(spec: CampaignSpec, out_dir: Union[str, os.PathLike]
                    ) -> List[dict]:
    """Probe every point's cache state without running anything.

    Returns one record per point, in spec order: ``state`` is ``"hit"``
    (a valid ``ok`` result), ``"error"`` (a recorded failure that will
    retry), or ``"missing"``.
    """
    records = []
    for point in spec.points:
        payload = load_point_result(out_dir, point.key)
        if payload is None:
            state = "missing"
        elif payload.get("status") == "ok":
            state = "hit"
        else:
            state = "error"
        records.append({"point_id": point.point_id, "key": point.key,
                        "seed": point.seed, "grid": dict(point.grid_values),
                        "state": state})
    return records


def load_campaign_results(spec: CampaignSpec,
                          out_dir: Union[str, os.PathLike]) -> List[dict]:
    """Every cached payload of ``spec`` (ok or error), in spec order."""
    payloads = []
    for point in spec.points:
        payload = load_point_result(out_dir, point.key)
        if payload is not None:
            payloads.append(payload)
    return payloads
