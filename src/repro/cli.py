"""Command-line interface: simulate cells, validate traces, render reports.

Installed as ``borg-repro``; also runnable as ``python -m repro.cli``.

Subcommands
-----------
simulate
    Simulate one or more cells and write their traces to a directory
    (CSV or chunked-store format), optionally fanning cells out over
    worker processes with ``--workers``.
validate
    Run the section-9 invariant pipeline over a saved trace.
report
    Load saved traces (or simulate fresh ones) and print the full
    paper-as-text report.
convert
    Re-encode a CSV trace directory as a chunked columnar store (or
    back).
query
    Run a projection + predicate + aggregate against a store straight
    from the command line, optionally over multiple worker processes.
stats
    Render a ``repro.obs`` run report (written with ``--obs-out`` on
    ``simulate`` or ``query``) or a flight-recorder frames file
    (written with ``--record``) as text or JSON.
bench
    The perf gate: ``bench compare PARENT_DIR CHANGE_DIR`` judges a
    change's ``perfbench`` runs against its parent's with the metrics
    and bounds of ``BENCHMARK.json`` (exit 1 on regression).
campaign
    Run a declarative parameter-sweep campaign from a JSON spec
    (content-addressed point cache, parallel workers, fault-tolerant),
    probe its cache state, or render the trade-study / Pareto report.
lint
    Run the repo's AST-based static-analysis pass (schema consistency,
    determinism, fork safety, exception hygiene, unit discipline, obs
    discipline, hot-loop guards) over source files or directories; each
    rule reads one file at a time.

Exit codes (README, "Command line"): 0 done, 1 the command found
failures, 2 the input could not be used (see :func:`main`).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs
from repro.analysis import failures
from repro.analysis.report import full_report
from repro.campaign import (
    build_report,
    campaign_status,
    load_campaign_results,
    load_spec,
    render_report,
    render_report_json,
    run_campaign,
)
from repro.campaign.spec import _validate_cells_for_era, _validate_param
from repro.lint import lint_project
from repro.lint import render as render_lint
from repro.obs.profiler import SamplingProfiler
from repro.obs.recorder import (
    FRAMES_SCHEMA,
    DEFAULT_INTERVAL as DEFAULT_RECORD_INTERVAL,
    FrameSchemaError,
    RunRecorder,
    iter_frames,
    render_frames,
)
from repro.obs.regress import compare_dirs, load_contract
from repro.sim.driver import run_cells
from repro.store import (
    Agg,
    And,
    Between,
    Compare,
    IsIn,
    open_store,
)
from repro.store.writer import DEFAULT_CHUNK_ROWS
from repro.trace import encode_cell, load_trace, save_trace, validate_trace
from repro.trace.io import detect_format
from repro.util.errors import QueryError, ReproError, SimulationError
from repro.faults import FAULT_PROFILES
from repro.workload import ARCHETYPE_MIXES, build_cells


def _add_obs_out_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--obs-out", default=None, metavar="REPORT.json",
                        help="write the repro.obs run report (metrics + "
                             "span trees) here; render it later with "
                             "'borg-repro stats'")


def _write_obs_report(args, command: str, meta: dict,
                      profile: Optional[dict] = None) -> None:
    if not args.obs_out:
        return
    obs.write_report(args.obs_out, command=command, meta=meta, profile=profile)
    print(f"obs report written to {args.obs_out}", file=sys.stderr)


def _positive(cast, zero: bool = False):
    """An argparse ``type``: ``cast(text)``, which must be above zero (or
    at least zero, with ``zero``)."""
    def parse(text: str):
        value = cast(text)
        if zero and not value >= 0:
            raise argparse.ArgumentTypeError(
                f"must not be negative, got {text}")
        if not zero and not value > 0:
            raise argparse.ArgumentTypeError(f"must be above zero, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse's "invalid int value" names it
    return parse


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machines", type=int, default=100,
                        help="machines per cell (default 100)")
    parser.add_argument("--hours", type=float, default=48.0,
                        help="trace horizon in hours (default 48)")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="arrival-rate scale vs the real clusters")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--faults", default=None, metavar="PROFILE",
                        choices=sorted(FAULT_PROFILES),
                        help="fault-injection profile "
                             f"({', '.join(sorted(FAULT_PROFILES))}; "
                             "default: off)")
    parser.add_argument("--fault-rate", type=float, default=1.0,
                        metavar="SCALE",
                        help="multiplier on the profile's unplanned "
                             "failure rates (default 1.0)")
    parser.add_argument("--archetype-mix", default=None, metavar="MIX",
                        choices=sorted(ARCHETYPE_MIXES),
                        help="additional user-archetype workload "
                             f"({', '.join(sorted(ARCHETYPE_MIXES))}; "
                             "default: none)")


def _print_fault_summary(name: str, result, trace,
                         archetypes: bool) -> None:
    """The failure view of one fault-injected cell.

    Printed right after encoding: the resubmission chains come from the
    simulator's side stream, which is not a trace table and is gone once
    the run ends.
    """
    prefix = f"cell {name}: faults:"
    for tier, row in failures.failure_rates_by_tier([trace]).items():
        rates = " ".join(
            f"{kind.lower()}/h={row[f'{kind.lower()}_per_task_hour']:.6g}"
            for kind in failures.TERMINAL_TYPES)
        print(f"{prefix} tier {tier}: task_hours={row['task_hours']:.6g} "
              f"new_tasks={int(row['new_tasks'])} {rates}")
    avail = failures.machine_availability([trace], trace.horizon)
    print(f"{prefix} availability={avail['availability']:.6g} "
          f"outages={int(avail['outages'])} "
          f"down_machine_hours={avail['down_machine_hours']:.6g}")
    chains = failures.resubmission_report([result])
    line = (f"{prefix} resubmissions={chains['resubmissions']} "
            f"chains={chains['chains']} "
            f"max_chain_depth={chains['max_chain_depth']} "
            f"mean_chain_depth={chains['mean_chain_depth']:.6g}")
    if chains["resubmissions"]:
        delays = failures.resubmission_interval_ccdf([result])
        line += f" median_delay_s={delays.quantile_of_exceedance(0.5):.6g}"
    print(line)
    if archetypes:
        shares = failures.archetype_usage_shares([trace])
        print(f"{prefix} archetype shares: "
              + " ".join(f"{kind}={share:.6g}" for kind, share in shares.items()))


def _simulate(args) -> int:
    profiler = SamplingProfiler() if args.profile else None
    # The range rules a campaign point gets, before anything runs.
    cells: List[str] = _validate_param("cells", args.cells)
    _validate_cells_for_era(
        {"era": "2019", "cells": [c for c in cells if c != "2011"]})
    for name in ("machines", "hours", "scale", "fault_rate"):
        _validate_param(name, getattr(args, name))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenarios = build_cells(cells, seed=args.seed,
                            machines_per_cell=args.machines,
                            horizon_hours=args.hours, arrival_scale=args.scale,
                            faults=args.faults, fault_rate=args.fault_rate,
                            archetype_mix=args.archetype_mix)
    meta = {"cells": ",".join(cells), "machines": args.machines,
            "hours": args.hours, "scale": args.scale,
            "seed": args.seed, "format": args.format,
            "workers": args.workers, "faults": args.faults,
            "fault_rate": args.fault_rate,
            "archetype_mix": args.archetype_mix}
    record: Optional[RunRecorder] = None
    if args.record:
        record = RunRecorder(args.record, interval=args.record_interval)
    profile_payload: Optional[dict] = None
    if profiler is not None:
        profiler.start()
    try:
        t0 = time.perf_counter()
        results = run_cells(scenarios, workers=args.workers, record=record)
        t_sim = time.perf_counter() - t0
        if record is not None:
            record.status.close()
        pool = obs.pool_size(args.workers, len(scenarios))
        mode = f"{pool} workers" if pool > 1 else "serial"
        # Batch wall clock + per-cell row counts, so benchmark regressions
        # in the simulator or the writer are visible straight from the CLI.
        print(f"{len(results)} cell(s) simulated in {t_sim:.1f}s ({mode})")
        for scenario, result in zip(scenarios, results):
            name = scenario.name
            t1 = time.perf_counter()
            trace = encode_cell(result)
            save_trace(trace, out / name, format=args.format)
            t_save = time.perf_counter() - t1
            rows = {tname: len(t) for tname, t in trace.tables.items()}
            print(f"cell {name}: encoded + saved ({args.format}) "
                  f"in {t_save:.1f}s -> {out / name}")
            print(f"cell {name}: rows written: total={sum(rows.values())} "
                  + " ".join(f"{tname}={n}" for tname, n in rows.items()))
            if args.faults:
                _print_fault_summary(name, result, trace,
                                     archetypes=bool(args.archetype_mix))
    finally:
        if profiler is not None:
            profiler.stop()
    if profiler is not None:
        stacks = profiler.write_collapsed(args.profile)
        print(f"profile: {profiler.sample_count} samples -> {args.profile} "
              f"({stacks} collapsed stack(s))", file=sys.stderr)
        profile_payload = profiler.to_dict()
    if record is not None:
        # The final frame is sampled after trace encoding, at the same
        # point the obs report is written, so their counters agree.
        record.finalize("simulate", meta)
        record.close()
        print(f"frames written to {record.sink.path} "
              f"({record.sink.frames_written} frame(s)); render with "
              "'borg-repro stats'", file=sys.stderr)
    _write_obs_report(args, "simulate", meta, profile=profile_payload)
    return 0


def _validate(args) -> int:
    trace = load_trace(args.trace_dir)
    violations = validate_trace(trace)
    if not violations:
        print(f"{args.trace_dir}: all invariants hold "
              f"({len(trace.instance_usage)} usage rows checked)")
        return 0
    print(f"{args.trace_dir}: {len(violations)} violations")
    for v in violations[:20]:
        print(f"  {v}")
    return 1


def _report(args) -> int:
    root = Path(args.trace_root)
    dirs = sorted(p for p in root.iterdir()
                  if p.is_dir() and detect_format(p) is not None)
    if not dirs:
        raise ReproError(f"no traces under {root} (expected subdirectories "
                         "with metadata.json or manifest.json; create them "
                         "with 'borg-repro simulate')")
    traces = [load_trace(d) for d in dirs]
    traces_2011 = [t for t in traces if t.era == "2011"]
    traces_2019 = [t for t in traces if t.era != "2011"]
    if not traces_2011 or not traces_2019:
        raise ReproError("the report needs at least one 2011-era and one "
                         "2019-era trace")
    # Section 5.2 pools collections across cells by id.
    seen: Dict[str, set] = {}
    for d, trace in zip(dirs, traces):
        ids = set(trace.collection_events["collection_id"].values.tolist())
        for other, other_ids in seen.items():
            if not ids.isdisjoint(other_ids):
                raise ReproError(f"cells {other!r} and {d.name!r} share collection "
                                 "ids; the report needs cells of one 'simulate' run")
        seen[d.name] = ids
    text = full_report(traces_2011, traces_2019)
    if args.out:
        Path(args.out).write_text(text)
    # Printed once the report is out, so a failed write is the only line.
    for d, trace in zip(dirs, traces):
        print(f"loaded {d.name} (era {trace.era})", file=sys.stderr)
    if args.out:
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _convert(args) -> int:
    t0 = time.perf_counter()
    if args.to == "store":
        save_trace(load_trace(args.src, format="csv"), args.dst,
                   format="store", chunk_rows=args.chunk_rows)
        store = open_store(args.dst)
        chunks = sum(len(store.manifest.chunks(t)) for t in store.table_names)
        rows = sum(store.rows(t) for t in store.table_names)
        print(f"{args.src} -> {args.dst}: {rows} rows in {chunks} chunks "
              f"({args.chunk_rows} rows/chunk) in {time.perf_counter() - t0:.1f}s")
    else:
        save_trace(load_trace(args.src, format="store"), args.dst,
                   format="csv")
        print(f"{args.src} -> {args.dst}: store re-encoded as CSV "
              f"in {time.perf_counter() - t0:.1f}s")
    return 0


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_where(clause: str):
    """One ``--where`` clause -> a pushdown predicate.

    Grammar (whitespace-separated): ``col OP value`` with OP in
    ``== != < <= > >=``, ``col in v1,v2,...``, or
    ``col between LO HI``.
    """
    parts = clause.split()
    if len(parts) == 4 and parts[1] == "between":
        return Between(parts[0], _parse_scalar(parts[2]), _parse_scalar(parts[3]))
    if len(parts) != 3:
        raise QueryError(f"bad --where clause {clause!r}: expected "
                         "'col OP value', 'col in v1,v2', or 'col between lo hi'")
    column, op, value = parts
    if op == "in":
        return IsIn(column, [_parse_scalar(v) for v in value.split(",") if v])
    return Compare(column, op, _parse_scalar(value))


def _parse_agg(spec: str) -> Agg:
    """``count``, ``kind:column``, or ``histogram:column:e0,e1,...``."""
    parts = spec.split(":")
    if parts[0] == "count" and len(parts) == 1:
        return Agg("count")
    if parts[0] == "histogram":
        if len(parts) != 3:
            raise QueryError(f"bad --agg {spec!r}: histogram needs "
                             "'histogram:column:edge0,edge1,...'")
        edges = [_parse_scalar(e) for e in parts[2].split(",") if e]
        return Agg("histogram", parts[1], edges=edges)
    if len(parts) != 2:
        raise QueryError(f"bad --agg {spec!r}: expected 'count', 'kind:column',"
                         " or 'histogram:column:edges'")
    return Agg(parts[0], parts[1])


def _query(args) -> int:
    # Every clause and aggregate is checked here, before any chunk is
    # dispatched.
    predicates = [_parse_where(clause) for clause in args.where]
    aggs = [_parse_agg(spec) for spec in args.agg]
    scan = open_store(args.store_dir).scan(args.table)
    if predicates:
        scan = scan.where(And(*predicates) if len(predicates) > 1
                          else predicates[0])
    if args.select:
        scan = scan.select(*[c for c in args.select.split(",") if c])
    if aggs:
        result = scan.aggregate(*aggs, workers=args.workers)
        for alias, value in result.items():
            if hasattr(value, "tolist"):
                value = value.tolist()
            print(f"{alias} = {value}")
    else:
        table = scan.to_table(workers=args.workers)
        print(table.to_string(max_rows=args.limit))
    _write_obs_report(args, "query",
                      {"store": str(args.store_dir), "table": args.table,
                       "workers": args.workers})
    print(f"scan: {scan.last_stats}", file=sys.stderr)
    return 0


def _stats(args) -> int:
    """Render either supported ``repro.obs`` file format.

    A run report (``repro.obs/1``) is one indented JSON object; a
    frames file (``repro.obs.frames/1``) is JSONL ending in the final
    frame, so an empty file is a cut-short one.  Anything else raises
    :class:`FrameSchemaError`.
    """
    raw = Path(args.report).read_bytes()
    if not raw.strip():
        raise FrameSchemaError(f"{args.report}: empty (a run report or a "
                               "frames file holds at least one JSON object)")
    try:
        payload = json.loads(raw)
    except ValueError:
        payload = None  # multi-line JSONL (or garbage): handled below
    if isinstance(payload, dict) and payload.get("schema") == obs.SCHEMA:
        if args.format == "json":
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            sys.stdout.write(obs.render_report(payload))
        return 0
    if isinstance(payload, dict) and payload.get("schema") != FRAMES_SCHEMA:
        raise FrameSchemaError(
            f"{args.report}: unsupported repro.obs schema "
            f"{payload.get('schema')!r} (this build renders "
            f"{obs.SCHEMA!r} reports and {FRAMES_SCHEMA!r} frames)")
    frames = list(iter_frames(io.BytesIO(raw), source=str(args.report)))
    if args.format == "json":
        json.dump(frames, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(render_frames(frames))
    return 0


def _bench_compare(args) -> int:
    result = compare_dirs(args.parent, args.change, load_contract())
    sys.stdout.write(result.render())
    return 0 if result.passed else 1


def _campaign_run(args) -> int:
    spec = load_spec(args.spec)
    summary = run_campaign(spec, args.out, workers=args.workers,
                           force=args.force)
    print(summary.render())
    if args.summary_out:
        with open(args.summary_out, "w", encoding="utf-8") as f:
            json.dump(summary.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"run summary written to {args.summary_out}", file=sys.stderr)
    _write_obs_report(args, "campaign run",
                      {"spec": str(args.spec), "out": str(args.out),
                       "workers": args.workers})
    return 0 if summary.ok else 1


def _campaign_status(args) -> int:
    spec = load_spec(args.spec)
    records = campaign_status(spec, args.out)
    counts = {"hit": 0, "error": 0, "missing": 0}
    for record in records:
        counts[record["state"]] += 1
    if args.json:
        json.dump({"campaign": spec.name, "points": len(records),
                   "hits": counts["hit"], "errors": counts["error"],
                   "missing": counts["missing"]},
                  sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(f"campaign {spec.name}: {len(records)} point(s) — "
          f"{counts['hit']} cached, {counts['error']} error(s), "
          f"{counts['missing']} missing")
    for record in records:
        grid = " ".join(f"{k}={v}" for k, v in record["grid"].items())
        print(f"  point {record['point_id']:>3d} seed {record['seed']:>3d} "
              f"[{record['key']}] {record['state']:<7s} {grid}")
    return 0


def _campaign_report(args) -> int:
    spec = load_spec(args.spec)
    results = load_campaign_results(spec, args.out)
    if not results:
        raise ReproError(f"no cached results for {spec.name} under "
                         f"{args.out} (run 'borg-repro campaign run' first)")
    report = build_report(spec, results)
    text = render_report_json(report) if args.format == "json" \
        else render_report(report)
    if args.report_out:
        Path(args.report_out).write_text(text, encoding="utf-8")
        print(f"report written to {args.report_out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _lint(args) -> int:
    select = None
    if args.select:
        select = sorted({rule_id.strip().upper()
                         for spec in args.select
                         for rule_id in spec.split(",") if rule_id.strip()})
    result = lint_project(args.paths, select=select)
    return render_lint(result.violations, result.files_total, sys.stdout,
                       format=args.format, statistics=args.statistics,
                       timings=result.timings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="borg-repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate cells and save traces")
    p_sim.add_argument("--cells", default="2011,a,b,c,d,e,f,g,h",
                       help="comma-separated cells ('2011' and/or a-h)")
    p_sim.add_argument("--out", default="traces",
                       help="output directory (one subdir per cell)")
    p_sim.add_argument("--format", choices=("csv", "store"), default="csv",
                       help="trace format to write (default csv)")
    p_sim.add_argument("--workers", type=int, default=None,
                       help="worker processes for the parallel multi-cell "
                            "driver (default: serial; one cell per task)")
    p_sim.add_argument("--record", nargs="?", const="frames.jsonl",
                       default=None, metavar="FRAMES.jsonl",
                       help="stream flight-recorder frames (one JSONL frame "
                            "per simulated interval per cell) to this file "
                            "(default frames.jsonl); render with "
                            "'borg-repro stats'")
    p_sim.add_argument("--record-interval", type=_positive(float),
                       default=DEFAULT_RECORD_INTERVAL, metavar="SECONDS",
                       help="simulated seconds between frames "
                            "(default: one hour)")
    p_sim.add_argument("--profile", nargs="?", const="profile.collapsed",
                       default=None, metavar="STACKS.collapsed",
                       help="sample the run with the zero-dependency "
                            "profiler and write collapsed stacks here "
                            "(default profile.collapsed); the hot-function "
                            "table lands in --obs-out")
    _add_scale_args(p_sim)
    _add_obs_out_arg(p_sim)
    p_sim.set_defaults(func=_simulate)

    p_val = sub.add_parser("validate", help="check trace invariants")
    p_val.add_argument("trace_dir", help="directory written by 'simulate'")
    p_val.set_defaults(func=_validate)

    p_rep = sub.add_parser("report", help="render the full paper report")
    p_rep.add_argument("trace_root", help="directory containing cell subdirs")
    p_rep.add_argument("--out", default=None, help="write the report here")
    p_rep.set_defaults(func=_report)

    p_conv = sub.add_parser(
        "convert", help="re-encode a CSV trace as a chunked store (or back)")
    p_conv.add_argument("src", help="source trace directory")
    p_conv.add_argument("dst", help="destination directory")
    p_conv.add_argument("--to", choices=("store", "csv"), default="store",
                        help="target format (default store)")
    p_conv.add_argument("--chunk-rows", type=_positive(int),
                        default=DEFAULT_CHUNK_ROWS,
                        help=f"rows per chunk (default {DEFAULT_CHUNK_ROWS})")
    p_conv.set_defaults(func=_convert)

    p_query = sub.add_parser(
        "query", help="projection + predicate + aggregate over a store")
    p_query.add_argument("store_dir", help="store directory (see 'convert')")
    p_query.add_argument("table", help="table name, e.g. instance_usage")
    p_query.add_argument("--select", default=None,
                         help="comma-separated columns to project")
    p_query.add_argument("--where", action="append", default=[],
                         metavar="CLAUSE",
                         help="predicate clause 'col OP value' | "
                              "'col in v1,v2' | 'col between lo hi' "
                              "(repeatable; clauses are ANDed and pushed "
                              "down to skip whole chunks)")
    p_query.add_argument("--agg", action="append", default=[], metavar="SPEC",
                         help="aggregate 'count' | 'sum:col' | 'min:col' | "
                              "'max:col' | 'mean:col' | "
                              "'histogram:col:e0,e1,...' (repeatable; "
                              "omit to print matching rows)")
    p_query.add_argument("--workers", type=int, default=None,
                         help="worker processes for the parallel executor "
                              "(default: serial)")
    p_query.add_argument("--limit", type=_positive(int, zero=True), default=10,
                         help="max rows to print without --agg (default 10)")
    _add_obs_out_arg(p_query)
    p_query.set_defaults(func=_query)

    p_stats = sub.add_parser(
        "stats", help="render a repro.obs run report (--obs-out) or a "
                      "flight-recorder frames file (--record)")
    p_stats.add_argument("report", help="report JSON written with --obs-out, "
                                        "or frames JSONL written with --record")
    p_stats.add_argument("--format", choices=("text", "json"), default="text",
                         help="output format (default text)")
    p_stats.set_defaults(func=_stats)

    p_bench = sub.add_parser(
        "bench", help="the perf gate over perfbench results")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_cmp = bench_sub.add_parser(
        "compare", help="judge a change's perfbench runs against its "
                        "parent's with BENCHMARK.json's bounds "
                        "(exit 1 on regression, 2 on bad input)")
    p_cmp.add_argument("parent", help="directory of the parent's "
                                      "<workload>.jsonl result lines")
    p_cmp.add_argument("change", help="directory of the change's "
                                      "<workload>.jsonl result lines")
    p_cmp.set_defaults(func=_bench_compare)

    p_camp = sub.add_parser(
        "campaign", help="declarative what-if sweeps with a "
                         "content-addressed point cache")
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)
    p_crun = camp_sub.add_parser(
        "run", help="run a campaign spec (cached points are skipped; "
                    "exit 1 when any point errored)")
    p_crun.add_argument("spec", help="campaign spec JSON (see examples/)")
    p_crun.add_argument("--out", default="campaign_out",
                        help="campaign output directory "
                             "(default campaign_out; one subdir per "
                             "point cache key)")
    p_crun.add_argument("--workers", type=int, default=None,
                        help="worker processes for point fan-out "
                             "(default: serial)")
    p_crun.add_argument("--force", action="store_true",
                        help="re-evaluate every point, ignoring the cache")
    p_crun.add_argument("--summary-out", default=None, metavar="SUMMARY.json",
                        help="write the machine-readable run summary "
                             "(points/hits/ran/errors) here")
    _add_obs_out_arg(p_crun)
    p_crun.set_defaults(func=_campaign_run)
    p_cstat = camp_sub.add_parser(
        "status", help="probe a campaign's cache state without running")
    p_cstat.add_argument("spec", help="campaign spec JSON")
    p_cstat.add_argument("--out", default="campaign_out",
                         help="campaign output directory "
                              "(default campaign_out)")
    p_cstat.add_argument("--json", action="store_true",
                         help="print the counts as JSON")
    p_cstat.set_defaults(func=_campaign_status)
    p_crep = camp_sub.add_parser(
        "report", help="render the trade-study tables and Pareto front "
                       "from cached results")
    p_crep.add_argument("spec", help="campaign spec JSON")
    p_crep.add_argument("--out", default="campaign_out",
                        help="campaign output directory "
                             "(default campaign_out)")
    p_crep.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    p_crep.add_argument("--report-out", default=None, metavar="REPORT",
                        help="write the report here instead of stdout")
    p_crep.set_defaults(func=_campaign_report)

    p_lint = sub.add_parser(
        "lint", help="run the repo's per-file static-analysis rules "
                     "(RPR001-RPR007)")
    p_lint.add_argument("paths", nargs="+",
                        help="files or directories to lint (e.g. src/)")
    p_lint.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    p_lint.add_argument("--select", action="append", default=[],
                        metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(default: all; repeatable)")
    p_lint.add_argument("--statistics", action="store_true",
                        help="append per-rule violation counts and wall-time "
                             "histograms (text format)")
    p_lint.set_defaults(func=_lint)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one place an input error becomes exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        if isinstance(exc, SimulationError):
            raise  # a simulator bug, not bad input: keep the traceback
        command = " ".join(getattr(args, key) for key in (
            "command", "bench_command", "campaign_command") if hasattr(args, key))
        print(f"{command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
