#!/usr/bin/env python
"""Ad-hoc trace exploration through the store's query path.

The paper's authors ran "near-arbitrary queries against a multi-GiB
dataset" on BigQuery (section 9); this example shows the equivalent
workflow here: persist a trace as a chunked store, open it, and answer
questions with pushdown scans (``Scan.where(...).select(...)``), the
sort-and-segment group-by kernel, and a sorted-key join.

    python examples/trace_explorer.py [seed]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.common import group_reduce
from repro.store import Compare, IsIn, open_store
from repro.table import Table, segments
from repro.trace import encode_cell, save_trace, to_2011_tables
from repro.util.timeutil import HOUR_SECONDS
from repro.workload import small_test_scenario


def main(seed: int = 4) -> None:
    print("== simulate and persist a trace ==")
    trace = encode_cell(small_test_scenario(seed=seed).run())
    workdir = Path(tempfile.mkdtemp(prefix="borg-trace-"))
    save_trace(trace, workdir, format="store")
    print(f"  wrote {sorted(p.name for p in workdir.iterdir())}")
    print(f"  to {workdir}")

    store = open_store(workdir)
    dataset = store.to_dataset()

    print("\n== Q1: who submits the most jobs? ==")
    submits = (store.scan("collection_events")
               .where(Compare("type", "==", "SUBMIT")
                      & Compare("collection_type", "==", "job"))
               .select("user", "collection_id")
               .to_table()
               .distinct())  # a resubmitted job counts once
    users = submits["user"].values
    order, starts = segments(users)
    jobs = np.diff(starts, append=len(users))
    top = np.argsort(-jobs, kind="stable")[:5]  # ties stay in user order
    print(Table({"user": users[order[starts]][top],
                 "jobs": jobs[top]}).to_string())

    print("\n== Q2: kill rate by tier ==")
    terminals = (store.scan("collection_events")
                 .where(IsIn("type", ["FINISH", "KILL", "FAIL", "EVICT"]))
                 .select("tier", "type")
                 .to_table())
    tiers = terminals["tier"].values
    tier, ends = group_reduce(tiers, np.ones(len(tiers), dtype=np.int64))
    _, kills = group_reduce(tiers, (terminals["type"] == "KILL").astype(np.int64))
    print(Table({"tier": tier, "jobs": ends,
                 "kill_rate": kills / ends}).to_string())

    print("\n== Q3: join usage against machine capacity (hottest machines) ==")
    usage = (store.scan("instance_usage")
             .select("machine_id", "avg_cpu", "duration")
             .to_table())
    machine, cpu_hours = group_reduce(
        usage["machine_id"].values,
        usage["avg_cpu"].values * usage["duration"].values / HOUR_SECONDS)
    attrs = (store.scan("machine_attributes")
             .select("machine_id", "platform", "cpu_capacity")
             .to_table()
             .sort("machine_id"))
    attr_ids = attrs["machine_id"].values
    pos = np.searchsorted(attr_ids, machine).clip(max=len(attr_ids) - 1)
    hit = attr_ids[pos] == machine  # inner join: machines with attributes
    pos, cpu_hours = pos[hit], cpu_hours[hit]
    capacity = attrs["cpu_capacity"].values[pos]
    mean_util = cpu_hours / (capacity * dataset.horizon_hours)
    hottest = np.argsort(-mean_util, kind="stable")[:5]
    print(Table({"machine_id": attr_ids[pos][hottest],
                 "platform": attrs["platform"].values[pos][hottest],
                 "cpu_capacity": capacity[hottest],
                 "mean_util": mean_util[hottest]}).to_string())

    print("\n== Q4: export in the 2011 CSV layout ==")
    legacy = to_2011_tables(dataset)
    for name, table in legacy.items():
        print(f"  {name}: {len(table)} rows, columns {table.column_names}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
