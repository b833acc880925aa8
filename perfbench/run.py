"""Run one benchmark workload and print its metrics as JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-pipeline --seed 1 \
        --seconds 10 --trace 0

The process first re-executes itself with a fixed ``PYTHONHASHSEED`` and
single-threaded BLAS/OpenMP, then imports the library from the
checkout's ``src/``.  It generates the workload's inputs from the seed,
runs one warm-up unit, times the setup, repeats the workload's unit of
work until ``--seconds`` of timed work have run, checks every unit's
outputs, and prints an ``evidence:`` line (output fingerprints, scaled
and unscaled unit times, the machine slowdown per unit, error rate)
followed, as its last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, in seconds at
the reference machine speed (see :mod:`perfbench.speed`); with
``--trace 1`` untraced and traced units alternate and the metrics are
per-layer.  Traced spans are written to ``.perfbench/`` in the checkout.

Without the library sources next to it the script exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The environment every run executes under: hash order and BLAS threads.
ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
       "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def reexec_pinned() -> None:
    """Re-execute this script under :data:`ENV` unless already there
    (``execve`` keeps the process, so the caller still waits on it)."""
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, **ENV})


def import_library() -> None:
    """Put this checkout's ``src/`` first on the path and check that the
    library really comes from there (exit 2 without printing a result
    when the sources are missing)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro.cli  # cold-start the package the way the CLI does
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    reexec_pinned()
    import_library()
    from perfbench.harness import Run, latency_summary
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")

    out_root = ROOT / ".perfbench"
    scratch = out_root / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(WORKLOADS[args.workload](args.seed, scratch), args.seconds,
                  bool(args.trace))
        run.execute()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = run.per_layer() if args.trace else run.end_to_end()
    evidence = {"setup_round_s": [round(s, 4) for s in run.setup_s],
                "traced_units": len(run.traced),
                "unit_wall_s": [round(w, 4) for w, _ in run.plain],
                "unit_cpu_s": [round(c, 4) for _, c in run.plain],
                "unit_raw_wall_s": [round(w, 4) for w, _ in run.raw],
                "unit_slowdown": [round(f, 3) for f in run.slowdown],
                "error_rate": run.failed / run.attempted, **run.evidence}
    latency = latency_summary(run.latencies)
    if latency:
        evidence["query_latency"] = latency
    if args.trace:
        path = out_root / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(run.spans_json()))
        evidence["spans"] = str(path.relative_to(ROOT))
    print("evidence: " + json.dumps(evidence, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
