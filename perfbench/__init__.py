"""A self-checking benchmark of the trace pipeline with per-layer CPU attribution.

Run ``python3 perfbench/run.py --help`` from the root of a checkout; see
``perfbench/README.md`` for the workloads and the metrics.
"""
