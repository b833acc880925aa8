"""repro — a reproduction of "Borg: the Next Generation" (EuroSys 2020).

The package rebuilds the paper's full stack from scratch:

* ``repro.sim`` — a discrete-event Borg-cell simulator (tiers,
  preemption, batch queueing, alloc sets, dependencies, Autopilot).
* ``repro.workload`` — synthetic workloads calibrated to the paper's
  published 2011 and 2019 statistics, including the eight 2019 cells.
* ``repro.trace`` — the trace-generation pipeline: 2019 BigQuery-style
  and 2011 CSV-style schemas, plus the section-9 invariant validator.
* ``repro.table`` — in-memory typed columns, tables and the one
  sort-and-segment group-by kernel; ``repro.store``'s scans over them
  are the BigQuery substitute.
* ``repro.stats`` / ``repro.queueing`` — CCDFs, Pareto tail fits, C²,
  hogs-and-mice decomposition, M/G/1 Pollaczek-Khinchine analysis.
* ``repro.analysis`` — one module per paper figure/table.

Quickstart::

    from repro.workload import small_test_scenario
    from repro.trace import encode_cell
    from repro.analysis import consumption

    result = small_test_scenario(seed=1).run()
    trace = encode_cell(result)
    report = consumption.resource_hours_summary(trace)
"""

__version__ = "1.0.0"
