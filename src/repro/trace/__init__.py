"""The trace-generation pipeline (paper section 9).

Converts a :class:`~repro.sim.cell.CellResult` into relational trace
tables mirroring the published datasets:

* 2019-style (BigQuery tables): ``collection_events``,
  ``instance_events``, ``instance_usage``, ``machine_events``,
  ``machine_attributes``.
* 2011-style (CSV files): the same information under the older
  ``job_events`` / ``task_events`` / ``task_usage`` names with
  priorities as 0-11 bands.

Plus the automated invariant validator the authors wished they had
started with ("at this scale, paranoia is a helpful default").  The
2019 trace's per-sample CPU-usage histograms are not emitted
(DESIGN.md §3).
"""

from repro.trace.dataset import TraceDataset
from repro.trace.encode import encode_cell
from repro.trace.io import load_trace, save_trace
from repro.trace.legacy import to_2011_tables
from repro.trace.validate import Violation, validate_trace

__all__ = [
    "TraceDataset",
    "encode_cell",
    "load_trace",
    "save_trace",
    "to_2011_tables",
    "Violation",
    "validate_trace",
]
