"""An in-memory columnar table.

The paper's analyses were run on Google BigQuery; ``repro.store``'s
scans are the query engine that replaces it, and this subpackage is the
substrate under them: typed columns over numpy arrays, a :class:`Table`
with select / filter / take / sort / distinct / concat, one group-by
kernel (:func:`segments`), and CSV serialization (the 2011 trace's
native format).

Quick tour — filters take boolean masks, group-bys sort once and reduce
each run of equal keys:

>>> import numpy as np
>>> from repro.table import Table, segments
>>> t = Table({"tier": ["prod", "beb", "beb"], "cpu": [0.5, 0.1, 0.2]})
>>> t.filter(t["tier"] == "beb").column("cpu").sum()
0.30000000000000004
>>> order, starts = segments(t["tier"].values)
>>> t["tier"].values[order[starts]].tolist()
['beb', 'prod']
>>> np.add.reduceat(t["cpu"].values[order], starts).tolist()
[0.30000000000000004, 0.5]
"""

from repro.table.column import Column
from repro.table.io_csv import read_csv, write_csv
from repro.table.segment import segments
from repro.table.table import Table, concat

__all__ = [
    "Column",
    "Table",
    "concat",
    "read_csv",
    "segments",
    "write_csv",
]
