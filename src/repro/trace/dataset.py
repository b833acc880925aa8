"""The in-memory trace dataset: five tables plus cell metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.table import Table
from repro.trace.schema import TABLE_COLUMNS, empty_table
from repro.util.errors import SchemaError
from repro.util.timeutil import HOUR_SECONDS

#: Schema of each 2019-style table (column name order is canonical).
#: Kept as a name for compatibility; the declaration lives in
#: :mod:`repro.trace.schema`.
SCHEMA_2019 = TABLE_COLUMNS


@dataclass
class TraceDataset:
    """One cell's trace: the five 2019-style tables plus metadata.

    ``era`` is "2011" or "2019"; 2011-era datasets use the same table
    shapes (priorities are then 0-11 bands) and can be converted to the
    legacy CSV layout with :func:`repro.trace.legacy.to_2011_tables`.
    """

    cell: str
    era: str
    horizon: float
    sample_period: float
    utc_offset_hours: float
    capacity_cpu: float
    capacity_mem: float
    tables: Dict[str, Table] = field(default_factory=dict)

    def __post_init__(self):
        for name, columns in SCHEMA_2019.items():
            if name not in self.tables:
                self.tables[name] = empty_table(name)
            got = self.tables[name].column_names
            if got != columns:
                raise SchemaError(
                    f"table {name!r} has columns {got}, expected {columns}"
                )

    @property
    def collection_events(self) -> Table:
        return self.tables["collection_events"]

    @property
    def instance_events(self) -> Table:
        return self.tables["instance_events"]

    @property
    def instance_usage(self) -> Table:
        return self.tables["instance_usage"]

    @property
    def machine_events(self) -> Table:
        return self.tables["machine_events"]

    @property
    def machine_attributes(self) -> Table:
        return self.tables["machine_attributes"]

    @property
    def horizon_hours(self) -> float:
        return self.horizon / HOUR_SECONDS

    def __repr__(self) -> str:
        sizes = {name: len(t) for name, t in self.tables.items()}
        return f"TraceDataset(cell={self.cell!r}, era={self.era}, rows={sizes})"
