"""The canonical trace-table schemas (single source of truth).

Every consumer of the five 2019-style tables — the encoder that builds
them, the validator that checks them, the CSV and chunked-store writers,
and the :mod:`repro.lint` static checker — reads column names, kinds and
ordering from this module.  Nothing else in the repo may spell out a
table's column list; that duplication is exactly what rule RPR001
(schema-consistency) exists to prevent.

Two derived views are computed from the same declaration:

* :data:`TABLE_COLUMNS` — name -> ordered tuple of column names;
* :data:`TIME_COLUMNS` — name -> the column that orders the table in
  time (used for store clustering and the event-time invariants).

A trace's metadata fields are declared here too (:data:`META_FIELDS`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.table.column import empty_column
from repro.table.table import Table
from repro.util.errors import SchemaError

#: Per-table column declarations: ``name -> ((column, kind), ...)``.
#: Order is canonical — writers emit and readers verify this order.
#: Kinds are the four :class:`repro.table.column.Column` storage kinds.
TABLE_SCHEMAS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "collection_events": (
        ("time", "float"),
        ("collection_id", "int"),
        ("type", "str"),
        ("collection_type", "str"),
        ("priority", "int"),
        ("tier", "str"),
        ("user", "str"),
        ("scheduler", "str"),
        ("parent_collection_id", "int"),
        ("alloc_collection_id", "int"),
        ("vertical_scaling", "str"),
        ("constraint", "str"),
        ("num_instances", "int"),
    ),
    "instance_events": (
        ("time", "float"),
        ("collection_id", "int"),
        ("instance_index", "int"),
        ("type", "str"),
        ("machine_id", "int"),
        ("priority", "int"),
        ("tier", "str"),
        ("resource_request_cpu", "float"),
        ("resource_request_mem", "float"),
        ("is_new", "bool"),
    ),
    "instance_usage": (
        ("start_time", "float"),
        ("duration", "float"),
        ("collection_id", "int"),
        ("instance_index", "int"),
        ("machine_id", "int"),
        ("tier", "str"),
        ("vertical_scaling", "str"),
        ("in_alloc", "bool"),
        ("avg_cpu", "float"),
        ("max_cpu", "float"),
        ("avg_mem", "float"),
        ("max_mem", "float"),
        ("limit_cpu", "float"),
        ("limit_mem", "float"),
    ),
    "machine_events": (
        ("time", "float"),
        ("machine_id", "int"),
        ("type", "str"),
        ("cpu_capacity", "float"),
        ("mem_capacity", "float"),
    ),
    "machine_attributes": (
        ("machine_id", "int"),
        ("cpu_capacity", "float"),
        ("mem_capacity", "float"),
        ("platform", "str"),
        ("utc_offset_hours", "float"),
    ),
}

#: ``table -> ordered column names`` (the shape SCHEMA_2019 always had).
TABLE_COLUMNS: Dict[str, List[str]] = {
    name: [column for column, _ in columns]
    for name, columns in TABLE_SCHEMAS.items()
}

#: ``table -> {column: kind}``.
COLUMN_KINDS: Dict[str, Dict[str, str]] = {
    name: {column: kind for column, kind in columns}
    for name, columns in TABLE_SCHEMAS.items()
}

#: The column that orders each table in time.  Tables without one
#: (machine_attributes is a dimension table) are absent.
TIME_COLUMNS: Dict[str, str] = {
    name: ("start_time" if "start_time" in TABLE_COLUMNS[name] else "time")
    for name in TABLE_SCHEMAS
    if "time" in TABLE_COLUMNS[name] or "start_time" in TABLE_COLUMNS[name]
}

#: Tables carrying a plain event ``time`` column, in schema order.
EVENT_TABLES: Tuple[str, ...] = tuple(
    name for name, col in TIME_COLUMNS.items() if col == "time"
)


#: A trace's metadata fields, in ``TraceDataset`` (and written) order.
META_FIELDS: Tuple[str, ...] = ("cell", "era", "horizon", "sample_period",
                                "utc_offset_hours", "capacity_cpu",
                                "capacity_mem")


def trace_meta(trace) -> Dict[str, object]:
    """The :data:`META_FIELDS` of ``trace`` (a ``TraceDataset``)."""
    return {name: getattr(trace, name) for name in META_FIELDS}


def check_meta(meta: object, source: object) -> Dict[str, Any]:
    """``meta``, if it is a mapping of exactly the :data:`META_FIELDS` with
    era 2011 or 2019; else a :class:`SchemaError` naming ``source``."""
    if not isinstance(meta, dict) or set(meta) != set(META_FIELDS):
        got = sorted(meta) if isinstance(meta, dict) else type(meta).__name__
        raise SchemaError(f"{source}: trace metadata needs exactly the fields "
                          f"{list(META_FIELDS)}, got {got}")
    if meta["era"] not in ("2011", "2019"):
        raise SchemaError(f"{source}: era must be '2011' or '2019', "
                          f"got {meta['era']!r}")
    return meta


def columns_of(table: str) -> List[str]:
    """The canonical, ordered column names of ``table``."""
    try:
        return list(TABLE_COLUMNS[table])
    except KeyError:
        raise KeyError(
            f"unknown trace table {table!r}; known: {sorted(TABLE_SCHEMAS)}"
        ) from None


def empty_table(table: str) -> Table:
    """A zero-row table for ``table`` with correctly-kinded columns.

    Bare ``Table({c: [] for c in columns})`` would coerce every empty
    column to the float kind; this keeps int/str/bool columns typed so
    empty tables round-trip through the store with their declared kinds.
    """
    return Table({column: empty_column(kind)
                  for column, kind in TABLE_SCHEMAS[table]})


def ordered_columns(table: str, values: Mapping[str, object]) -> Dict[str, object]:
    """Reorder ``values`` (column -> payload) into canonical schema order.

    Raises if ``values`` does not cover exactly the declared columns, so
    an encoder that drifts from the schema fails loudly at build time
    rather than producing a malformed trace.
    """
    declared = columns_of(table)
    got = set(values)
    missing = [c for c in declared if c not in got]
    extra = sorted(got - set(declared))
    if missing or extra:
        raise ValueError(
            f"table {table!r}: columns do not match schema"
            + (f"; missing {missing}" if missing else "")
            + (f"; unexpected {extra}" if extra else "")
        )
    return {column: values[column] for column in declared}
