"""RPR001 schema-consistency fixtures: each resolution path + precision.

The rule's contract is precision-first: everything it flags is a real
mismatch against repro/trace/schema.py, and anything it cannot prove
(parameters, derived tables) stays unchecked.
"""

import textwrap

import pytest

from repro.trace.schema import TABLE_COLUMNS

PATH = "src/repro/analysis/fixture.py"


@pytest.fixture
def lint(lint_fixture):
    def run(source):
        return lint_fixture(textwrap.dedent(source), PATH, ["RPR001"])
    return run


def test_flags_bad_column_via_dataset_property(lint):
    source = """\
        def cpu(trace):
            return trace.instance_usage.column("cpu_avg")
    """
    violations = lint(source)
    assert len(violations) == 1
    assert "'cpu_avg'" in violations[0].message
    assert "'instance_usage'" in violations[0].message
    # The fix is discoverable from the message itself.
    assert "avg_cpu" in violations[0].message


def test_allows_real_columns_via_dataset_property(lint):
    source = """\
        def cpu(trace):
            usage = trace.instance_usage
            return usage.column("avg_cpu"), usage.select("tier", "max_mem")
    """
    assert lint(source) == []


def test_flags_bad_column_via_tables_subscript(lint):
    source = """\
        def capacities(ds):
            return ds.tables["machine_events"].select("time", "capacity_cpu")
    """
    violations = lint(source)
    assert len(violations) == 1
    assert "'capacity_cpu'" in violations[0].message


def test_tracks_assignments_within_function(lint):
    source = """\
        def report(trace):
            events = trace.collection_events
            good = events.column("priority")
            bad = events.column("prio")
            return good, bad
    """
    violations = lint(source)
    assert len(violations) == 1
    assert "'prio'" in violations[0].message
    assert violations[0].line == 4


def test_reassignment_to_unknown_stops_checking(lint):
    source = """\
        def report(trace, derive):
            events = trace.collection_events
            events = derive(events)
            return events.column("no_such_column")
    """
    assert lint(source) == []


def test_unresolvable_receivers_are_not_checked(lint):
    source = """\
        def helper(table):
            return table.column("anything_goes")
    """
    assert lint(source) == []


def test_flags_scan_select_and_chained_where(lint):
    source = """\
        def query(store):
            bad = store.scan("machine_events").select("mem_cap")
            chained = store.scan("instance_usage").where(ok).select("bogus")
            return bad, chained
    """
    violations = lint(source)
    assert len(violations) == 2
    assert "'mem_cap'" in violations[0].message
    assert "'machine_events'" in violations[0].message
    assert "'bogus'" in violations[1].message
    assert "'instance_usage'" in violations[1].message


def test_flags_predicate_columns_under_where(lint):
    source = """\
        from repro.store import Between, Compare

        def query(store):
            scan = store.scan("collection_events")
            return scan.where(Compare("prio", ">=", 360)).select("user")
    """
    violations = lint(source)
    assert len(violations) == 1
    assert "'prio'" in violations[0].message
    assert "predicate Compare" in violations[0].message


def test_allows_valid_scan_chains_and_to_table(lint):
    source = """\
        from repro.store import Between, Compare

        def query(store):
            scan = store.scan("instance_usage") \\
                .where(Between("start_time", 0.0, 3600.0)) \\
                .select("avg_cpu", "tier")
            table = store.scan("machine_events").to_table()
            return scan, table.column("cpu_capacity")
    """
    assert lint(source) == []


def test_flags_bad_column_after_to_table(lint):
    source = """\
        def query(store):
            table = store.scan("machine_events").to_table()
            return table.column("platform")
    """
    violations = lint(source)
    assert len(violations) == 1
    assert "'machine_events'" in violations[0].message


def test_table_preserving_methods_keep_tracking(lint):
    source = """\
        def report(trace):
            tiers = trace.instance_events.distinct("tier")
            return trace.instance_events.filter(ok).column("machne_id")
    """
    violations = lint(source)
    assert len(violations) == 1
    assert "'machne_id'" in violations[0].message


def test_suppression(lint):
    source = """\
        def cpu(trace):
            return trace.instance_usage.column("cpu_avg")  # repro: noqa[RPR001]
    """
    assert lint(source) == []


def test_schema_fixture_columns_exist():
    # The fixtures above lean on these schema facts; pin them so a future
    # schema change updates the tests rather than silently hollowing them.
    assert "avg_cpu" in TABLE_COLUMNS["instance_usage"]
    assert "cpu_capacity" in TABLE_COLUMNS["machine_events"]
    assert "platform" not in TABLE_COLUMNS["machine_events"]
    assert "priority" in TABLE_COLUMNS["collection_events"]
