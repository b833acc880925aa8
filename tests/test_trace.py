"""Tests for trace encoding, validation, legacy conversion, and I/O."""

import numpy as np
import pytest

from repro.table import Table
from repro.trace import (
    load_trace,
    save_trace,
    to_2011_tables,
    validate_trace,
)
from repro.trace.dataset import SCHEMA_2019, TraceDataset
from repro.trace.legacy import band_of_raw_priority
from repro.trace.validate import INVARIANTS, Violation
from repro.util.errors import SchemaError, ValidationError
from tests.trace_fixtures import rows_table


class TestEncode:
    def test_all_tables_present(self, trace_2019):
        assert set(trace_2019.tables) == set(SCHEMA_2019)
        for name, columns in SCHEMA_2019.items():
            assert trace_2019.tables[name].column_names == columns

    def test_metadata(self, trace_2019):
        assert trace_2019.era == "2019"
        assert trace_2019.capacity_cpu > 0
        assert trace_2019.sample_period == 300.0

    def test_collection_events_types(self, trace_2019):
        types = set(trace_2019.collection_events.column("type").values.tolist())
        assert "SUBMIT" in types
        assert types & {"FINISH", "KILL", "FAIL"}

    def test_2019_has_new_features(self, trace_2019):
        ce = trace_2019.collection_events
        assert "alloc_set" in set(ce.column("collection_type").values.tolist())
        assert (ce.column("parent_collection_id").values >= 0).any()
        assert "QUEUE" in set(ce.column("type").values.tolist())
        assert set(ce.column("vertical_scaling").values.tolist()) >= {"none", "fully"}

    def test_2011_lacks_new_features(self, trace_2011):
        ce = trace_2011.collection_events
        assert "alloc_set" not in set(ce.column("collection_type").values.tolist())
        assert "QUEUE" not in set(ce.column("type").values.tolist())
        assert set(ce.column("vertical_scaling").values.tolist()) == {"none"}

    def test_usage_rows_have_positive_durations(self, trace_2019):
        durations = trace_2019.instance_usage.column("duration").values
        assert (durations > 0).all()
        assert (durations <= trace_2019.sample_period + 1e-9).all()

    def test_machine_attributes_complete(self, trace_2019, result_2019):
        assert len(trace_2019.machine_attributes) == len(result_2019.machines)

    def test_repr(self, trace_2019):
        assert "TraceDataset" in repr(trace_2019)

    def test_bad_schema_rejected(self):
        tables = {"collection_events": Table({"nope": [1]})}
        with pytest.raises(ValueError, match="expected"):
            TraceDataset(cell="x", era="2019", horizon=1.0, sample_period=300.0,
                         utc_offset_hours=0.0, capacity_cpu=1.0,
                         capacity_mem=1.0, tables=tables)

    def test_empty_dataset_constructible(self):
        ds = TraceDataset(cell="x", era="2019", horizon=1.0, sample_period=300.0,
                          utc_offset_hours=0.0, capacity_cpu=1.0, capacity_mem=1.0)
        assert len(ds.collection_events) == 0


class TestValidate:
    def test_simulated_trace_is_clean(self, trace_2019, trace_2011):
        assert validate_trace(trace_2019) == []
        assert validate_trace(trace_2011) == []

    def test_unknown_invariant_rejected(self, trace_2019):
        with pytest.raises(ValueError):
            validate_trace(trace_2019, only=["not-a-check"])

    def test_subset_runs(self, trace_2019):
        assert validate_trace(trace_2019, only=["event-time-in-window"]) == []

    def test_detects_terminal_without_submit(self, trace_2019):
        ce = trace_2019.collection_events
        broken = dict(trace_2019.tables)
        extra = rows_table([{
            "time": 10.0, "collection_id": 999_999_999, "type": "KILL",
            "collection_type": "job", "priority": 200, "tier": "prod",
            "user": "u", "scheduler": "borg", "parent_collection_id": -1,
            "alloc_collection_id": -1, "vertical_scaling": "none",
            "constraint": "", "num_instances": 1,
        }], columns=ce.column_names)
        from repro.table import concat
        broken["collection_events"] = concat([ce, extra])
        ds = TraceDataset(cell="x", era=trace_2019.era, horizon=trace_2019.horizon,
                          sample_period=trace_2019.sample_period,
                          utc_offset_hours=0.0,
                          capacity_cpu=trace_2019.capacity_cpu,
                          capacity_mem=trace_2019.capacity_mem, tables=broken)
        violations = validate_trace(ds, only=["submit-before-terminal"])
        assert violations and "without a SUBMIT" in violations[0].detail

    def test_detects_out_of_window_event(self, trace_2019):
        broken = dict(trace_2019.tables)
        me = trace_2019.machine_events
        extra = Table({"time": [-5.0], "machine_id": [0], "type": ["ADD"],
                       "cpu_capacity": [1.0], "mem_capacity": [1.0]})
        from repro.table import concat
        broken["machine_events"] = concat([
            me if len(me) else Table({c: [] for c in me.column_names}), extra,
        ]) if len(me) else extra
        ds = TraceDataset(cell="x", era=trace_2019.era, horizon=trace_2019.horizon,
                          sample_period=trace_2019.sample_period,
                          utc_offset_hours=0.0,
                          capacity_cpu=trace_2019.capacity_cpu,
                          capacity_mem=trace_2019.capacity_mem, tables=broken)
        violations = validate_trace(ds, only=["event-time-in-window"])
        assert violations

    def test_raise_on_violation(self, trace_2019):
        broken = dict(trace_2019.tables)
        iu = trace_2019.instance_usage
        row = {c: [iu.column(c).values[0]] for c in iu.column_names}
        row["avg_mem"] = [99.0]
        row["limit_mem"] = [0.1]
        from repro.table import concat
        broken["instance_usage"] = concat([iu, Table(row)])
        ds = TraceDataset(cell="x", era=trace_2019.era, horizon=trace_2019.horizon,
                          sample_period=trace_2019.sample_period,
                          utc_offset_hours=0.0,
                          capacity_cpu=trace_2019.capacity_cpu,
                          capacity_mem=trace_2019.capacity_mem, tables=broken)
        with pytest.raises(ValidationError):
            validate_trace(ds, raise_on_violation=True,
                           only=["usage-within-limits"])

    def test_detects_machine_over_capacity(self, trace_2019):
        # Tripled CPU pushes every busy machine-window past 1.2x capacity;
        # the reported windows match a brute-force per-(machine, window)
        # sum, in (machine, window) order, capped at 20.
        broken = dict(trace_2019.tables)
        iu = trace_2019.instance_usage
        data = {c: iu.column(c).values for c in iu.column_names}
        data["avg_cpu"] = data["avg_cpu"] * 3.0
        broken["instance_usage"] = Table(data)
        ds = TraceDataset(cell="x", era=trace_2019.era, horizon=trace_2019.horizon,
                          sample_period=trace_2019.sample_period,
                          utc_offset_hours=0.0,
                          capacity_cpu=trace_2019.capacity_cpu,
                          capacity_mem=trace_2019.capacity_mem, tables=broken)
        attrs = ds.machine_attributes
        cap = dict(zip(attrs.column("machine_id").values.tolist(),
                       attrs.column("cpu_capacity").values.tolist()))
        sums = {}
        for m, start, cpu in zip(data["machine_id"].tolist(),
                                 data["start_time"].tolist(),
                                 data["avg_cpu"].tolist()):
            key = (m, int(start / ds.sample_period))
            sums[key] = sums.get(key, 0.0) + cpu
        expected = [f"machine {m}: window CPU usage {s:.3f} exceeds capacity "
                    f"{cap[m]:.3f} (x1.2 allowance)"
                    for (m, _), s in sorted(sums.items())
                    if s > cap[m] * 1.2 + 1e-9][:20]
        violations = validate_trace(ds, only=["machine-usage-within-capacity"])
        assert len(expected) == 20
        assert [v.detail for v in violations] == expected

    def test_violation_str(self):
        v = Violation("check", "something off")
        assert "check" in str(v) and "something off" in str(v)

    def test_invariant_registry_nonempty(self):
        assert len(INVARIANTS) >= 7


class TestLegacy:
    def test_band_mapping_spot_checks(self):
        assert band_of_raw_priority(0) == 0
        assert band_of_raw_priority(101) == 3  # paper's example
        assert band_of_raw_priority(450) == 11
        assert band_of_raw_priority(250) == 9  # between 200 and 360

    def test_2011_tables_shape(self, trace_2011):
        tables = to_2011_tables(trace_2011)
        assert set(tables) == {"job_events", "task_events", "task_usage",
                               "machine_events"}
        assert len(tables["job_events"]) == len(trace_2011.collection_events)

    def test_2011_priorities_pass_through(self, trace_2011):
        tables = to_2011_tables(trace_2011)
        priorities = tables["job_events"].column("priority").values
        assert priorities.max() <= 11

    def test_2019_priorities_banded(self, trace_2019):
        tables = to_2011_tables(trace_2019)
        priorities = tables["job_events"].column("priority").values
        assert priorities.max() <= 11
        assert priorities.min() >= 0

    def test_task_usage_end_times(self, trace_2019):
        tu = to_2011_tables(trace_2019)["task_usage"]
        assert (tu.column("end_time").values > tu.column("start_time").values).all()


class TestIo:
    def test_roundtrip(self, trace_2011, tmp_path):
        save_trace(trace_2011, tmp_path / "t")
        back = load_trace(tmp_path / "t")
        assert back.cell == trace_2011.cell
        assert back.era == trace_2011.era
        assert len(back.instance_usage) == len(trace_2011.instance_usage)
        np.testing.assert_allclose(
            back.instance_usage.column("avg_cpu").values,
            trace_2011.instance_usage.column("avg_cpu").values,
        )

    def test_missing_metadata(self, tmp_path):
        with pytest.raises(SchemaError):
            load_trace(tmp_path)

    def test_missing_table(self, trace_2011, tmp_path):
        save_trace(trace_2011, tmp_path / "t")
        (tmp_path / "t" / "instance_usage.csv").unlink()
        with pytest.raises(SchemaError):
            load_trace(tmp_path / "t")

    def test_all_missing_tables_reported_at_once(self, trace_2011, tmp_path):
        save_trace(trace_2011, tmp_path / "t")
        (tmp_path / "t" / "instance_usage.csv").unlink()
        (tmp_path / "t" / "machine_events.csv").unlink()
        with pytest.raises(SchemaError) as err:
            load_trace(tmp_path / "t")
        message = str(err.value)
        assert "instance_usage.csv" in message
        assert "machine_events.csv" in message
        assert "2 table(s)" in message

    def test_crash_mid_save_preserves_old_trace(self, trace_2011, tmp_path,
                                                monkeypatch):
        save_trace(trace_2011, tmp_path / "t")
        import repro.trace.io as io_mod

        def exploding(table, path):
            raise OSError("disk full")

        monkeypatch.setattr(io_mod, "write_csv", exploding)
        with pytest.raises(OSError):
            save_trace(trace_2011, tmp_path / "t")
        # The old trace is untouched and still loads; no temp litter.
        back = load_trace(tmp_path / "t")
        assert len(back.instance_usage) == len(trace_2011.instance_usage)
        assert [p.name for p in tmp_path.iterdir()] == ["t"]


def _edge_dataset() -> TraceDataset:
    """Unicode users, inf/nan usage floats, and three empty tables."""
    ce = rows_table([
        {"time": 1.0, "collection_id": 1, "type": "SUBMIT",
         "collection_type": "job", "priority": 200, "tier": "prod",
         "user": "алиса", "scheduler": "borg", "parent_collection_id": -1,
         "alloc_collection_id": -1, "vertical_scaling": "none",
         "constraint": "", "num_instances": 1},
        {"time": 2.0, "collection_id": 2, "type": "SUBMIT",
         "collection_type": "job", "priority": 103, "tier": "beb",
         "user": "ユーザー名-2", "scheduler": "borg",
         "parent_collection_id": -1, "alloc_collection_id": -1,
         "vertical_scaling": "none", "constraint": "", "num_instances": 2},
    ], columns=SCHEMA_2019["collection_events"])
    iu = rows_table([
        {"start_time": 0.0, "duration": 300.0, "collection_id": 1,
         "instance_index": 0, "machine_id": 0, "tier": "prod",
         "vertical_scaling": "none", "in_alloc": False,
         "avg_cpu": float("nan"), "max_cpu": float("inf"),
         "avg_mem": float("-inf"), "max_mem": 0.25,
         "limit_cpu": 1.0, "limit_mem": 1.0},
    ], columns=SCHEMA_2019["instance_usage"])
    return TraceDataset(cell="edge", era="2019", horizon=3600.0,
                        sample_period=300.0, utc_offset_hours=0.0,
                        capacity_cpu=1.0, capacity_mem=1.0,
                        tables={"collection_events": ce, "instance_usage": iu})


class TestIoEdgeCases:
    """Round trips that stress both on-disk formats the same way."""

    @pytest.mark.parametrize("format", ["csv", "store"])
    def test_empty_tables_round_trip(self, tmp_path, format):
        save_trace(_edge_dataset(), tmp_path / "t", format=format)
        back = load_trace(tmp_path / "t")
        for name in ("instance_events", "machine_events", "machine_attributes"):
            assert len(back.tables[name]) == 0
            assert back.tables[name].column_names == SCHEMA_2019[name]

    @pytest.mark.parametrize("format", ["csv", "store"])
    def test_unicode_users_round_trip(self, tmp_path, format):
        save_trace(_edge_dataset(), tmp_path / "t", format=format)
        back = load_trace(tmp_path / "t")
        users = back.collection_events.column("user").values.tolist()
        assert users == ["алиса", "ユーザー名-2"]

    @pytest.mark.parametrize("format", ["csv", "store"])
    def test_inf_nan_floats_round_trip(self, tmp_path, format):
        save_trace(_edge_dataset(), tmp_path / "t", format=format)
        iu = load_trace(tmp_path / "t").instance_usage
        assert np.isnan(iu.column("avg_cpu").values[0])
        assert iu.column("max_cpu").values[0] == float("inf")
        assert iu.column("avg_mem").values[0] == float("-inf")
        assert iu.column("max_mem").values[0] == 0.25

    @pytest.mark.parametrize("format", ["csv", "store"])
    def test_metadata_round_trips(self, tmp_path, format):
        ds = _edge_dataset()
        save_trace(ds, tmp_path / "t", format=format)
        back = load_trace(tmp_path / "t")
        assert back.cell == "edge"
        assert back.era == "2019"
        assert back.horizon == ds.horizon
        assert back.capacity_mem == ds.capacity_mem
