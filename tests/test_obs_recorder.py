"""Flight-recorder tests: crash-safe sink, frame determinism, acceptance.

The determinism contract under test (DESIGN.md §11): at a fixed seed the
frames' deterministic payload is identical run to run and identical
between serial and ``--workers 2`` execution; everything wall-clock
flavored lives under the single volatile ``"wall"`` key.  The
acceptance block pins the ISSUE criteria: a seed-11 recorded simulate
emits one frame per simulated hour, monotonically timestamped, and the
final frame's cumulative counters equal the obs report written at the
same point of the run.
"""

import io
import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.recorder import (
    FRAMES_SCHEMA,
    CellRecorder,
    FrameSchemaError,
    FrameSink,
    RunRecorder,
    StatusLine,
    frames_fingerprint,
    read_frames,
    recover_jsonl,
    render_frames,
    strip_volatile,
)
from repro.sim.driver import run_cells
from repro.util.timeutil import HOUR_SECONDS
from repro.workload.scenarios import scenarios_2019


def _frame(seq, **extra):
    base = {"schema": FRAMES_SCHEMA, "kind": "frame", "cell": "d",
            "seq": seq, "t_sim": seq * HOUR_SECONDS, "counters": {},
            "gauges": {}, "queues": {}, "wall": {"elapsed_s": 0.1 * seq}}
    base.update(extra)
    return base


# -- sink crash safety ------------------------------------------------------

class TestFrameSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        with FrameSink(path) as sink:
            for seq in range(5):
                sink.append(_frame(seq))
        frames = read_frames(path)
        assert [f["seq"] for f in frames] == list(range(5))

    def test_buffers_until_cadence_then_flushes(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        sink = FrameSink(path, buffer_frames=4)
        for seq in range(3):
            sink.append(_frame(seq))
        assert path.read_text() == ""  # still buffered
        sink.append(_frame(3))  # 4th append crosses the cadence
        assert len(path.read_text().splitlines()) == 4
        sink.close()

    def test_append_after_close_raises(self, tmp_path):
        sink = FrameSink(tmp_path / "frames.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.append(_frame(0))

    def test_recover_truncates_partial_tail(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        with FrameSink(path) as sink:
            for seq in range(3):
                sink.append(_frame(seq))
        good = path.read_bytes()
        path.write_bytes(good + b'{"schema": "repro.obs.fra')  # crash mid-write
        dropped = recover_jsonl(path)
        assert dropped == len(b'{"schema": "repro.obs.fra')
        assert path.read_bytes() == good
        assert [f["seq"] for f in read_frames(path)] == [0, 1, 2]

    def test_recover_drops_broken_but_terminated_line(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        with FrameSink(path) as sink:
            sink.append(_frame(0))
        good = path.read_bytes()
        path.write_bytes(good + b"{not json}\n")
        assert recover_jsonl(path) == len(b"{not json}\n")
        assert [f["seq"] for f in read_frames(path)] == [0]

    def test_recover_missing_and_empty_files(self, tmp_path):
        assert recover_jsonl(tmp_path / "absent.jsonl") == 0
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        assert recover_jsonl(empty) == 0

    def test_read_frames_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text(json.dumps(_frame(0)) + "\n"
                        + '{"schema": "repro.obs.frames/99"}\n')
        with pytest.raises(FrameSchemaError, match="repro.obs.frames/99"):
            read_frames(path)

    def test_read_frames_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(FrameSchemaError, match="not a JSON object"):
            read_frames(path)


# -- sampling semantics -----------------------------------------------------

class TestCellRecorder:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            CellRecorder("d", interval=0.0)

    def test_tick_emits_one_frame_per_crossed_boundary(self):
        with obs.scoped_registry():
            rec = CellRecorder("d", interval=HOUR_SECONDS)
            rec.attach({"pending": lambda: 7})
            obs.inc("sim.events_processed", 3)
            rec.tick(2.5 * HOUR_SECONDS)  # crosses t=1h and t=2h
        assert [f["t_sim"] for f in rec.frames] == [HOUR_SECONDS,
                                                    2 * HOUR_SECONDS]
        assert all(f["queues"] == {"pending": 7} for f in rec.frames)
        assert all(f["counters"]["sim.events_processed"] == 3
                   for f in rec.frames)

    def test_finish_emits_trailing_boundaries_inclusive(self):
        with obs.scoped_registry():
            rec = CellRecorder("d", interval=HOUR_SECONDS)
            rec.attach({})
            rec.tick(1.5 * HOUR_SECONDS)
            rec.finish(4 * HOUR_SECONDS)
        assert [f["t_sim"] / HOUR_SECONDS for f in rec.frames] == [1, 2, 3, 4]
        assert [f["seq"] for f in rec.frames] == [0, 1, 2, 3]

    def test_counters_probe_overlays_live_sim_counters(self):
        live = {"evictions": 0}
        with obs.scoped_registry():
            rec = CellRecorder("d", interval=HOUR_SECONDS)
            rec.attach({}, counters_probe=lambda: live)
            live["evictions"] = 5
            rec.tick(HOUR_SECONDS)
        assert rec.frames[0]["counters"]["sim.evictions"] == 5

    def test_strip_volatile_removes_only_wall(self):
        frame = _frame(0)
        stripped = strip_volatile(frame)
        assert "wall" not in stripped
        assert set(frame) - set(stripped) == {"wall"}

    def test_fingerprint_ignores_wall_but_not_payload(self):
        a, b = _frame(0), _frame(0)
        b["wall"] = {"elapsed_s": 99.0, "rss_kb": 1}
        assert frames_fingerprint([a]) == frames_fingerprint([b])
        b["counters"] = {"sim.events_processed": 1}
        assert frames_fingerprint([a]) != frames_fingerprint([b])


class TestStatusLine:
    def test_inert_off_tty(self):
        class Stream:
            def __init__(self):
                self.data = ""

            def write(self, text):
                self.data += text

            def flush(self):
                pass

            def isatty(self):
                return False

        stream = Stream()
        line = StatusLine(stream)
        line.update("hello")
        line.close()
        assert stream.data == ""

    def test_overwrites_in_place_on_tty(self):
        class Tty:
            def __init__(self):
                self.data = ""

            def write(self, text):
                self.data += text

            def flush(self):
                pass

            def isatty(self):
                return True

        stream = Tty()
        line = StatusLine(stream)
        line.update("aaaa")
        line.update("bb")
        line.close()
        assert "\raaaa" in stream.data
        assert "\rbb  " in stream.data  # shorter text pads the old width
        assert stream.data.endswith("\r")  # cleared, not newline-terminated


# -- determinism: fixed seed, serial vs pooled ------------------------------

def _scenarios():
    return scenarios_2019(seed=3, machines_per_cell=16, horizon_hours=6.0,
                          arrival_scale=0.01, sample_period=300.0,
                          cells=["c", "d"])


def _record_run(tmp_path, name, workers):
    path = tmp_path / f"{name}.jsonl"
    with obs.scoped_registry():
        record = RunRecorder(path, interval=HOUR_SECONDS,
                             status=StatusLine(io.StringIO()))
        run_cells(_scenarios(), workers=workers, record=record)
        record.finalize("test")
        record.close()
    return read_frames(path)


class TestRecordedRunDeterminism:
    @pytest.fixture(scope="class")
    def serial_frames(self, tmp_path_factory):
        return _record_run(tmp_path_factory.mktemp("rec"), "serial", None)

    @pytest.fixture(scope="class")
    def pooled_frames(self, tmp_path_factory):
        return _record_run(tmp_path_factory.mktemp("rec"), "pooled", 2)

    def test_rerun_is_frame_identical_modulo_wall(self, serial_frames,
                                                  tmp_path):
        again = _record_run(tmp_path, "again", None)
        assert frames_fingerprint(serial_frames) == frames_fingerprint(again)

    def test_wall_payload_present_and_volatile_only_there(self, serial_frames):
        cell_frames = [f for f in serial_frames if f["kind"] == "frame"]
        assert cell_frames
        for frame in cell_frames:
            assert set(frame["wall"]) == {"elapsed_s", "events_per_s",
                                          "rss_kb"}

    def test_serial_equals_workers_two_cell_frames(self, serial_frames,
                                                   pooled_frames):
        serial = [strip_volatile(f) for f in serial_frames
                  if f["kind"] == "frame"]
        pooled = [strip_volatile(f) for f in pooled_frames
                  if f["kind"] == "frame"]
        assert serial == pooled
        # Frames arrive in scenario order: all of cell c, then all of d.
        assert [f["cell"] for f in serial] == \
            sorted([f["cell"] for f in serial])

    def test_final_frames_agree_modulo_pool_counters(self, serial_frames,
                                                     pooled_frames):
        (serial_final,) = [f for f in serial_frames if f["kind"] == "final"]
        (pooled_final,) = [f for f in pooled_frames if f["kind"] == "final"]
        # Both modes count every completed cell.
        assert serial_final["seq"] == pooled_final["seq"] == 2
        # The pooled parent additionally counts its own fan-out.
        pool_only = {"sim.parallel_batches"}
        s_counters = {k: v for k, v in serial_final["counters"].items()
                      if k not in pool_only}
        p_counters = {k: v for k, v in pooled_final["counters"].items()
                      if k not in pool_only}
        assert s_counters == p_counters
        pool_gauges = {"sim.pool_workers"}
        s_gauges = {k: v for k, v in serial_final["gauges"].items()
                    if k not in pool_gauges}
        p_gauges = {k: v for k, v in pooled_final["gauges"].items()
                    if k not in pool_gauges}
        assert s_gauges == p_gauges


# -- acceptance: the recorded CLI run ---------------------------------------

class TestRecordedSimulateAcceptance:
    @pytest.fixture(scope="class")
    def recorded_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("recorded")
        frames_path = root / "frames.jsonl"
        report_path = root / "report.json"
        with obs.scoped_registry():
            rc = main([
                "simulate", "--cells", "d", "--machines", "24",
                "--hours", "24", "--scale", "0.012", "--seed", "11",
                "--out", str(root / "traces"),
                "--record", str(frames_path),
                "--obs-out", str(report_path),
            ])
        assert rc == 0
        return frames_path, report_path

    def test_emits_hourly_monotonic_frames(self, recorded_run):
        frames_path, _ = recorded_run
        frames = read_frames(frames_path)
        cell_frames = [f for f in frames if f["kind"] == "frame"]
        assert len(cell_frames) >= 24
        times = [f["t_sim"] for f in cell_frames]
        assert times == sorted(times)
        assert all(b - a == HOUR_SECONDS for a, b in zip(times, times[1:]))
        events = [f["counters"].get("sim.events_processed", 0)
                  for f in cell_frames]
        assert events == sorted(events)  # cumulative counters never drop

    def test_final_frame_counters_equal_obs_report(self, recorded_run):
        frames_path, report_path = recorded_run
        (final,) = [f for f in read_frames(frames_path)
                    if f["kind"] == "final"]
        report = json.loads(report_path.read_text())
        report_counters = {}
        for section in report["sections"].values():
            report_counters.update(section["counters"])
        assert final["counters"] == report_counters

    def test_stats_renders_frames_table(self, recorded_run, capsys):
        frames_path, _ = recorded_run
        assert main(["stats", str(frames_path)]) == 0
        out = capsys.readouterr().out
        assert "cell d" in out
        assert "hour" in out
        assert "final frame" in out

    def test_stats_json_format_round_trips(self, recorded_run, capsys):
        frames_path, _ = recorded_run
        assert main(["stats", str(frames_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["schema"] == FRAMES_SCHEMA

    def test_stats_unknown_schema_errors_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "future.json"
        bad.write_text('{"schema": "repro.obs/9", "sections": {}}\n')
        assert main(["stats", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "unsupported repro.obs schema" in err
        assert "repro.obs/9" in err

    def test_stats_unknown_frames_schema_errors_cleanly(self, tmp_path,
                                                        capsys):
        bad = tmp_path / "future.jsonl"
        bad.write_text('{"schema": "repro.obs.frames/7"}\n'
                       '{"schema": "repro.obs.frames/7"}\n')
        assert main(["stats", str(bad)]) == 2
        assert "repro.obs.frames/7" in capsys.readouterr().err

    def test_render_frames_differences_are_per_interval(self, recorded_run):
        frames_path, _ = recorded_run
        frames = read_frames(frames_path)
        text = render_frames(frames)
        cell_frames = [f for f in frames if f["kind"] == "frame"]
        total = cell_frames[-1]["counters"]["sim.events_processed"]
        # The per-hour +events column sums back to the cumulative total.
        rows = [line.split() for line in text.splitlines()
                if line.strip() and line.lstrip()[0].isdigit()]
        assert sum(int(r[2]) for r in rows) == total
