"""Tests for the borg-repro command-line interface."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import failures
from repro.cli import build_parser, main
from repro.trace import load_trace


@pytest.fixture(scope="module")
def trace_dirs(tmp_path_factory):
    """Simulate two tiny cells (one per era) once for all CLI tests."""
    root = tmp_path_factory.mktemp("traces")
    rc = main([
        "simulate", "--cells", "2011,d", "--out", str(root),
        "--machines", "16", "--hours", "6", "--scale", "0.01", "--seed", "2",
    ])
    assert rc == 0
    return root


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.machines == 100
        assert "2011" in args.cells

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestSimulate:
    def test_writes_trace_directories(self, trace_dirs):
        for cell in ("2011", "d"):
            assert (trace_dirs / cell / "metadata.json").exists()
            assert (trace_dirs / cell / "instance_usage.csv").exists()


class TestValidate:
    def test_clean_trace_returns_zero(self, trace_dirs, capsys):
        rc = main(["validate", str(trace_dirs / "d")])
        assert rc == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_broken_trace_returns_one(self, trace_dirs, tmp_path, capsys):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(trace_dirs / "d", broken)
        usage = (broken / "instance_usage.csv").read_text().splitlines()
        # Corrupt one usage row: memory usage far above its limit.
        header = usage[0].split(",")
        row = usage[1].split(",")
        row[header.index("avg_mem")] = "99.0"
        row[header.index("limit_mem")] = "0.0001"
        usage[1] = ",".join(row)
        (broken / "instance_usage.csv").write_text("\n".join(usage) + "\n")
        rc = main(["validate", str(broken)])
        assert rc == 1
        assert "violations" in capsys.readouterr().out


class TestSimulateFaults:
    def test_fault_flags_parse_and_run(self, tmp_path, capsys):
        rc = main([
            "simulate", "--cells", "d", "--out", str(tmp_path),
            "--machines", "8", "--hours", "2", "--scale", "0.01",
            "--seed", "3", "--faults", "heavy", "--fault-rate", "10",
            "--archetype-mix", "mixed",
        ])
        assert rc == 0
        assert (tmp_path / "d" / "metadata.json").exists()
        out = capsys.readouterr().out
        assert "simulated in" in out
        assert "cell d: faults: archetype shares: base=" in out

    def test_fault_summary_matches_saved_trace(self, tmp_path, capsys):
        rc = main([
            "simulate", "--cells", "a,d", "--out", str(tmp_path),
            "--machines", "8", "--hours", "2", "--scale", "0.01",
            "--seed", "3", "--faults", "heavy", "--fault-rate", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "archetype shares" not in out
        for cell in ("a", "d"):
            trace = load_trace(tmp_path / cell)
            printed = {}
            for tier, fields in re.findall(
                    rf"^cell {cell}: faults: tier (\w+): (.*)$", out, re.M):
                printed[tier] = dict(f.split("=") for f in fields.split())
            expected = failures.failure_rates_by_tier([trace])
            assert printed and set(printed) == set(expected)
            for tier, row in expected.items():
                assert printed[tier]["task_hours"] == f"{row['task_hours']:.6g}"
                for kind in failures.TERMINAL_TYPES:
                    rate = row[f"{kind.lower()}_per_task_hour"]
                    assert printed[tier][f"{kind.lower()}/h"] == f"{rate:.6g}"
            avail = failures.machine_availability([trace], trace.horizon)
            assert (f"cell {cell}: faults: availability="
                    f"{avail['availability']:.6g} ") in out
            assert re.search(rf"^cell {cell}: faults: resubmissions=\d+ ",
                             out, re.M)

    def test_no_summary_without_faults(self, tmp_path, capsys):
        rc = main([
            "simulate", "--cells", "d", "--out", str(tmp_path),
            "--machines", "8", "--hours", "2", "--scale", "0.01",
            "--seed", "3", "--archetype-mix", "mixed",
        ])
        assert rc == 0
        assert ": faults:" not in capsys.readouterr().out

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--faults", "meteor"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--archetype-mix", "x"])

    def test_fault_defaults_off(self):
        args = build_parser().parse_args(["simulate"])
        assert args.faults is None
        assert args.archetype_mix is None
        assert args.fault_rate == 1.0


class TestSimulateStoreFormat:
    def test_store_format_and_timing_log(self, tmp_path, capsys):
        rc = main([
            "simulate", "--cells", "d", "--out", str(tmp_path),
            "--machines", "8", "--hours", "2", "--scale", "0.01",
            "--seed", "3", "--format", "store",
        ])
        assert rc == 0
        assert (tmp_path / "d" / "manifest.json").exists()
        out = capsys.readouterr().out
        assert "simulated in" in out and "saved (store)" in out
        assert "rows written: total=" in out
        assert "instance_usage=" in out


@pytest.fixture(scope="module")
def store_dir(trace_dirs, tmp_path_factory):
    """Cell d's CSV trace converted to a store via the CLI."""
    dst = tmp_path_factory.mktemp("store") / "d.store"
    rc = main(["convert", str(trace_dirs / "d"), str(dst),
               "--chunk-rows", "64"])
    assert rc == 0
    assert (dst / "manifest.json").exists()
    return dst


class TestConvert:
    def test_convert_reports_rows_and_chunks(self, trace_dirs, tmp_path,
                                             capsys):
        dst = tmp_path / "s"
        rc = main(["convert", str(trace_dirs / "d"), str(dst),
                   "--chunk-rows", "128"])
        assert rc == 0
        assert "chunks" in capsys.readouterr().out

    def test_convert_back_to_csv(self, store_dir, tmp_path, capsys):
        dst = tmp_path / "csv"
        rc = main(["convert", str(store_dir), str(dst), "--to", "csv"])
        assert rc == 0
        assert (dst / "metadata.json").exists()
        assert (dst / "instance_usage.csv").exists()

    def test_converted_store_validates(self, store_dir, capsys):
        assert main(["validate", str(store_dir)]) == 0
        assert "all invariants hold" in capsys.readouterr().out


class TestQuery:
    def test_count_matches_source_trace(self, trace_dirs, store_dir, capsys):
        from repro.trace import load_trace

        expected = len(load_trace(trace_dirs / "d").instance_usage)
        rc = main(["query", str(store_dir), "instance_usage",
                   "--agg", "count"])
        assert rc == 0
        assert f"count = {expected}" in capsys.readouterr().out

    def test_time_window_matches_in_memory_filter(self, trace_dirs, store_dir,
                                                  capsys):
        from repro.trace import load_trace

        t = load_trace(trace_dirs / "d").instance_usage.column(
            "start_time").values
        expected = int(((t >= 0) & (t <= 7200)).sum())
        rc = main(["query", str(store_dir), "instance_usage",
                   "--where", "start_time between 0 7200",
                   "--agg", "count", "--agg", "mean:avg_cpu"])
        assert rc == 0
        captured = capsys.readouterr()
        assert f"count = {expected}" in captured.out
        assert "mean(avg_cpu) = " in captured.out
        # Pushdown summary goes to stderr; the window must skip chunks.
        skipped = re.search(r"\((\d+) skipped\)", captured.err)
        assert skipped is not None and int(skipped.group(1)) > 0

    def test_parallel_workers_agree_with_serial(self, store_dir, capsys):
        argv = ["query", str(store_dir), "instance_usage",
                "--where", "tier in prod,mid", "--agg", "sum:avg_cpu"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_row_output_with_select_and_limit(self, store_dir, capsys):
        rc = main(["query", str(store_dir), "instance_usage",
                   "--select", "start_time,avg_cpu", "--limit", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "start_time" in out and "avg_cpu" in out

    def test_bad_where_clause_exits(self, store_dir):
        with pytest.raises(SystemExit):
            main(["query", str(store_dir), "instance_usage",
                  "--where", "nonsense"])

    def test_bad_agg_spec_exits(self, store_dir):
        with pytest.raises(SystemExit):
            main(["query", str(store_dir), "instance_usage",
                  "--agg", "histogram:avg_cpu"])


class TestOlderStoreFormat:
    """A store whose manifest the reader rejects (here: an older format
    version) ends ``query`` and ``validate`` with one stderr line that
    keeps the ``borg-repro convert`` hint, and exit code 2."""

    @pytest.fixture
    def old_store(self, store_dir, tmp_path):
        old = tmp_path / "old.store"
        shutil.copytree(store_dir, old)
        manifest = old / "manifest.json"
        data = json.loads(manifest.read_text())
        data["version"] = 2
        manifest.write_text(json.dumps(data))
        return old

    @staticmethod
    def _cli(*argv):
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).resolve().parent.parent)}
        return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    @pytest.mark.parametrize("argv", [
        ("query", "{store}", "instance_usage", "--agg", "count"),
        ("validate", "{store}"),
    ])
    def test_one_line_and_exit_2(self, old_store, argv):
        proc = self._cli(*(a.format(store=old_store) for a in argv))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{argv[0]}: ")
        assert "borg-repro convert" in lines[0]


class TestReport:
    def test_report_renders(self, trace_dirs, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(["report", str(trace_dirs), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "Table 1" in text and "Figure 12" in text

    def test_report_missing_dir(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) == 1

    def test_report_needs_both_eras(self, trace_dirs, tmp_path):
        import shutil
        only_2019 = tmp_path / "only2019"
        only_2019.mkdir()
        shutil.copytree(trace_dirs / "d", only_2019 / "d")
        assert main(["report", str(only_2019)]) == 1
