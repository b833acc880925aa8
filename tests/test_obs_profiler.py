"""Sampling-profiler tests: the signal engine, output formats, the overhead budget.

The overhead test enforces the profiler's core promise — ``--profile``
costs less than 5% of simulator-like throughput — using the same
interleaved-minima discipline the bench gate uses: base and profiled
runs alternate, the minimum of each side is compared (the minimum is
the noise-robust estimator on shared CI machines), and the comparison
retries a couple of times before failing so one preempted round cannot
flake the suite.
"""

import re
import time

import pytest

from repro import obs
from repro.obs import profiler as profiler_mod
from repro.obs.profiler import (
    PROFILE_SCHEMA,
    SamplingProfiler,
    _signal_engine_available,
)
from repro.util.errors import ReproError

needs_signal = pytest.mark.skipif(
    not _signal_engine_available(),
    reason="SIGPROF/setitimer unavailable in this environment")


def _busy_work(iterations=60_000):
    """A simulator-shaped hot loop: dict traffic plus arithmetic."""
    counters = {}
    total = 0
    for i in range(iterations):
        key = i & 7
        counters[key] = counters.get(key, 0) + 1
        total += (i * 31) % 97
    return total, counters


def _helper_leaf(n):
    acc = 0
    for i in range(n):
        acc += i * i
    return acc


@needs_signal
class TestConstruction:
    def test_rejects_bad_interval_and_engine(self, monkeypatch):
        with pytest.raises(ValueError, match="positive"):
            SamplingProfiler(interval=0.0)
        monkeypatch.setattr(profiler_mod, "_signal_engine_available",
                            lambda: False)
        with pytest.raises(ReproError, match="SIGPROF"):
            SamplingProfiler()

    def test_double_start_raises(self):
        prof = SamplingProfiler()
        prof.start()
        try:
            with pytest.raises(ValueError, match="already running"):
                prof.start()
        finally:
            prof.stop()

    def test_stop_is_idempotent(self):
        prof = SamplingProfiler()
        prof.stop()  # never started: a no-op
        assert prof.sample_count == 0


@needs_signal
class TestSignalEngine:
    def test_collects_samples_from_busy_loop(self):
        with SamplingProfiler(interval=0.001) as prof:
            _busy_work(300_000)
        assert prof.sample_count > 0
        hot = prof.hot_table(10)
        assert hot
        assert any("_busy_work" in row["func"] for row in hot)

    def test_restores_previous_handler(self):
        import signal as signal_mod
        before = signal_mod.getsignal(signal_mod.SIGPROF)
        with SamplingProfiler(interval=0.001):
            _busy_work(50_000)
        assert signal_mod.getsignal(signal_mod.SIGPROF) == before


@needs_signal
class TestOutputs:
    @pytest.fixture(scope="class")
    def profiled(self):
        with SamplingProfiler(interval=0.001) as prof:
            for _ in range(400):
                _helper_leaf(2000)
        return prof

    def test_hot_table_shape_and_ordering(self, profiled):
        rows = profiled.hot_table(10)
        assert all(set(row) == {"func", "self", "cum", "self_pct", "cum_pct"}
                   for row in rows)
        selfs = [row["self"] for row in rows]
        assert selfs == sorted(selfs, reverse=True)
        for row in rows:
            assert row["cum"] >= row["self"]
            assert row["cum"] <= profiled.sample_count

    def test_collapsed_lines_are_flamegraph_format(self, profiled):
        lines = profiled.collapsed()
        assert lines == sorted(lines)
        for line in lines:
            # Exactly one space: the separator before the sample count
            # (frame labels fold internal spaces to underscores).
            assert re.match(r"^\S+(;\S+)* \d+$", line)
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert all(part for part in stack.split(";"))

    def test_write_collapsed(self, profiled, tmp_path):
        path = tmp_path / "profile.collapsed"
        n = profiled.write_collapsed(path)
        assert n == len(profiled.collapsed())
        assert len(path.read_text().splitlines()) == n

    def test_to_dict_payload(self, profiled):
        payload = profiled.to_dict(top=5)
        assert payload["schema"] == PROFILE_SCHEMA
        assert "engine" not in payload
        assert payload["samples"] == profiled.sample_count
        assert len(payload["hot"]) <= 5

    def test_report_embeds_and_renders_profile(self, profiled):
        with obs.scoped_registry():
            obs.inc("sim.events_processed")
            report = obs.run_report(command="simulate",
                                    profile=profiled.to_dict())
        text = obs.render_report(report)
        assert (f"profile ({profiled.sample_count} samples, "
                "interval 0.001s):") in text
        assert "self%" in text

    def test_report_without_profile_has_no_section(self):
        with obs.scoped_registry():
            report = obs.run_report(command="simulate")
        assert "profile" not in report
        assert "profile (" not in obs.render_report(report)


@needs_signal
class TestOverheadBudget:
    BUDGET = 1.05
    ROUNDS = 5
    ATTEMPTS = 3

    def _measure(self):
        """Interleaved minima: (base_min, profiled_min) over ROUNDS."""
        base, profiled = [], []
        for _ in range(self.ROUNDS):
            t0 = time.perf_counter()
            _busy_work()
            base.append(time.perf_counter() - t0)
            prof = SamplingProfiler()
            prof.start()
            t0 = time.perf_counter()
            _busy_work()
            profiled.append(time.perf_counter() - t0)
            prof.stop()
        return min(base), min(profiled)

    def test_signal_engine_overhead_under_five_percent(self):
        last = None
        for _ in range(self.ATTEMPTS):
            base_min, prof_min = self._measure()
            last = (base_min, prof_min)
            if prof_min <= base_min * self.BUDGET:
                return
        base_min, prof_min = last
        raise AssertionError(
            f"profiler overhead {prof_min / base_min - 1.0:.1%} exceeds "
            f"{self.BUDGET - 1.0:.0%} budget "
            f"(base {base_min * 1e3:.1f}ms, profiled {prof_min * 1e3:.1f}ms)")
