"""Perf-gate tests: the parent-vs-change compare, its CLI exits, and the
contract it shares with ``perfbench`` through ``BENCHMARK.json``.

Result lines are synthetic but shaped like the last line of a real
``perfbench/run.py --trace 0`` run, with the metric names read from the
committed ``BENCHMARK.json``, so a renamed metric on either side fails
here rather than silently un-gating it.
"""

import json

import pytest

from repro.cli import main
from repro.obs.regress import (
    CONTRACT,
    FAILED,
    BenchDataError,
    Metric,
    compare_dirs,
    judge,
    load_contract,
    load_runs,
    spread,
)

CONTRACT_DATA = load_contract()
NAMES = [m.name for m in CONTRACT_DATA.metrics]

#: A plausible parent run: per-metric values (units as in perfbench).
BASE = {"setup_s": 0.5, "wall_s": 1.2, "cpu_s": 1.0, "peak_rss_mb": 250.0}

#: Per-run jitter factors, spread well inside every bound (< 2%).
JITTER = (1.0, 1.004, 0.996, 1.008, 0.992)


def result_line(scale=None, attempted=40, failed=0):
    """The result JSON of one run; ``scale`` multiplies chosen metrics."""
    scale = scale or {}
    metrics = {n: {"value": BASE[n] * scale.get(n, 1.0),
                   "unit": "MB" if n == "peak_rss_mb" else "s"}
               for n in NAMES}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def write_side(directory, scales=None, lines=None):
    """One side's ``<workload>.jsonl`` files: one line per jitter factor,
    ``scales[workload]`` applied on top, or raw ``lines[workload]``."""
    directory.mkdir()
    for workload in CONTRACT_DATA.workloads:
        if lines and workload in lines:
            body = lines[workload]
        else:
            scale = (scales or {}).get(workload, {})
            body = [result_line({n: j * scale.get(n, 1.0) for n in NAMES})
                    for j in JITTER]
        (directory / f"{workload}.jsonl").write_text("\n".join(body) + "\n")
    return directory


def wide_lines(factor=1.0):
    """Runs whose cpu_s spread (about 0.5) is wider than its bound."""
    return [result_line({"cpu_s": j * factor})
            for j in (0.7, 0.8, 1.0, 1.2, 1.3)]


@pytest.fixture()
def sides(tmp_path):
    def make(change_scales=None, parent_lines=None, change_lines=None):
        parent = write_side(tmp_path / "parent", lines=parent_lines)
        change = write_side(tmp_path / "change", change_scales, change_lines)
        return parent, change
    return make


def gate(parent, change):
    """The exit code of ``bench compare`` on two result directories."""
    return main(["bench", "compare", str(parent), str(change)])


def verdict(result, workload, metric):
    return next(v for v in result.verdicts
                if v.workload == workload and v.metric == metric)


# -- the contract shared with perfbench ---------------------------------------

class TestContract:
    def test_workloads_are_the_benchmarks(self):
        from perfbench.workloads import WORKLOADS
        assert sorted(CONTRACT_DATA.workloads) == sorted(WORKLOADS)

    def test_every_end_to_end_metric_is_gateable(self):
        raw = json.loads(CONTRACT.read_text(encoding="utf-8"))
        assert raw["end_to_end"]
        for entry in raw["end_to_end"]:
            assert entry["name"]
            assert entry["better"] in ("lower", "higher")
            assert entry["bound"] > 0

    def test_rejects_a_contract_without_bounds(self, tmp_path):
        bad = tmp_path / "BENCHMARK.json"
        bad.write_text(json.dumps({
            "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "cpu_s", "better": "lower",
                            "bound": 0}]}))
        with pytest.raises(BenchDataError, match="a bound > 0"):
            load_contract(bad)
        with pytest.raises(OSError):
            load_contract(tmp_path / "missing.json")


# -- reading result lines -----------------------------------------------------

class TestLoading:
    def test_rejects_unusable_payloads(self, tmp_path):
        path = tmp_path / "w.jsonl"
        for body, match in (("not json", "not a perfbench result line"),
                            ("[1, 2]", "not a perfbench result line"),
                            ('{"attempted": 1, "failed": 0, "metrics": {}}',
                             "has no 'setup_s'"),
                            ("", "no runs")):
            path.write_text(body + "\n")
            with pytest.raises(BenchDataError, match=match):
                load_runs(path, NAMES)
        with pytest.raises(OSError):
            load_runs(tmp_path / "missing.jsonl", NAMES)

    def test_reads_one_run_per_line(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text(result_line() + "\n\n"
                        + result_line(attempted=7, failed=2) + "\n")
        runs = load_runs(path, NAMES)
        assert [(r.attempted, r.failed) for r in runs] == [(40, 0), (7, 2)]
        assert runs[0].values == BASE

    def test_spread_is_interquartile_over_median(self):
        assert spread([1.0]) == 0.0
        assert spread([2.0] * 5) == 0.0
        assert spread([0.7, 0.8, 1.0, 1.2, 1.3]) == pytest.approx(0.5)


# -- the comparison -----------------------------------------------------------

class TestCompare:
    def test_unchanged_rerun_passes(self, sides):
        result = compare_dirs(*sides(), CONTRACT_DATA)
        assert result.passed
        assert {v.status for v in result.verdicts} == {"ok"}
        assert len(result.verdicts) == \
            len(CONTRACT_DATA.workloads) * (len(NAMES) + 1)

    def test_slowdown_beyond_bound_is_flagged(self, sides):
        result = compare_dirs(*sides({"engine-2k": {"cpu_s": 1.3}}),
                              CONTRACT_DATA)
        assert not result.passed
        assert [(v.workload, v.metric) for v in result.regressions] == \
            [("engine-2k", "cpu_s")]
        assert verdict(result, "engine-2k", "cpu_s").delta == \
            pytest.approx(0.3)

    def test_slowdown_within_bound_passes(self, sides):
        # cpu_s is bounded at 25%; peak_rss_mb at 10%.
        result = compare_dirs(*sides({"engine-2k": {"cpu_s": 1.2},
                                      "trace-queries": {"peak_rss_mb": 1.05}}),
                              CONTRACT_DATA)
        assert result.passed

    def test_improvement_is_reported_not_failed(self, sides):
        result = compare_dirs(*sides({w: {"cpu_s": 0.7}
                                      for w in CONTRACT_DATA.workloads}),
                              CONTRACT_DATA)
        assert result.passed
        assert verdict(result, "paper-pipeline", "cpu_s").delta == \
            pytest.approx(-0.3)
        assert "-30.0%" in result.render()

    def test_higher_is_better_flips_the_direction(self):
        metric = Metric("hit_rate", "higher", 0.1)
        assert judge("w", metric, [1.0] * 3, [0.8] * 3).status == \
            "regression"
        assert judge("w", metric, [1.0] * 3, [1.3] * 3).status == "ok"

    def test_wide_parent_spread_is_unresolved(self, sides):
        parent, change = sides(parent_lines={"failure-sweep": wide_lines()},
                               change_lines={"failure-sweep": wide_lines(1.3)})
        result = compare_dirs(parent, change, CONTRACT_DATA)
        v = verdict(result, "failure-sweep", "cpu_s")
        assert v.spread > v.bound and v.delta > v.bound
        assert v.status == "unresolved"
        assert gate(parent, change) == 0
        assert "PASS (1 unresolved)" in result.render()

    def test_wide_spread_fails_when_every_change_run_is_worse(self, sides):
        parent, change = sides(parent_lines={"failure-sweep": wide_lines()},
                               change_lines={"failure-sweep": wide_lines(2.0)})
        result = compare_dirs(parent, change, CONTRACT_DATA)
        assert verdict(result, "failure-sweep", "cpu_s").status == \
            "regression"
        assert gate(parent, change) == 1

    def test_wide_spread_resolves_when_every_change_run_is_better(self):
        metric = Metric("cpu_s", "lower", 0.25)
        wide = [0.7, 0.8, 1.0, 1.2, 1.3]
        assert judge("w", metric, wide, [0.5, 0.6]).status == "ok"
        assert judge("w", metric, wide, [0.5, 0.9]).status == "unresolved"

    def test_compares_medians_of_runs(self, sides):
        # One outlier on each side moves a mean, not the median.
        parent = [result_line({"wall_s": f}) for f in (1.0, 1.0, 1.0, 9.0)]
        change = [result_line({"wall_s": f}) for f in (0.2, 1.01, 1.01, 1.01)]
        result = compare_dirs(*sides(parent_lines={"engine-2k": parent},
                                     change_lines={"engine-2k": change}),
                              CONTRACT_DATA)
        v = verdict(result, "engine-2k", "wall_s")
        assert (v.parent, v.change) == (pytest.approx(1.2),
                                        pytest.approx(1.212))

    def test_higher_failure_share_fails(self, sides):
        change = [result_line(failed=1)] + [result_line()] * 4
        parent, change = sides(change_lines={"trace-queries": change})
        assert gate(parent, change) == 1
        result = compare_dirs(parent, change, CONTRACT_DATA)
        v = verdict(result, "trace-queries", FAILED)
        assert (v.parent, v.change) == (0.0, pytest.approx(1 / 200))
        assert [(v.workload, v.metric) for v in result.regressions] == \
            [("trace-queries", FAILED)]

    def test_workload_without_runs_raises(self, sides):
        with pytest.raises(BenchDataError, match="no runs"):
            compare_dirs(*sides(change_lines={"engine-2k": []}),
                         CONTRACT_DATA)

    def test_render_names_every_benchmark_and_verdict(self, sides):
        text = compare_dirs(*sides({"engine-2k": {"cpu_s": 1.3}}),
                            CONTRACT_DATA).render()
        for name in CONTRACT_DATA.workloads + NAMES + [FAILED]:
            assert name in text
        assert "regression" in text
        assert text.strip().endswith("FAIL: 1 regression(s): engine-2k cpu_s")


# -- the CLI gate -------------------------------------------------------------

class TestBenchCli:
    def test_compare_pass_exits_zero(self, sides, capsys):
        assert gate(*sides()) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")

    def test_compare_regression_exits_one(self, sides, capsys):
        assert gate(*sides({"paper-pipeline": {"cpu_s": 1.3}})) == 1
        out = capsys.readouterr().out
        assert "FAIL: 1 regression(s): paper-pipeline cpu_s" in out

    def test_compare_bad_input_exits_two(self, sides, tmp_path, capsys):
        parent, change = sides()
        (change / "trace-queries.jsonl").unlink()
        assert gate(parent, change) == 2
        err = capsys.readouterr().err
        assert err.startswith("bench compare: ")
        assert "trace-queries.jsonl" in err and "Traceback" not in err
        (change / "trace-queries.jsonl").write_text(result_line()[:-9] + "\n")
        assert gate(parent, change) == 2
        err = capsys.readouterr().err
        assert err.startswith("bench compare: ") and err.count("\n") == 1
        assert "trace-queries.jsonl:1: not a perfbench result line" in err

    def test_compare_takes_no_options(self, sides, capsys):
        parent, change = sides()
        for extra in (["--threshold", "0.5"], ["--history", "h"]):
            with pytest.raises(SystemExit) as exc:
                main(["bench", "compare", str(parent), str(change), *extra])
            assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["bench", "append", str(parent)])
        capsys.readouterr()
