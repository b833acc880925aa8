"""End-to-end tests of the campaign runner: caching, resume, fault
isolation, serial/parallel determinism, and the CLI subcommands."""

import json

import pytest

from repro import obs
from repro.campaign import (
    CampaignSpec,
    EvalPoint,
    build_report,
    campaign_status,
    load_point_result,
    parse_spec,
    point_key,
    render_report,
    run_campaign,
)
from repro.campaign.runner import result_path
from repro.campaign.spec import DEFAULT_PARAMS
from repro.cli import main


def tiny_spec(n_values=2, seeds=(0, 1)) -> CampaignSpec:
    """A seconds-fast campaign: n_values overcommit settings x seeds."""
    values = [1.2, 1.9, 1.5, 1.7][:n_values]
    return parse_spec({
        "campaign": "tiny",
        "base": {"machines": 8, "hours": 2.0, "scale": 0.012,
                 "sample_period": 300.0, "cells": ["d"]},
        "grid": {"overcommit_cpu": values},
        "seeds": list(seeds),
    })


def broken_point(point_id=99, seed=0) -> EvalPoint:
    """A point that passes the dataclass but fails at scenario build
    time (unknown cell), exercising the worker error path."""
    params = dict(DEFAULT_PARAMS)
    params.update({"machines": 8, "hours": 2.0, "cells": ["nonexistent"]})
    return EvalPoint(point_id=point_id, params=params, grid_values={},
                     seed=seed, key=point_key(params, seed))


class TestCachedRuns:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        spec = tiny_spec()
        cold = run_campaign(spec, tmp_path)
        assert (cold.total, cold.hits, cold.ran, cold.errors) == (4, 0, 4, 0)
        warm = run_campaign(spec, tmp_path)
        assert (warm.total, warm.hits, warm.ran, warm.errors) == (4, 4, 0, 0)
        # Hit payloads are byte-for-byte the cached results.
        assert [r["key"] for r in warm.results] == \
            [p.key for p in spec.points]

    def test_force_reruns_everything(self, tmp_path):
        spec = tiny_spec(n_values=1, seeds=(0,))
        run_campaign(spec, tmp_path)
        forced = run_campaign(spec, tmp_path, force=True)
        assert forced.hits == 0 and forced.ran == 1

    def test_spec_change_invalidates_only_changed_points(self, tmp_path):
        run_campaign(tiny_spec(n_values=2), tmp_path)
        grown = tiny_spec(n_values=3)
        second = run_campaign(grown, tmp_path)
        assert second.hits == 4 and second.ran == 2

    def test_cache_is_spec_formatting_independent(self, tmp_path):
        spec = tiny_spec(n_values=1, seeds=(0,))
        run_campaign(spec, tmp_path)
        # An equivalent spec with explicit defaults and float-typed ints.
        equivalent = parse_spec({
            "campaign": "tiny",
            "base": {"machines": 8.0, "hours": 2, "scale": 0.012,
                     "sample_period": 300, "cells": ["d"], "era": "2019"},
            "grid": {"overcommit_cpu": [1.2]},
            "seeds": [0],
        })
        warm = run_campaign(equivalent, tmp_path)
        assert warm.hits == 1 and warm.ran == 0


class TestResume:
    def test_truncated_result_discarded_and_rerun(self, tmp_path):
        spec = tiny_spec(n_values=1, seeds=(0,))
        run_campaign(spec, tmp_path)
        path = result_path(tmp_path, spec.points[0].key)
        intact = path.read_bytes()
        # Simulate a crash mid-write: chop the JSON line in half.
        path.write_bytes(intact[: len(intact) // 2])
        assert load_point_result(tmp_path, spec.points[0].key) is None
        resumed = run_campaign(spec, tmp_path)
        assert resumed.hits == 0 and resumed.ran == 1
        # The re-run result is identical up to the volatile wall clock.
        strip = lambda raw: {k: v for k, v in json.loads(raw).items()
                             if k != "wall"}
        assert strip(path.read_text()) == strip(intact)

    def test_foreign_or_mismatched_payload_discarded(self, tmp_path):
        spec = tiny_spec(n_values=1, seeds=(0,))
        point = spec.points[0]
        path = result_path(tmp_path, point.key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": "other/1", "key": point.key})
                        + "\n")
        assert load_point_result(tmp_path, point.key) is None
        assert not path.exists()  # discarded so the next writer starts clean

    def test_missing_result_is_a_miss(self, tmp_path):
        spec = tiny_spec(n_values=1, seeds=(0,))
        assert load_point_result(tmp_path, spec.points[0].key) is None


class TestFaultIsolation:
    def _spec_with_broken_point(self, n_good=2):
        good = tiny_spec(n_values=n_good, seeds=(0,))
        points = list(good.points) + [broken_point()]
        return CampaignSpec(name=good.name, description="", base=good.base,
                            grid=good.grid, seeds=good.seeds,
                            points=tuple(points))

    def test_error_point_recorded_campaign_completes(self, tmp_path, capsys):
        spec = self._spec_with_broken_point()
        summary = run_campaign(spec, tmp_path)
        assert summary.ran == 3 and summary.errors == 1
        assert not summary.ok
        payload = load_point_result(tmp_path, broken_point().key)
        assert payload["status"] == "error"
        assert "nonexistent" in payload["error"]
        assert "failed" in capsys.readouterr().err
        # The good points all completed and are cached.
        states = [r["state"] for r in campaign_status(spec, tmp_path)]
        assert states == ["hit", "hit", "error"]

    def test_error_points_retry_on_next_run(self, tmp_path):
        spec = self._spec_with_broken_point()
        run_campaign(spec, tmp_path)
        again = run_campaign(spec, tmp_path)
        assert again.hits == 2 and again.ran == 1 and again.errors == 1

    def test_pooled_error_isolation(self, tmp_path):
        spec = self._spec_with_broken_point()
        summary = run_campaign(spec, tmp_path, workers=2)
        assert summary.errors == 1 and summary.ran == 3


class TestDeterminism:
    def test_parallel_matches_serial(self, tmp_path):
        spec = tiny_spec()
        serial = run_campaign(spec, tmp_path / "ser", workers=1)
        pooled = run_campaign(spec, tmp_path / "par", workers=3)
        strip = lambda r: {k: v for k, v in r.items() if k != "wall"}
        assert [strip(r) for r in serial.results] == \
            [strip(r) for r in pooled.results]
        assert render_report(build_report(spec, serial.results)) == \
            render_report(build_report(spec, pooled.results))

    def test_obs_counters_merged_exactly_once(self, tmp_path):
        spec = tiny_spec()
        with obs.scoped_registry() as serial_reg:
            run_campaign(spec, tmp_path / "ser", workers=1)
        with obs.scoped_registry() as pooled_reg:
            run_campaign(spec, tmp_path / "par", workers=2)
        serial = serial_reg.snapshot().counters
        pooled = pooled_reg.snapshot().counters
        sim_keys = [k for k, v in serial.items()
                    if k.startswith("sim.") and v]
        assert sim_keys
        for key in sim_keys:
            assert pooled.get(key) == serial[key], key
        assert pooled.get("campaign.parallel_batches") == 1

class TestCli:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "campaign": "cli-tiny",
            "base": {"machines": 8, "hours": 2.0, "scale": 0.012,
                     "sample_period": 300.0, "cells": ["d"]},
            "grid": {"overcommit_cpu": [1.2, 1.9]},
            "seeds": [0],
        }))
        return path

    def test_run_status_report_roundtrip(self, spec_file, tmp_path, capsys):
        out = tmp_path / "campaign_out"
        summary_json = tmp_path / "summary.json"
        rc = main(["campaign", "run", str(spec_file), "--out", str(out),
                   "--workers", "2", "--summary-out", str(summary_json)])
        assert rc == 0
        assert "2 run" in capsys.readouterr().out
        cold = json.loads(summary_json.read_text())
        assert cold["points"] == 2 and cold["hits"] == 0

        rc = main(["campaign", "run", str(spec_file), "--out", str(out),
                   "--summary-out", str(summary_json)])
        assert rc == 0
        warm = json.loads(summary_json.read_text())
        assert warm["hits"] == warm["points"] == 2 and warm["errors"] == 0
        capsys.readouterr()

        rc = main(["campaign", "status", str(spec_file), "--out", str(out),
                   "--json"])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["hits"] == 2 and status["missing"] == 0

        rc = main(["campaign", "report", str(spec_file), "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Pareto front" in text and "overcommit_cpu" in text

        rc = main(["campaign", "report", str(spec_file), "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.campaign.report/1"
        assert len(report["rows"]) == 2

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["campaign", "run", str(bad)]) == 2
        assert "campaign run:" in capsys.readouterr().err

    def test_status_text_lists_points(self, spec_file, tmp_path, capsys):
        rc = main(["campaign", "status", str(spec_file), "--out",
                   str(tmp_path / "none")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 point(s)" in out and out.count("missing") >= 2
