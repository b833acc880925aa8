"""Tests for the benchmark's own code (run: ``python -m pytest perfbench``).

They need the library on the path: ``PYTHONPATH=src`` from the checkout
root, as for the repository's own tests.
"""

from __future__ import annotations

import pytest

from repro.util.timeutil import DAY_SECONDS

from perfbench.spans import Recorder, Span, by_key, covered, patched, self_times
from perfbench.speed import REFERENCE_SLICE_S, SpeedProbe
from perfbench.workloads import (SECTIONS, FailureSweep, PaperPipeline, Query,
                                 TraceQueries, query_mix, same)


def _span(id, parent, t0, t1, layer="x"):
    # Wall and CPU clocks given equal readings, so both self times match.
    return Span(id, parent, f"s{id}", layer, t0, t0, t1, t1)


# -- self-time arithmetic ------------------------------------------------------

def test_covered_merges_overlaps_and_ignores_empty_intervals():
    assert covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert covered([(2, 1), (4, 4)]) == 0.0


def test_self_time_of_nested_spans():
    spans = [_span(0, None, 0, 10), _span(1, 0, 2, 7), _span(2, 1, 3, 4)]
    own = self_times(spans)
    assert own[0] == pytest.approx((5.0, 5.0))
    assert own[1] == pytest.approx((4.0, 4.0))
    assert own[2] == pytest.approx((1.0, 1.0))
    assert sum(w for w, _ in own.values()) == pytest.approx(10.0)


def test_self_time_of_sibling_spans():
    spans = [_span(0, None, 0, 10), _span(1, 0, 1, 3), _span(2, 0, 3, 6)]
    own = self_times(spans)
    assert own[0] == pytest.approx((5.0, 5.0))
    assert own[1][0] == pytest.approx(2.0)
    assert own[2][0] == pytest.approx(3.0)


def test_layer_rollup_keeps_recorders_apart():
    # Two recorders reuse span ids 0 and 1; each resolves on its own.
    a, b = Recorder(), Recorder()
    a.spans = [_span(0, None, 0, 4, "bench"), _span(1, 0, 1, 3, "sim")]
    b.spans = [_span(0, None, 0, 2, "bench"), _span(1, 0, 0, 1, "store.read")]
    layers = by_key([a, b], lambda s: s.layer)
    assert layers["bench"][0] == pytest.approx(3.0)
    assert layers["sim"][0] == pytest.approx(2.0)
    assert layers["store.read"][0] == pytest.approx(1.0)


def test_patched_records_spans_and_restores_the_attribute():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    original = Owner.__dict__["work"]
    rec = Recorder()
    with patched(rec, [(Owner, "work", "owner.work", "sim",
                        lambda r, result, *args: r.count("calls"))]):
        with rec.span("unit", "bench"):
            assert Owner.work(1) == 2
    assert Owner.__dict__["work"] is original
    assert [(s.name, s.parent) for s in rec.spans] == [("unit", None),
                                                       ("owner.work", 0)]
    assert rec.counts["calls"] == 1


# -- speed probe ---------------------------------------------------------------

def test_probe_takes_slices_out_and_scales_by_their_slowdown():
    probe = SpeedProbe()
    probe.walls = [2 * REFERENCE_SLICE_S] * 4     # the machine ran 2x slow
    probe.cpus = [REFERENCE_SLICE_S] * 4          # its CPU clock did not
    wall, cpu = 1.0 + 8 * REFERENCE_SLICE_S, 1.0 + 4 * REFERENCE_SLICE_S
    assert probe.net(wall, cpu) == pytest.approx((1.0, 1.0))
    assert probe.slowdown() == pytest.approx(2.0)
    assert probe.scaled(wall, cpu) == pytest.approx((0.5, 1.0))


def test_probe_samples_a_busy_region_and_restores_the_timer():
    import signal
    import time

    with SpeedProbe(interval=0.01) as probe:
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    assert len(probe.walls) >= 5
    assert all(w > 0 for w in probe.walls)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


# -- output checks raise the error count ---------------------------------------

def test_wrong_query_answer_is_counted_as_failed(tmp_path):
    wl = TraceQueries(seed=3, scratch=tmp_path, machines=16, hours=4.0,
                      chunk_rows=512, queries=10)
    out = wl.unit(wl.setup())
    assert wl.check(out).failed == 0
    out["answers"][0] = [a + 1 for a in out["answers"][0]]
    assert wl.check(out).failed == 1


def test_every_query_kind_agrees_with_brute_force(tmp_path):
    wl = TraceQueries(seed=5, scratch=tmp_path, machines=16, hours=4.0,
                      chunk_rows=512, queries=10)
    from repro.store import open_store
    store = open_store(wl.setup())
    for kind in ("window_sum", "tier_mean", "events_count", "histogram",
                 "projection"):
        q = Query(kind, 0.0, 7200.0, "prod", fresh=False)
        assert same(q.expected(wl.trace), q.run(store))


def test_failed_campaign_point_is_counted_as_failed(tmp_path):
    wl = FailureSweep(seed=2, scratch=tmp_path, machines=8, hours=1.0)
    out = wl.unit(wl.setup())
    assert wl.check(out).failed == 0
    out["cold"].results[0] = dict(out["cold"].results[0], status="error")
    assert wl.check(out).failed == 1
    out["warm"].hits -= 1
    assert wl.check(out).failed == 2


def test_report_missing_a_section_is_counted_as_failed(tmp_path):
    wl = PaperPipeline(seed=1, scratch=tmp_path)
    report = "".join(f"\n{title} x\n" for _, title in SECTIONS)
    ok = {"violations": [[], []], "report": report, "events": {},
          "out_dir": tmp_path / "gone"}
    assert (wl.check(ok).attempted, wl.check(ok).failed) == (3, 0)
    check = wl.check(dict(ok, report=report.replace("\nFigure 12:", "\nFig 12:")))
    assert check.failed == 1
    assert check.evidence["missing_sections"] == ["fig12"]


# -- the seed changes the inputs -----------------------------------------------

def test_seed_changes_generated_inputs(tmp_path):
    from repro.sim.driver import run_cells

    def fingerprint(seed):
        scenarios = PaperPipeline(seed, tmp_path, machines=8, hours=2.0).setup()
        return [list(r.events.instance_events) for r in run_cells(scenarios)]

    assert fingerprint(1) == fingerprint(1)
    assert fingerprint(1) != fingerprint(2)
    assert query_mix(1, DAY_SECONDS, 20) == query_mix(1, DAY_SECONDS, 20)
    assert query_mix(1, DAY_SECONDS, 20) != query_mix(2, DAY_SECONDS, 20)
