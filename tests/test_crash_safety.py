"""Crash-safety fault injection for the plumbing itself: SIGKILL a
campaign worker mid-point-write and a recorder mid-frame, then prove the
recovery path resumes cleanly.

These are real ``kill -9`` tests — a subprocess writes a prefix of a
JSONL line, fsyncs, signals readiness, and is killed while the tail of
the record is still unwritten.  That is exactly the on-disk state an
OOM-killed worker leaves behind: a torn final line.  Recovery
(:func:`repro.obs.recorder.recover_jsonl`) must drop only the torn
line; the campaign cache probe must then rerun only the damaged point,
and a frames journal must stay schema-valid end to end.
"""

import io
import json
import signal
import subprocess
import sys
import textwrap

from repro.campaign import load_point_result, parse_spec, run_campaign
from repro.campaign.runner import result_path
from repro.obs.recorder import iter_frames, recover_jsonl

#: Subprocess body: write ``prefix`` to the target file, fsync so the
#: torn bytes are durably on disk, print a marker, then hang until
#: killed.  The parent SIGKILLs it mid-"write" — between the fsync'd
#: prefix and the never-written suffix.
_TORN_WRITER = textwrap.dedent("""
    import os, sys
    path, prefix = sys.argv[1], sys.argv[2]
    f = open(path, "a", encoding="utf-8")
    f.write(prefix)
    f.flush()
    os.fsync(f.fileno())
    print("TORN", flush=True)
    import time
    time.sleep(3600)
""")


def _kill_mid_write(path, prefix: str) -> None:
    """Append ``prefix`` to ``path`` from a subprocess, SIGKILL it."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _TORN_WRITER, str(path), prefix],
        stdout=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline().strip() == "TORN"
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == -signal.SIGKILL


def _spec():
    """A seconds-fast two-point campaign (one grid axis, one seed)."""
    return parse_spec({
        "campaign": "crashy",
        "base": {"machines": 8, "hours": 2.0, "scale": 0.012,
                 "sample_period": 300.0, "cells": ["d"]},
        "grid": {"overcommit_cpu": [1.2, 1.9]},
        "seeds": [0],
    })


class TestCampaignWorkerKilled:
    def test_resume_reruns_only_the_damaged_point(self, tmp_path):
        spec = _spec()
        cold = run_campaign(spec, tmp_path)
        assert (cold.ran, cold.errors) == (2, 0)
        intact = {p.key: result_path(tmp_path, p.key).read_text()
                  for p in spec.points}

        # Replay the crash: the first point's result file is replaced by
        # the torn prefix a SIGKILLed worker would leave behind.
        victim, survivor = spec.points
        path = result_path(tmp_path, victim.key)
        full_line = path.read_text()
        path.unlink()
        _kill_mid_write(path, full_line[:len(full_line) // 2])

        # The torn file is unreadable as a result: the probe discards it.
        assert load_point_result(tmp_path, victim.key) is None
        assert load_point_result(tmp_path, survivor.key) is not None

        resumed = run_campaign(spec, tmp_path)
        # Exactly the damaged point reran; the survivor was a cache hit.
        assert (resumed.total, resumed.hits, resumed.ran,
                resumed.errors) == (2, 1, 1, 0)
        # The rerun reproduced the identical result (volatile wall-clock
        # aside) and the survivor's bytes never changed.
        assert result_path(tmp_path, survivor.key).read_text() == \
            intact[survivor.key]
        rerun = json.loads(result_path(tmp_path, victim.key).read_text())
        original = json.loads(intact[victim.key])
        rerun.pop("wall"), original.pop("wall")
        assert rerun == original

    def test_kill_between_points_loses_at_most_one(self, tmp_path):
        # A worker killed *between* point writes leaves N intact files;
        # resume reruns only what is missing.
        spec = _spec()
        run_campaign(spec, tmp_path)
        lost, kept = spec.points
        result_path(tmp_path, lost.key).unlink()
        resumed = run_campaign(spec, tmp_path)
        assert (resumed.hits, resumed.ran, resumed.errors) == (1, 1, 0)

    def test_torn_journal_tail_is_reported(self, tmp_path, capsys):
        # A run killed mid-append leaves a partial frames.jsonl line; the
        # resumed run drops it and says how many bytes it dropped.
        spec = _spec()
        run_campaign(spec, tmp_path)
        torn = '{"kind": "fin'
        _kill_mid_write(tmp_path / "frames.jsonl", torn)
        capsys.readouterr()
        resumed = run_campaign(spec, tmp_path)
        assert resumed.hits == len(spec.points)
        err = capsys.readouterr().err
        assert f"dropped a torn {len(torn)}-byte tail" in err


class TestRecorderKilledMidFrame:
    def _frame(self, seq: int) -> dict:
        return {"schema": "repro.obs.frames/1", "kind": "cell",
                "seq": seq, "cell": "d", "t": float(seq) * 3600.0,
                "counters": {"sim.jobs_submitted": seq},
                "wall": {"elapsed_s": 0.1}}

    def test_recovery_drops_only_the_torn_frame(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        good = [self._frame(i) for i in range(3)]
        with open(path, "w", encoding="utf-8") as f:
            for frame in good:
                f.write(json.dumps(frame, sort_keys=True) + "\n")
        torn = json.dumps(self._frame(3), sort_keys=True)
        _kill_mid_write(path, torn[: len(torn) // 2])

        dropped = recover_jsonl(path)
        assert dropped > 0
        # Every surviving line is schema-valid and the torn tail is gone.
        text = path.read_text(encoding="utf-8")
        frames = list(iter_frames(io.StringIO(text), source=str(path)))
        assert [f["seq"] for f in frames] == [0, 1, 2]
        assert frames == good

    def test_recovered_journal_accepts_appends(self, tmp_path):
        # After recovery the journal keeps working: the next writer
        # appends frame 3 where the torn frame 3 used to be.
        path = tmp_path / "frames.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(self._frame(0), sort_keys=True) + "\n")
        torn = json.dumps(self._frame(1), sort_keys=True)
        _kill_mid_write(path, torn[:10])
        recover_jsonl(path)
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(self._frame(1), sort_keys=True) + "\n")
        frames = list(iter_frames(io.StringIO(path.read_text()),
                                  source=str(path)))
        assert [f["seq"] for f in frames] == [0, 1]
