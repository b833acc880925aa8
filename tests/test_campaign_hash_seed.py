"""The campaign path is byte-identical across interpreter hash seeds.

Goldens run in one process, so they cannot see output that follows
set or dict hash order; the CI hash-seed job covers traces, stores,
the report and queries, but not campaigns.  This test runs a two-point
``campaign run`` and its ``campaign report`` (text and JSON) in two
fresh interpreters, under ``PYTHONHASHSEED`` 1 and 2, and compares
every ``result.json``, the run summary and both reports byte for byte.
The only values masked are the wall-clock ``elapsed_s`` fields.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict

SRC = Path(__file__).resolve().parents[1] / "src"

SPEC = {
    "campaign": "hash-seed",
    "base": {"machines": 8, "hours": 2.0, "scale": 0.012,
             "sample_period": 300.0, "cells": ["d"]},
    "grid": {"overcommit_cpu": [1.2, 1.9]},
    "seeds": [0],
}

#: One interpreter: the run, then both report formats.
_SCRIPT = """
import sys
from repro.cli import main
steps = [
    ["campaign", "run", "spec.json", "--out", "out",
     "--summary-out", "summary.json"],
    ["campaign", "report", "spec.json", "--out", "out",
     "--report-out", "report.txt"],
    ["campaign", "report", "spec.json", "--out", "out", "--format", "json",
     "--report-out", "report.json"],
]
for argv in steps:
    if main(argv) != 0:
        sys.exit(f"{argv[:2]} failed")
"""

_ELAPSED = re.compile(rb'"elapsed_s":\s*[-0-9.eE+]+')


def _outputs(work: Path, hash_seed: int) -> Dict[str, bytes]:
    work.mkdir()
    (work / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", _SCRIPT], cwd=work, env=env,
                   check=True, capture_output=True)
    files = sorted(work.glob("out/*/result.json")) + [
        work / "summary.json", work / "report.txt", work / "report.json"]
    return {path.relative_to(work).as_posix():
            _ELAPSED.sub(b'"elapsed_s": 0', path.read_bytes())
            for path in files}


def test_campaign_outputs_identical_across_hash_seeds(tmp_path):
    first = _outputs(tmp_path / "seed1", 1)
    second = _outputs(tmp_path / "seed2", 2)
    assert len([name for name in first if name.endswith("result.json")]) == 2
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], name
