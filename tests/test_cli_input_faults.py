"""The input-fault matrix: every subcommand against unusable input.

Each row runs ``borg-repro`` in-process through :func:`repro.cli.main`
on one fault — a missing path, an empty directory, the other trace
format, an older store version, a truncated file, a bit-flipped file,
an unwritable output, or a bad flag value — and expects exit 2 with
exactly one stderr line, ``<command>: <message>``.  An exception
escaping ``main`` fails the row.

Bit flips hit bytes a format guards: a store chunk's column payload
(under its CRC-32) or a JSON file's first byte.  A store manifest
carries a CRC-32 too, so an edited chunk bound is a row.  CSV tables
carry no checksum, so a flipped CSV value is not a row here; a CSV
table cut inside its last row is (the writer ends every row with a
newline).  The CSV trace's guarded file is ``metadata.json``.
Unwritable outputs are paths under a regular file, which fail for every
user, root included.

Not every fault applies to every command: ``simulate`` reads no input
path, ``validate``, ``report`` and ``query`` detect the format, and
``lint`` reports an unparsable file as a finding (exit 1), not as
unusable input.
"""

import json
import shutil
import struct

import pytest

from repro.cli import main
from repro.obs.regress import load_contract
from repro.store import manifest as store_manifest
from repro.util.errors import SimulationError

TINY = ["--machines", "4", "--hours", "1", "--scale", "0.01"]


def _cut(path):
    """Truncate ``path`` to half its length."""
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _flip(path, offset=0):
    """Flip the high bit of the byte at ``offset``."""
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x80
    path.write_bytes(bytes(data))


def _payload_offset(chunk, column_index):
    """Where column ``column_index``'s payload starts in a format-3
    chunk: after the 20-byte head and the 13-byte directory records,
    past the payloads before it."""
    data = chunk.read_bytes()
    (n,) = struct.unpack_from("<I", data, 16)
    lengths = [struct.unpack_from("<BQI", data, 20 + 13 * i)[1]
               for i in range(n)]
    return 20 + 13 * n + sum(lengths[:column_index])


def _copy(src, dst, edit=None):
    shutil.copytree(src, dst)
    if edit is not None:
        edit(dst)
    return dst


def _cut_last_value(path):
    """Cut ``path`` three bytes into the last value of its last row."""
    data = path.read_bytes()
    path.write_bytes(data[:data.rindex(b",") + 4])


def _edit_json(path, change):
    path.write_text(json.dumps(change(json.loads(path.read_text()))))


def _sealed(manifest):
    """A store manifest with the checksum of its edited body, as a writer
    would have written it: the row reaches the check behind it."""
    body = {key: value for key, value in manifest.items()
            if key != "checksum"}
    return {**body, "checksum": store_manifest._checksum(body)}


def _edit_bound(manifest):
    """Move the first chunk's start_time bound, checksum untouched."""
    manifest["tables"]["instance_usage"]["stats"]["start_time"]["max"][0] += 1
    return manifest


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Good inputs, each broken copy, and an unwritable place."""
    root = tmp_path_factory.mktemp("faults")
    traces = root / "traces"
    assert main(["simulate", "--cells", "2011,d", "--out", str(traces),
                 "--machines", "8", "--hours", "2", "--scale", "0.01",
                 "--seed", "3"]) == 0
    store = root / "store"
    assert main(["convert", str(traces / "d"), str(store),
                 "--chunk-rows", "64"]) == 0
    obs_report = root / "obs.json"
    assert main(["query", str(store), "instance_usage", "--agg", "count",
                 "--obs-out", str(obs_report)]) == 0

    (root / "empty").mkdir()
    blocked = root / "blocked"
    blocked.write_text("a regular file, so nothing can be written under it\n")

    # Stores: an older version, an unknown era, a cut manifest, a cut
    # chunk, and a chunk whose avg_cpu payload (what `--agg sum:avg_cpu`
    # decodes) is flipped.
    manifest = json.loads((store / "manifest.json").read_text())
    usage = manifest["tables"]["instance_usage"]
    avg_cpu = [c["name"] for c in usage["columns"]].index("avg_cpu")
    chunk = "instance_usage/chunk-00000.rsc"
    _copy(store, root / "old_store", lambda d: _edit_json(
        d / "manifest.json", lambda m: {**m, "version": 2}))
    _copy(store, root / "era_store", lambda d: _edit_json(
        d / "manifest.json",
        lambda m: _sealed({**m, "meta": {**m["meta"], "era": "2o19"}})))
    _copy(store, root / "bound_store", lambda d: _edit_json(
        d / "manifest.json", _edit_bound))
    _copy(store, root / "cut_manifest", lambda d: _cut(d / "manifest.json"))
    _copy(store, root / "cut_chunk", lambda d: _cut(d / chunk))
    _copy(store, root / "flip_chunk", lambda d: _flip(
        d / chunk, _payload_offset(d / chunk, avg_cpu)))

    # CSV traces with broken metadata.json.
    meta = traces / "d" / "metadata.json"
    _copy(traces / "d", root / "cut_meta", lambda d: _cut(d / meta.name))
    _copy(traces / "d", root / "flip_meta", lambda d: _flip(d / meta.name))
    _copy(traces / "d", root / "extra_meta", lambda d: _edit_json(
        d / meta.name, lambda m: {**m, "extra": 1}))
    _copy(traces / "d", root / "list_meta", lambda d: _edit_json(
        d / meta.name, lambda m: list(m)))
    _copy(traces / "d", root / "era_meta", lambda d: _edit_json(
        d / meta.name, lambda m: {**m, "era": "2o19"}))
    _copy(traces / "d", root / "cut_csv",
          lambda d: _cut_last_value(d / "instance_usage.csv"))

    # Report roots: the 2011 cell beside one broken 2019 cell.
    for name, cell in (("report_old", root / "old_store"),
                       ("report_cut", root / "cut_meta"),
                       ("report_flip", root / "flip_chunk")):
        (root / name).mkdir()
        shutil.copytree(traces / "2011", root / name / "2011")
        shutil.copytree(cell, root / name / "d")
    (root / "report_2019").mkdir()
    shutil.copytree(traces / "d", root / "report_2019" / "d")
    # A report root mixing two `simulate` runs: cell g of a second run
    # has the ids of cell d (each run numbers its 2019 cells from 1e7).
    assert main(["simulate", "--cells", "g", "--out", str(root / "other"),
                 "--machines", "8", "--hours", "2", "--scale", "0.01",
                 "--seed", "3"]) == 0
    shutil.copytree(traces, root / "report_two_runs")
    shutil.copytree(root / "other" / "g", root / "report_two_runs" / "g")

    # obs files for `stats`.
    for name, edit in (("cut_obs.json", _cut), ("flip_obs.json", _flip)):
        shutil.copy(obs_report, root / name)
        edit(root / name)
    (root / "zero.jsonl").write_bytes(b"")

    # Campaign specs: one tiny point, and its cache for `campaign report`.
    spec = root / "spec.json"
    spec.write_text(json.dumps({
        "campaign": "faults", "seeds": [0],
        "base": {"cells": ["d"], "machines": 4, "hours": 1.0},
        "grid": {"overcommit_cpu": [1.2]}}))
    assert main(["campaign", "run", str(spec), "--out",
                 str(root / "campaign")]) == 0
    for name, edit in (("cut_spec.json", _cut), ("flip_spec.json", _flip)):
        shutil.copy(spec, root / name)
        edit(root / name)

    # `bench compare` sides: one result line per workload.
    names = [m.name for m in load_contract().metrics]
    line = json.dumps({"attempted": 1, "failed": 0,
                       "metrics": {n: {"value": 1.0} for n in names}})
    for side, edit in (("bench", None), ("cut_bench", _cut),
                       ("flip_bench", _flip)):
        (root / side).mkdir()
        for workload in load_contract().workloads:
            (root / side / f"{workload}.jsonl").write_text(line + "\n")
        if edit is not None:
            edit(root / side / f"{load_contract().workloads[0]}.jsonl")

    (root / "flip_source.py").write_bytes(b"\xfbx = 1\n")
    return {"root": str(root), "traces": str(traces), "store": str(store),
            "spec": str(spec), "missing": str(root / "missing"),
            "empty": str(root / "empty"), "blocked": str(blocked)}


#: (row id, argv); ``{name}`` is filled from the ``paths`` fixture.
ROWS = [
    # simulate: unwritable outputs and the scale flags' range rules.
    ("simulate-unwritable-out",
     ["simulate", "--cells", "d", *TINY, "--out", "{blocked}/out"]),
    ("simulate-unwritable-obs-out",
     ["simulate", "--cells", "d", *TINY, "--out", "{root}/sim-obs",
      "--obs-out", "{blocked}/obs.json"]),
    ("simulate-unwritable-record",
     ["simulate", "--cells", "d", *TINY, "--out", "{root}/sim-record",
      "--record", "{blocked}/frames.jsonl"]),
    ("simulate-unknown-cell",
     ["simulate", "--cells", "zz", *TINY, "--out", "{root}/sim-x"]),
    ("simulate-no-cells",
     ["simulate", "--cells", "", *TINY, "--out", "{root}/sim-x"]),
    ("simulate-zero-machines",
     ["simulate", "--cells", "d", *TINY, "--machines", "0",
      "--out", "{root}/sim-x"]),
    ("simulate-negative-hours",
     ["simulate", "--cells", "d", *TINY, "--hours", "-1",
      "--out", "{root}/sim-x"]),
    ("simulate-zero-scale",
     ["simulate", "--cells", "d", *TINY, "--scale", "0",
      "--out", "{root}/sim-x"]),
    ("simulate-negative-fault-rate",
     ["simulate", "--cells", "d", *TINY, "--faults", "heavy",
      "--fault-rate", "-1", "--out", "{root}/sim-x"]),
    # a scale the range rules accept but the workload planner cannot fill
    ("simulate-scale-too-small-to-plan",
     ["simulate", "--cells", "2011", *TINY, "--out", "{root}/sim-x"]),
    # validate
    ("validate-missing", ["validate", "{missing}"]),
    ("validate-empty-dir", ["validate", "{empty}"]),
    ("validate-older-store", ["validate", "{root}/old_store"]),
    ("validate-truncated-metadata", ["validate", "{root}/cut_meta"]),
    ("validate-truncated-manifest", ["validate", "{root}/cut_manifest"]),
    ("validate-truncated-chunk", ["validate", "{root}/cut_chunk"]),
    ("validate-bit-flipped-chunk", ["validate", "{root}/flip_chunk"]),
    ("validate-bit-flipped-metadata", ["validate", "{root}/flip_meta"]),
    ("validate-metadata-extra-key", ["validate", "{root}/extra_meta"]),
    ("validate-metadata-list", ["validate", "{root}/list_meta"]),
    ("validate-metadata-unknown-era", ["validate", "{root}/era_meta"]),
    ("validate-store-metadata-unknown-era", ["validate", "{root}/era_store"]),
    ("validate-manifest-edited-bound", ["validate", "{root}/bound_store"]),
    ("validate-csv-cut-inside-last-row", ["validate", "{root}/cut_csv"]),
    # report
    ("report-missing", ["report", "{missing}"]),
    ("report-empty-dir", ["report", "{empty}"]),
    ("report-needs-both-eras", ["report", "{root}/report_2019"]),
    ("report-older-store", ["report", "{root}/report_old"]),
    ("report-truncated-metadata", ["report", "{root}/report_cut"]),
    ("report-bit-flipped-chunk", ["report", "{root}/report_flip"]),
    ("report-cells-of-two-runs", ["report", "{root}/report_two_runs"]),
    ("report-unwritable-out",
     ["report", "{traces}", "--out", "{blocked}/report.txt"]),
    # convert
    ("convert-missing", ["convert", "{missing}", "{root}/conv-x"]),
    ("convert-empty-dir", ["convert", "{empty}", "{root}/conv-x"]),
    ("convert-store-to-store", ["convert", "{store}", "{root}/conv-x"]),
    ("convert-csv-to-csv",
     ["convert", "{traces}/d", "{root}/conv-x", "--to", "csv"]),
    ("convert-older-store",
     ["convert", "{root}/old_store", "{root}/conv-x", "--to", "csv"]),
    ("convert-truncated-metadata",
     ["convert", "{root}/cut_meta", "{root}/conv-x"]),
    ("convert-truncated-chunk",
     ["convert", "{root}/cut_chunk", "{root}/conv-x", "--to", "csv"]),
    ("convert-bit-flipped-chunk",
     ["convert", "{root}/flip_chunk", "{root}/conv-x", "--to", "csv"]),
    ("convert-unwritable-dst", ["convert", "{traces}/d", "{blocked}/dst"]),
    # query (`count` is answered from the manifest, so decode a column)
    ("query-missing", ["query", "{missing}", "instance_usage"]),
    ("query-empty-dir", ["query", "{empty}", "instance_usage"]),
    ("query-csv-trace", ["query", "{traces}/d", "instance_usage"]),
    ("query-older-store", ["query", "{root}/old_store", "instance_usage"]),
    ("query-truncated-manifest",
     ["query", "{root}/cut_manifest", "instance_usage"]),
    ("query-truncated-chunk",
     ["query", "{root}/cut_chunk", "instance_usage", "--agg", "sum:avg_cpu"]),
    ("query-bit-flipped-chunk",
     ["query", "{root}/flip_chunk", "instance_usage", "--agg", "sum:avg_cpu"]),
    ("query-manifest-edited-bound",
     ["query", "{root}/bound_store", "instance_usage",
      "--where", "start_time between 0 3600", "--agg", "count"]),
    ("query-unwritable-obs-out",
     ["query", "{store}", "instance_usage", "--agg", "count",
      "--obs-out", "{blocked}/obs.json"]),
    # stats
    ("stats-missing", ["stats", "{missing}"]),
    ("stats-empty-dir", ["stats", "{empty}"]),
    ("stats-trace-metadata", ["stats", "{traces}/d/metadata.json"]),
    ("stats-zero-byte", ["stats", "{root}/zero.jsonl"]),
    ("stats-truncated", ["stats", "{root}/cut_obs.json"]),
    ("stats-bit-flipped", ["stats", "{root}/flip_obs.json"]),
    # bench compare
    ("bench-compare-missing", ["bench", "compare", "{missing}", "{missing}"]),
    ("bench-compare-empty-dir", ["bench", "compare", "{empty}", "{empty}"]),
    ("bench-compare-truncated",
     ["bench", "compare", "{root}/bench", "{root}/cut_bench"]),
    ("bench-compare-bit-flipped",
     ["bench", "compare", "{root}/bench", "{root}/flip_bench"]),
    # campaign run / status / report
    ("campaign-run-missing", ["campaign", "run", "{missing}"]),
    ("campaign-run-empty-dir", ["campaign", "run", "{empty}"]),
    ("campaign-run-trace-metadata",
     ["campaign", "run", "{traces}/d/metadata.json"]),
    ("campaign-run-truncated", ["campaign", "run", "{root}/cut_spec.json"]),
    ("campaign-run-bit-flipped", ["campaign", "run", "{root}/flip_spec.json"]),
    ("campaign-run-unwritable-out",
     ["campaign", "run", "{spec}", "--out", "{blocked}/out"]),
    ("campaign-run-unwritable-obs-out",
     ["campaign", "run", "{spec}", "--out", "{root}/campaign",
      "--obs-out", "{blocked}/obs.json"]),
    ("campaign-run-unwritable-summary-out",
     ["campaign", "run", "{spec}", "--out", "{root}/campaign",
      "--summary-out", "{blocked}/summary.json"]),
    ("campaign-status-missing", ["campaign", "status", "{missing}"]),
    ("campaign-status-truncated",
     ["campaign", "status", "{root}/cut_spec.json"]),
    ("campaign-report-missing", ["campaign", "report", "{missing}"]),
    ("campaign-report-bit-flipped",
     ["campaign", "report", "{root}/flip_spec.json"]),
    ("campaign-report-no-results",
     ["campaign", "report", "{spec}", "--out", "{empty}"]),
    ("campaign-report-unwritable-report-out",
     ["campaign", "report", "{spec}", "--out", "{root}/campaign",
      "--report-out", "{blocked}/report.txt"]),
    # lint
    ("lint-missing", ["lint", "{missing}"]),
    ("lint-unknown-rule", ["lint", "{empty}", "--select", "RPR999"]),
    ("lint-not-utf8", ["lint", "{root}/flip_source.py"]),
]


@pytest.mark.parametrize("argv", [argv for _, argv in ROWS],
                         ids=[row_id for row_id, _ in ROWS])
def test_unusable_input_is_one_line_and_exit_2(paths, capsys, argv):
    argv = [arg.format(**paths) for arg in argv]
    command = " ".join(argv[:2] if argv[0] in ("bench", "campaign")
                       else argv[:1])
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"{command}: "), lines


def test_report_names_both_cells_of_two_runs(paths, capsys):
    assert main(["report", f"{paths['root']}/report_two_runs"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("report: cells 'd' and 'g' share collection ids")


@pytest.mark.parametrize("argv,message", [
    (["convert", "src", "dst", "--chunk-rows", "0"],
     "must be above zero, got 0"),
    (["simulate", "--record-interval", "0"], "must be above zero, got 0"),
    (["query", "store", "table", "--limit", "-1"],
     "must not be negative, got -1"),
], ids=["chunk-rows", "record-interval", "negative-limit"])
def test_non_positive_sizes_fail_at_argparse(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(message), errors


@pytest.mark.parametrize("error", [SimulationError, ValueError])
def test_a_bug_inside_a_command_still_raises(tmp_path, monkeypatch, error):
    """Only input errors are turned into exit 2: a ``SimulationError``
    (a simulator bug, for all it derives from ``ReproError``) or a bare
    ``ValueError`` escapes ``main`` with its traceback."""
    def broken(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr("repro.cli.run_cells", broken)
    with pytest.raises(error, match="planted"):
        main(["simulate", "--cells", "d", *TINY, "--out", str(tmp_path)])
