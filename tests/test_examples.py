"""Smoke tests: every example script runs end to end.

Each example is executed in-process (imported as a module and driven via
its ``main``) with small arguments where supported, so a refactor that
breaks the public API surface fails here rather than in a user's shell.
"""

import importlib.util
import shutil
from pathlib import Path

import numpy as np

from repro.store import open_store

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main(seed=3)
        out = capsys.readouterr().out
        assert "hogs and mice" in out
        assert "invariant violations: 0" in out

    def test_hogs_and_mice(self, capsys):
        load_example("hogs_and_mice").main(seed=3)
        out = capsys.readouterr().out
        assert "Pollaczek-Khinchine" in out
        assert "isolating the hogs" in out

    def test_trace_explorer(self, capsys):
        load_example("trace_explorer").main(seed=3)
        out = capsys.readouterr().out
        for header in ("== Q1: who submits the most jobs? ==",
                       "== Q2: kill rate by tier ==",
                       "== Q3: join usage against machine capacity",
                       "== Q4: export in the 2011 CSV layout =="):
            assert header in out
        # Q1's top row against a brute force over the store it wrote.
        lines = out.splitlines()
        workdir = next(line.split(" to ", 1)[1] for line in lines
                       if line.startswith("  to "))
        try:
            ce = open_store(workdir).read_table("collection_events")
        finally:
            shutil.rmtree(workdir)
        rows = ((ce["type"].values == "SUBMIT")
                & (ce["collection_type"].values == "job"))
        pairs = set(zip(ce["user"].values[rows],
                        ce["collection_id"].values[rows].tolist()))
        users, jobs = np.unique([user for user, _ in pairs],
                                return_counts=True)
        top = int(np.argmax(jobs))
        q1 = lines.index("== Q1: who submits the most jobs? ==")
        assert lines[q1 + 3].split() == [users[top], str(jobs[top])]

    def test_ascii_figures(self, capsys):
        load_example("ascii_figures").main(seed=3)
        out = capsys.readouterr().out
        assert "figure 12" in out
        assert "Pr(machine CPU utilization > x)" in out

    def test_what_if_replay(self, capsys):
        load_example("what_if_replay").main(seed=3)
        out = capsys.readouterr().out
        assert "faithful replay" in out
        assert "no over-commit" in out

    def test_longitudinal_comparison_tiny(self, capsys):
        load_example("longitudinal_comparison").main([
            "--cells", "d", "--machines", "16", "--hours", "6",
            "--scale", "0.01", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert "Table 1" in out and "Figure 14" in out
