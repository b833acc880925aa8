"""Smoke tests: every example script runs end to end.

Each example is executed in-process (imported as a module and driven via
its ``main``) with small arguments where supported, so a refactor that
breaks the public API surface fails here rather than in a user's shell.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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
        assert "kill rate by tier" in out
        assert "2011 CSV layout" in out

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
