"""Shared fixtures: session-scoped small simulations and traces.

Simulations are the expensive part of the suite, so each scenario is run
once per session and shared by every test that only reads from it.  The
actual simulate-and-encode setup lives in :mod:`tests.trace_fixtures`,
shared with ``benchmarks/conftest.py`` and parametrized on cell size.
"""

from __future__ import annotations

import pytest

from repro.lint import lint_project
from repro.trace import encode_cell
from tests.trace_fixtures import FAULTY_SCALE, TEST_SCALE, build_result


@pytest.fixture(scope="session")
def result_2019():
    """One small 2019-era cell simulation result."""
    return build_result("2019", TEST_SCALE)


@pytest.fixture(scope="session")
def result_2011():
    """One small 2011-era cell simulation result."""
    return build_result("2011", TEST_SCALE)


@pytest.fixture(scope="session")
def trace_2019(result_2019):
    return encode_cell(result_2019)


@pytest.fixture(scope="session")
def trace_2011(result_2011):
    return encode_cell(result_2011)


@pytest.fixture(scope="session")
def traces_2019(trace_2019):
    return [trace_2019]


@pytest.fixture(scope="session")
def result_2019_faulty():
    """The failure-heavy 2019 cell: heavy faults + mixed archetypes."""
    return build_result("2019", FAULTY_SCALE)


@pytest.fixture(scope="session")
def trace_2019_faulty(result_2019_faulty):
    return encode_cell(result_2019_faulty)


@pytest.fixture(scope="session")
def traces_2011(trace_2011):
    return [trace_2011]


@pytest.fixture
def lint_fixture(tmp_path):
    """Lint one fixture file the way ``borg-repro lint`` does.

    ``lint_fixture(source, path, select=None)`` writes ``source`` to
    ``tmp_path/<path>`` (``path`` keeps the directories a rule scopes
    on, e.g. ``src/repro/sim/x.py``) and returns the violations
    :func:`repro.lint.lint_project` reports for that one file.
    """
    def run(source, path, select=None):
        target = tmp_path / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        return lint_project([target], select=select).violations
    return run
