"""Per-rule fixtures for RPR002-RPR007: true positive, suppression, clean.

Each rule's positive fixture is the bug class the rule exists to catch —
code that parses, imports, and passes casual runtime tests, but violates
a repo invariant (nondeterminism, pickle failure under workers>1,
swallowed errors, silent unit assumptions).
"""

import textwrap

import pytest

SIM_PATH = "src/repro/sim/fixture.py"
WORKLOAD_PATH = "src/repro/workload/fixture.py"
ANALYSIS_PATH = "src/repro/analysis/fixture.py"


@pytest.fixture
def lint(lint_fixture):
    def run(source, path, rule_id):
        return lint_fixture(textwrap.dedent(source), path, [rule_id])
    return run


# -- RPR002: determinism ----------------------------------------------------

def test_rpr002_flags_wall_clock_and_global_rng(lint):
    source = """\
        import time
        import numpy as np

        def step(state):
            np.random.seed(0)
            state.started = time.time()
            return np.random.rand()
    """
    violations = lint(source, SIM_PATH, "RPR002")
    messages = [v.message for v in violations]
    assert len(violations) == 3
    assert any("numpy.random.seed" in m for m in messages)
    assert any("time.time" in m for m in messages)
    assert any("numpy.random.rand" in m for m in messages)


def test_rpr002_flags_from_imports_and_random_module(lint):
    source = """\
        import random
        from time import monotonic

        def jitter():
            return monotonic() + random.random()
    """
    violations = lint(source, WORKLOAD_PATH, "RPR002")
    assert len(violations) == 2
    assert any("time.monotonic" in v.message for v in violations)
    assert any("random.random" in v.message for v in violations)


def test_rpr002_allows_injected_generator(lint):
    source = """\
        import numpy as np

        def step(rng: np.random.Generator, now: float):
            return now + rng.exponential(1.0)
    """
    assert lint(source, SIM_PATH, "RPR002") == []


def test_rpr002_scoped_to_sim_and_workload(lint):
    source = """\
        import time

        def stamp():
            return time.time()
    """
    assert lint(source, ANALYSIS_PATH, "RPR002") == []
    assert len(lint(source, SIM_PATH, "RPR002")) == 1


def test_rpr002_suppression(lint):
    source = """\
        import time

        def profile():
            return time.time()  # repro: noqa[RPR002]
    """
    assert lint(source, SIM_PATH, "RPR002") == []


# -- RPR003: fork safety ----------------------------------------------------

def test_rpr003_flags_lambdas(lint):
    source = """\
        def total_rows(scan):
            return scan.map_reduce(lambda c: len(c), lambda a, b: a + b)
    """
    violations = lint(source, ANALYSIS_PATH, "RPR003")
    assert len(violations) == 2
    assert all("lambda" in v.message for v in violations)
    assert all("map_reduce" in v.message for v in violations)


def test_rpr003_flags_nested_functions(lint):
    source = """\
        def total_rows(scan):
            def count(chunk):
                return len(chunk)
            return scan.map_reduce(count, _add)
    """
    violations = lint(source, ANALYSIS_PATH, "RPR003")
    assert len(violations) == 1
    assert "closure" in violations[0].message
    assert "'count'" in violations[0].message


def test_rpr003_flags_bound_methods_and_keyword_args(lint):
    source = """\
        class Runner:
            def go(self, scan):
                return scan.map_reduce(self.mapper, reduce_fn=self.reducer)
    """
    violations = lint(source, ANALYSIS_PATH, "RPR003")
    assert len(violations) == 2
    assert all("bound method" in v.message for v in violations)


def test_rpr003_allows_module_level_functions_and_partial(lint):
    source = """\
        from functools import partial

        import numpy as np

        def count(chunk):
            return len(chunk)

        def scaled(chunk, factor):
            return len(chunk) * factor

        def run(scan):
            a = scan.map_reduce(count, np.add)
            b = scan.map_reduce(partial(scaled, factor=2), count)
            return a, b
    """
    assert lint(source, ANALYSIS_PATH, "RPR003") == []


def test_rpr003_flags_lambda_inside_partial(lint):
    source = """\
        from functools import partial

        def run(scan):
            return scan.map_reduce(partial(lambda c, k: len(c), k=1), _add)
    """
    violations = lint(source, ANALYSIS_PATH, "RPR003")
    assert len(violations) == 1
    assert "lambda" in violations[0].message


def test_rpr003_flags_lambdas_and_closures_handed_to_fan_out_and_pools(lint):
    source = """\
        import multiprocessing

        from repro import obs
        from repro.obs import fan_out

        def run(items):
            def square(x):
                return x * x
            a = list(obs.fan_out(lambda x: x, items, 2, section="sim"))
            b = list(fan_out(square, items, 2, section="sim"))
            with multiprocessing.Pool(2) as pool:
                c = list(pool.imap(lambda x: x, items))
                d = list(pool.imap(square, items))
            return a, b, c, d
    """
    violations = lint(source, ANALYSIS_PATH, "RPR003")
    assert [v.line for v in violations] == [9, 10, 12, 13]
    assert [("lambda" in v.message, "closure" in v.message)
            for v in violations] == [(True, False), (False, True)] * 2
    assert sum("fan_out()" in v.message for v in violations) == 2
    assert sum("imap()" in v.message for v in violations) == 2


def test_rpr003_allows_module_level_functions_and_partial_for_pools(lint):
    source = """\
        import functools
        import multiprocessing

        from repro import obs
        from repro.obs import fan_out

        def square(x, power=2):
            return x ** power

        def run(items):
            cube = functools.partial(square, power=3)
            a = list(obs.fan_out(square, items, 2, section="sim"))
            b = list(fan_out(functools.partial(square, power=3), items, 2,
                             section="sim"))
            with multiprocessing.Pool(2) as pool:
                c = list(pool.imap(square, items))
                d = list(pool.imap(cube, items))
            return a, b, c, d
    """
    assert lint(source, ANALYSIS_PATH, "RPR003") == []


def test_rpr003_suppression(lint):
    source = """\
        def run(scan):  # serial-only path, never workers>1
            return scan.map_reduce(lambda c: len(c), _add)  # repro: noqa[RPR003]
    """
    assert lint(source, ANALYSIS_PATH, "RPR003") == []


# -- RPR004: exception hygiene ----------------------------------------------

def test_rpr004_flags_swallowing_broad_handlers(lint):
    source = """\
        def load(path):
            try:
                return parse(path)
            except:
                return None

        def load2(path):
            try:
                return parse(path)
            except Exception:
                return None
    """
    violations = lint(source, ANALYSIS_PATH, "RPR004")
    assert len(violations) == 2
    assert "bare except" in violations[0].message
    assert "except Exception" in violations[1].message


def test_rpr004_flags_broad_member_of_tuple(lint):
    source = """\
        def load(path):
            try:
                return parse(path)
            except (ValueError, Exception):
                return None
    """
    assert len(lint(source, ANALYSIS_PATH, "RPR004")) == 1


def test_rpr004_allows_narrow_reraise_and_logging(lint):
    source = """\
        import logging

        def load(path):
            try:
                return parse(path)
            except ValueError:
                return None

        def load2(path):
            try:
                return parse(path)
            except Exception:
                logging.exception("parse failed: %s", path)
                return None

        def load3(path):
            try:
                return parse(path)
            except BaseException:
                raise
    """
    assert lint(source, ANALYSIS_PATH, "RPR004") == []


def test_rpr004_suppression(lint):
    source = """\
        def probe(path):
            try:
                return parse(path)
            except Exception:  # repro: noqa[RPR004]
                return None
    """
    assert lint(source, ANALYSIS_PATH, "RPR004") == []


# -- RPR005: unit discipline ------------------------------------------------

def test_rpr005_flags_magnitude_literals(lint):
    source = """\
        def hours(seconds):
            return seconds / 3600.0

        GIB = 1073741824
    """
    violations = lint(source, ANALYSIS_PATH, "RPR005")
    assert len(violations) == 2
    assert "3600.0" in violations[0].message
    assert "HOUR_SECONDS" in violations[0].message
    assert "1073741824" in violations[1].message


def test_rpr005_allows_unit_modules_and_small_numbers(lint):
    magnitudes = "HOUR_SECONDS = 3600.0\nDAY_SECONDS = 86400.0\n"
    assert lint(magnitudes, "src/repro/util/timeutil.py", "RPR005") == []
    harmless = "x = 60\ny = 1024\nz = 0.25\nflag = True\n"
    assert lint(harmless, ANALYSIS_PATH, "RPR005") == []


def test_rpr005_suppression(lint):
    source = "window = 86400  # repro: noqa[RPR005] matches figure 7 caption\n"
    assert lint(source, ANALYSIS_PATH, "RPR005") == []


# -- RPR006: obs discipline -------------------------------------------------

def test_rpr006_flags_dynamic_span_names(lint):
    source = """\
        from repro import obs

        def work(kind, items):
            with obs.span("sim." + kind):
                pass
            with obs.span(f"store.{kind}"):
                pass
            obs.traced(kind)
    """
    violations = lint(source, SIM_PATH, "RPR006")
    assert len(violations) == 3
    assert all("string literal" in v.message for v in violations)


def test_rpr006_flags_missing_name_and_keyword_form(lint):
    source = """\
        from repro.obs import span

        def work(name):
            with span():
                pass
            with span(name=name):
                pass
    """
    violations = lint(source, SIM_PATH, "RPR006")
    assert len(violations) == 2
    assert "missing its span name" in violations[0].message


def test_rpr006_allows_literals_and_dynamic_counters(lint):
    source = """\
        from repro import obs
        from repro.obs import traced

        @traced("analysis.reducer")
        def reduce(table, kind):
            with obs.span("analysis.phase"):
                # Counters may be dynamic: they are flat and merge by name.
                obs.inc("analysis." + kind)
            return table
    """
    assert lint(source, ANALYSIS_PATH, "RPR006") == []


def test_rpr006_ignores_unrelated_span_functions(lint):
    source = """\
        def span(name):
            return name

        def work(kind):
            span(kind)  # not repro.obs.span
    """
    assert lint(source, SIM_PATH, "RPR006") == []


def test_rpr006_suppression(lint):
    source = """\
        from repro import obs

        def work(kind):
            with obs.span("x" + kind):  # repro: noqa[RPR006]
                pass
    """
    assert lint(source, SIM_PATH, "RPR006") == []


# -- RPR007: hot-loop guards ------------------------------------------------

def test_rpr007_flags_unguarded_recorder_in_loop(lint):
    source = """\
        def run(self):
            while self._heap:
                self.recorder.tick(t)
    """
    violations = lint(source, SIM_PATH, "RPR007")
    assert len(violations) == 1
    assert violations[0].rule == "RPR007"
    assert "loop" in violations[0].message


def test_rpr007_flags_profiler_in_for_and_comprehension(lint):
    source = """\
        def run(self, profiler):
            for event in self.events:
                profiler.sample(event)
            return [profiler.snapshot(e) for e in self.events]
    """
    assert len(lint(source, SIM_PATH, "RPR007")) == 2


def test_rpr007_allows_guarded_and_hoisted_calls(lint):
    source = """\
        def run(self):
            recorder = self.recorder
            while self._heap:
                if recorder is not None and t >= recorder.next_due:
                    recorder.tick(t)
            if recorder is not None:
                for t in trailing:
                    recorder.finish(t)
    """
    assert lint(source, SIM_PATH, "RPR007") == []


def test_rpr007_guard_must_cover_the_call(lint):
    # The else branch of a recorder guard is *not* guarded.
    source = """\
        def run(self, recorder):
            for t in ts:
                if recorder is None:
                    pass
                else:
                    recorder.tick(t)
    """
    assert len(lint(source, SIM_PATH, "RPR007")) == 1


def test_rpr007_allows_setup_outside_loops_and_other_dirs(lint):
    setup = """\
        def __init__(self, recorder):
            self.recorder = recorder
            recorder.attach(self.probes())
    """
    assert lint(setup, SIM_PATH, "RPR007") == []
    loop = """\
        def drain(self, recorder):
            for frame in frames:
                recorder.emit(frame)
    """
    assert lint(loop, ANALYSIS_PATH, "RPR007") == []


def test_rpr007_suppression(lint):
    source = """\
        def run(self, recorder):
            for t in ts:
                recorder.tick(t)  # repro: noqa[RPR007]
    """
    assert lint(source, SIM_PATH, "RPR007") == []
