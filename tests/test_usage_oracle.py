"""The blocked usage flush against its per-interval reference.

``UsageBatch.finalize`` must return exactly what drawing each interval on
its own returns (``tests/usage_oracles.py``), byte for byte, and leave
the usage generator in exactly the same state.  The inputs mix task and
alloc records, sub-window and one-window intervals, records longer
than a flush block and all three Autopilot modes, so runs cross block
boundaries.  Periods include 37.5 s, whose grid is exact, and 0.7 s,
where ``floor(s/p)*p + k*p`` and ``(floor(s/p)+k)*p`` can differ, so the
per-window diurnal table must step aside.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import usage
from repro.sim.autopilot import AutopilotParams
from repro.sim.usage import BLOCK_WINDOWS, UsageBatch, UsageModel, UsageModelParams
from tests.usage_oracles import reference_finalize

AUTOPILOT = AutopilotParams()
#: Machine id of each of the seven slots the records use.
MACHINE_IDS = np.array([907, 3, 55, 1_000_001, 12, 8, 640], dtype=np.int64)


def _record(is_alloc: bool, start: float, length: float, autopilot: int,
            index: int, cpu: float, mem: float, cf: float, mf: float,
            in_alloc: bool) -> dict:
    record = dict(is_alloc=is_alloc, collection_id=1_000 + index // 3,
                  instance_index=index % 3, slot=index % 7,
                  tier_code=index % 5, autopilot_code=autopilot,
                  start=start, end=start + length,
                  cpu_limit=cpu, mem_limit=mem)
    if not is_alloc:
        record.update(in_alloc=in_alloc, cpu_fraction=cf, mem_fraction=mf)
    return record


def _flush(model: UsageModel, records, seed: int):
    batch = UsageBatch(model, AUTOPILOT, MACHINE_IDS)
    for r in records:
        kwargs = {k: v for k, v in r.items() if k != "is_alloc"}
        (batch.add_alloc if r["is_alloc"] else batch.add_task)(**kwargs)
    rng = np.random.default_rng(seed)
    return batch.finalize(rng), rng.bit_generator.state


def assert_matches_reference(model: UsageModel, records, seed: int) -> None:
    (got, got_slots), got_state = _flush(model, records, seed)
    rng = np.random.default_rng(seed)
    want, want_slots = reference_finalize(model, AUTOPILOT, MACHINE_IDS,
                                          records, rng)
    assert got_state == rng.bit_generator.state
    assert list(got) == list(UsageBatch.COLUMNS)
    for column in UsageBatch.COLUMNS:
        a, b = got[column], want[column]
        assert a.dtype == b.dtype and a.shape == b.shape, column
        assert a.tobytes() == b.tobytes(), column
    assert got_slots.dtype == want_slots.dtype
    assert got_slots.tobytes() == want_slots.tobytes()


#: Interval lengths in windows: sub-window, one window, short, long,
#: longer than a block.  Intervals are never empty
#: (``UsageBatch.add_task``).
_WINDOWS = st.one_of(
    st.floats(0.01, 1.0), st.just(1.0),
    st.floats(1.0, 24.0), st.floats(24.0, 400.0),
    st.floats(BLOCK_WINDOWS - 2.0, BLOCK_WINDOWS + 300.0))

_RECORD = st.tuples(
    st.integers(0, 5).map(lambda k: k == 0),  # one record in six is alloc
    st.floats(0.0, 5_000.0), _WINDOWS, st.sampled_from((0, 1, 2)),
    st.floats(0.05, 0.4), st.floats(0.05, 0.4),
    st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.booleans())


@settings(max_examples=40, deadline=None)
@given(st.lists(_RECORD, min_size=1, max_size=60),
       st.sampled_from((1.0, 60.0, 300.0, 37.5, 0.7)),
       st.sampled_from((0.0, -7.0, 8.0)),
       st.integers(0, 2**32 - 1))
def test_finalize_matches_per_interval_reference(specs, period, utc, seed):
    model = UsageModel(UsageModelParams(), sample_period=period,
                       utc_offset_hours=utc)
    records = [
        _record(is_alloc, start * period / 60.0, windows * period, ap, i,
                cpu, mem, cf, mf, in_alloc)
        for i, (is_alloc, start, windows, ap, cpu, mem, cf, mf, in_alloc)
        in enumerate(specs)]
    assert_matches_reference(model, records, seed)


def test_block_boundaries_and_long_records(monkeypatch):
    """Thousands of short intervals span several blocks, a record longer
    than a block forms its own, and alloc records and sub-window
    intervals sit among them."""
    blocks = []

    def spy(rng, clone, p, counts, t_counts, within, m):
        blocks.append(m)
        return draw_block(rng, clone, p, counts, t_counts, within, m)

    draw_block = usage._draw_block
    monkeypatch.setattr(usage, "_draw_block", spy)

    model = UsageModel(UsageModelParams(), sample_period=60.0)
    draw = np.random.default_rng(5)
    records = []
    for i in range(6_000):
        start = float(draw.uniform(0.0, 86_400.0))
        windows = float(draw.choice((0.25, 0.5, 1.0, 3.0, 9.0)))
        records.append(_record(
            i % 97 == 0, start, windows * 60.0, i % 3, i,
            0.2, 0.3, 0.5, 0.6, i % 2 == 0))
    records.insert(2_500, _record(False, 30.0, (BLOCK_WINDOWS + 7) * 60.0,
                                  1, 9_999, 0.2, 0.3, 0.5, 0.6, False))
    assert_matches_reference(model, records, seed=21)
    assert len(blocks) >= 3 and max(blocks) > BLOCK_WINDOWS


def test_diurnal_table_only_on_an_exact_grid():
    """The per-window diurnal table is used where the grid is provably
    exact, and 0.7 s really is a period where it would not be."""
    def table(period, starts):
        model = UsageModel(UsageModelParams(), sample_period=period)
        grid = np.floor(np.asarray(starts) / period)
        return usage._diurnal_table(model, grid.astype(np.int64),
                                    np.full(len(starts), 50))

    assert table(300.0, [0.0, 86_400.0]) is not None
    assert table(37.5, [0.0, 86_400.0]) is not None
    assert table(0.7, [0.0, 86_400.0]) is None
    p = 0.7
    f = np.arange(1, 2_000, dtype=np.float64)
    k = np.arange(1, 40, dtype=np.float64)[:, None]
    assert (f * p + k * p != (f + k) * p).any()


def test_empty_flushes():
    model = UsageModel(UsageModelParams(), sample_period=300.0)
    (empty, slots), _ = _flush(model, [], seed=1)
    assert all(len(v) == 0 for v in empty.values()) and len(slots) == 0
    # Only alloc records: zero-usage rows and no draws.
    records = [_record(True, 600.0, 900.0, 0, 0, 0.2, 0.3, 0.0, 0.0, False),
               _record(True, 650.0, 10.0, 2, 1, 0.2, 0.3, 0.0, 0.0, False)]
    assert_matches_reference(model, records, seed=3)
