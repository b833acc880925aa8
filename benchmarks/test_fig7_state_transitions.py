"""Figure 7: the state-transition diagram with occurrence counts (cell g)."""

from repro.analysis import transitions


def test_fig7_state_transitions(bench_traces_2019):
    by_name = {t.cell: t for t in bench_traces_2019}
    trace = by_name.get("g", bench_traces_2019[0])

    rows = transitions.transition_table(trace)

    print(f"\nFigure 7 (reproduced): transitions in cell {trace.cell}")
    for src, dst, n_coll, n_inst in rows:
        print(f"  {src:>14s} -> {dst:<14s} collections={n_coll:8d} "
              f"instances={n_inst:9d}")

    counts = dict(((src, dst), (c, i)) for src, dst, c, i in rows)
    # The common paths dominate by orders of magnitude (the paper's
    # observation about the figure).
    common = counts[("PENDING", "RUNNING")][1]
    rare = counts.get(("DEAD(evict)", "PENDING"), (0, 0))[1]
    assert common > 0
    assert common > 10 * max(rare, 1)
    # Batch queueing shows up at the collection level.
    assert counts.get(("PENDING", "QUEUED"), (0, 0))[0] > 0
    # Every terminal cause appears somewhere.
    dead_states = {dst for _, dst, __, ___ in rows if dst.startswith("DEAD")}
    assert {"DEAD(finish)", "DEAD(kill)", "DEAD(fail)", "DEAD(evict)"} <= dead_states
