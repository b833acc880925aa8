"""One process fan-out for store chunk tasks, simulated cells and
campaign points (DESIGN.md §9).

:func:`fan_out` owns every decision of that shape: inline or pooled
(:func:`pool_size`), the chunking, and the metrics contract.  Every
item runs inside a *fresh* :func:`~repro.obs.registry.scoped_registry`,
inline and pooled alike, and its snapshot merges into the caller's
registry exactly once, before the item's result is yielded.

The pool's start method is ``fork``, named explicitly rather than left
to the platform default (``forkserver`` on Linux from Python 3.14), so
the path the tests cover is the path users run.  ``spawn`` would pay a
fresh interpreter and the library's imports once per worker, about 1.2
CPU-seconds per two-worker ``simulate`` or ``campaign run`` on a 2-core
box (EXPERIMENTS.md, "Start method of the one pool").  ``--workers``
above 1 therefore needs a platform with ``fork``, and the program must
start no thread of its own before a pool (a forked child gets only the
forking thread, so a lock another thread held stays held).

A forked worker starts with a copy of the parent's module state,
registry included; the fresh scope makes each snapshot exactly the
item's delta, so serial and pooled runs agree on every metric except
the pool's own ``<section>.pool_workers`` gauge and
``<section>.parallel_batches`` counter.  Tier-1 tests hold serial and
pooled runs to the same output (DESIGN.md §9 names them), which is what
catches a worker that reads or writes state it inherited.  ``fn``
crosses the process boundary by pickle: pass a module-level function or
a ``functools.partial`` of one (RPR003).
"""

from __future__ import annotations

import functools
import multiprocessing
from typing import Callable, Iterable, Iterator, Optional, Tuple, TypeVar

from repro.obs.registry import get_registry, scoped_registry
from repro.obs.snapshot import Snapshot

T = TypeVar("T")
R = TypeVar("R")


def pool_size(workers: Optional[int], n: int) -> int:
    """Processes :func:`fan_out` uses for ``n`` items; 1 means inline."""
    if workers is None or workers <= 1 or n <= 1:
        return 1
    return min(workers, n)


def default_workers() -> int:
    """A sensible pool size: all-but-one CPU, at least one."""
    return max(1, (multiprocessing.cpu_count() or 2) - 1)


def _scoped_call(fn: Callable[[T], R], item: T) -> Tuple[R, Snapshot]:
    """Run ``fn(item)`` in a fresh registry; return its result and delta."""
    with scoped_registry() as registry:
        result = fn(item)
    return result, registry.snapshot()


def fan_out(fn: Callable[[T], R], items: Iterable[T],
            workers: Optional[int], section: str) -> Iterator[R]:
    """Yield ``fn(item)`` for every item, in input order.

    Runs inline or over one ``multiprocessing`` pool as
    :func:`pool_size` decides; ``section`` names the pool bookkeeping
    metrics (``store``, ``sim``, ``campaign``).  A worker exception
    propagates out of the generator and the pool is torn down.
    """
    items = list(items)
    size = pool_size(workers, len(items))
    registry = get_registry()
    if size == 1:
        for item in items:
            result, snapshot = _scoped_call(fn, item)
            registry.merge_snapshot(snapshot)
            yield result
        return
    registry.gauge(f"{section}.pool_workers", size)
    registry.inc(f"{section}.parallel_batches")
    # At least four batches per process, so a slow batch cannot hold a
    # long tail behind it; a handful of cells or points gets 1.
    chunksize = max(1, len(items) // (size * 4))
    with multiprocessing.get_context("fork").Pool(processes=size) as pool:
        for result, snapshot in pool.imap(functools.partial(_scoped_call, fn),
                                          items, chunksize=chunksize):
            registry.merge_snapshot(snapshot)
            yield result
