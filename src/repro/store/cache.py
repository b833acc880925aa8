"""LRU cache of decoded chunks, with hit/miss/eviction counters.

Repeated analyses over the same store (the common workflow: one store,
many figures) hit the same chunks again and again; caching the decoded
:class:`Table` objects turns the second and later passes into pure
in-memory scans.  Keys include the column projection, so a scan that
decodes only ``(start_time, avg_cpu)`` does not collide with a full read
of the same chunk.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

from repro import obs
from repro.table.table import Table


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __str__(self) -> str:
        return (f"hits={self.hits} misses={self.misses} "
                f"evictions={self.evictions} hit_rate={self.hit_rate:.1%}")


class ChunkCache:
    """A bounded mapping of chunk keys to decoded tables (LRU eviction)."""

    def __init__(self, capacity: int = 64):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, Table]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Table]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            obs.inc("store.cache.misses")
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        obs.inc("store.cache.hits")
        return entry

    def put(self, key: Hashable, table: Table) -> None:
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = table
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            obs.inc("store.cache.evictions")

    def nbytes(self) -> int:
        """Approximate resident bytes of the cached tables.

        Sums the numpy buffer sizes of every cached column — useful when
        tuning ``cache_chunks``, where entry *count* says nothing about
        footprint.  Object (string) columns count pointer storage only.
        """
        return sum(column.values.nbytes
                   for table in self._entries.values()
                   for name in table.column_names
                   for column in (table.column(name),))

    def clear(self) -> None:
        self._entries.clear()

    def __repr__(self) -> str:
        return (f"ChunkCache(entries={len(self._entries)}/{self.capacity}, "
                f"~{self.nbytes()} bytes, {self.stats})")
