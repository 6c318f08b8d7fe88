"""Bounded, table-dependent caches for the serving layer.

Both server caches are instances of one structure: an LRU map from a
normalised-SQL key to an entry that records which base tables it was
computed from.  A reverse index (table -> keys) makes epoch invalidation
O(dependent entries): when a write bumps a table's epoch the server drops
exactly the entries that read that table, never the whole cache.

* The **plan cache** stores ``(logical plan, annotated plan, tables)``.
  Re-executing a cached annotation skips parsing, planning and the
  rewriter; the physical compile still runs per execution because
  physical operators hold per-run state.  An annotation carries no rows,
  but the rewriter reads three store facts a write can move (governing
  duplicates, effective hashing, patch counts), so entries are
  epoch-invalidated like results — a dropped plan costs one re-plan.
* The **result cache** stores the finished rows.  Entries are only
  served while every dependent table's epoch is unchanged, enforced by
  invalidation (not by revalidation on read — the regression "teeth"
  test relies on invalidation being the load-bearing mechanism).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Hashable, TypeVar

V = TypeVar("V")


@dataclass
class CacheStats:
    """Monotonic counters mirrored into the server's metrics registry."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


@dataclass
class _Entry(Generic[V]):
    value: V
    tables: frozenset[str]


class TableDependentCache(Generic[V]):
    """A thread-safe LRU cache whose entries depend on base tables.

    ``capacity`` bounds the entry count; insertion beyond it evicts the
    least-recently-used entry.  ``invalidate_table`` drops every entry
    whose dependency set contains the table.  A capacity of 0 disables
    the cache (every ``get`` misses, every ``put`` is a no-op).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, _Entry[V]] = OrderedDict()
        self._dependents: dict[str, set[Hashable]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> V | None:
        """The cached value for *key*, refreshing its recency; or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.value

    def put(self, key: Hashable, value: V, tables: frozenset[str]) -> None:
        """Insert *key* -> *value*, depending on *tables*."""
        if self.capacity == 0:
            return
        with self._lock:
            existing = self._entries.pop(key, None)
            if existing is not None:
                self._unindex(key, existing.tables)
            self._entries[key] = _Entry(value, tables)
            for table in tables:
                self._dependents.setdefault(table, set()).add(key)
            while len(self._entries) > self.capacity:
                victim, entry = self._entries.popitem(last=False)
                self._unindex(victim, entry.tables)
                self.stats.evictions += 1

    def invalidate_table(self, table: str) -> int:
        """Drop every entry that depends on *table*; returns the count."""
        with self._lock:
            keys = self._dependents.pop(table, None)
            if not keys:
                return 0
            dropped = 0
            for key in keys:
                entry = self._entries.pop(key, None)
                if entry is None:
                    continue
                self._unindex(key, entry.tables, skip=table)
                dropped += 1
            self.stats.invalidations += dropped
            return dropped

    def clear(self) -> None:
        """Drop every entry (counted as invalidations)."""
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()
            self._dependents.clear()

    def _unindex(
        self, key: Hashable, tables: frozenset[str], skip: str | None = None
    ) -> None:
        for table in tables:
            if table == skip:
                continue
            keys = self._dependents.get(table)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._dependents[table]
