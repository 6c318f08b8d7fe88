"""Per-table epoch tracking: the serving layer's invalidation clock.

Every mutation admitted through the server (bulk load, insert, update,
delete, migration) bumps the epoch of each table whose *contents* can
have changed — the written table plus every table reachable through PREF
references, because referenced-side inserts propagate copies into
referencing tables and flip their hasS bits (see
:meth:`~repro.partitioning.bulk_loader.BulkLoader._propagate`).  Cache
entries record the tables they depend on; a bump drops every dependent
entry.  (Storage itself needs no such clock: a partition stores the
columns its scans alias, so a write is visible to the next read.)
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.partitioning.config import PartitioningConfig


class EpochTracker:
    """Monotonic per-table epochs with PREF-closure write amplification."""

    def __init__(self, config: PartitioningConfig) -> None:
        self._lock = threading.Lock()
        self._epochs: dict[str, int] = {table: 0 for table in config.tables}
        #: table -> every table whose contents a write to it can touch
        #: (itself plus transitive referencers).
        self._closure: dict[str, frozenset[str]] = {
            table: config.write_closure(table) for table in config.tables
        }

    def closure(self, table: str) -> frozenset[str]:
        """Tables affected by a write to *table* (including itself).

        Empty for a name the configuration does not hold: nothing is
        stored under it, so there is no epoch to advance.
        """
        return self._closure.get(table, frozenset())

    def current(self, table: str) -> int:
        """The current epoch of *table* (0 if never written)."""
        with self._lock:
            return self._epochs.get(table, 0)

    def snapshot(self, tables: Iterable[str]) -> dict[str, int]:
        """Current epochs of *tables*, as one consistent reading."""
        with self._lock:
            return {table: self._epochs.get(table, 0) for table in tables}

    def bump(self, tables: Iterable[str]) -> frozenset[str]:
        """Advance the epoch of every table affected by writing *tables*.

        Returns the full affected set (write closure) so callers can
        invalidate dependent cache entries.
        """
        affected: set[str] = set()
        for table in tables:
            affected |= self.closure(table)
        with self._lock:
            for table in affected:
                self._epochs[table] = self._epochs.get(table, 0) + 1
        return frozenset(affected)
