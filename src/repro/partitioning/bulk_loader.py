"""Bulk loading of partitioned tables (paper Section 2.3).

New tuples for a PREF-partitioned table are routed with a *partition index*
on the referenced attribute of the referenced table, avoiding a join: each
inserted tuple's key yields the exact set of target partitions.  The
lookup reads the referenced table's stored key columns once per batch, so
there is no index to keep in step with later writes.
That routing is Definition 1 applied to a batch, so the loader places rows
with :func:`repro.partitioning.partitioner.place_rows` — the routine
``partition_database`` runs — and adds what only a loader needs: batch
validation, statistics, and maintenance.

Beyond the paper's description (which assumes referenced tables are loaded
first) the loader also maintains PREF locality when new tuples arrive in a
*referenced* table: the existing referencing tuples they partner are taken
out and placed again by ``place_rows``, down the PREF chain, so a
maintained load of some rows, in any batch order, is the store
partitioning them from scratch builds (up to orphans' partitions, row
order and source ids).

Updates and deletes are applied to every partition holding a copy; updates
may not modify columns used in any partitioning predicate (the paper's
restriction at the end of Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import Callable, Iterable, Sequence

from repro.errors import BulkLoadError
from repro.partitioning.config import PartitioningConfig
from repro.partitioning.partitioner import place_rows
from repro.partitioning.scheme import PrefScheme, key_has_null
from repro.storage.partition import row_key
from repro.storage.partitioned import PartitionedDatabase

Row = tuple


@dataclass
class BulkLoadStats:
    """Cost accounting for a bulk-load run (drives Figure 10).

    Attributes:
        rows_in: Base tuples submitted.
        copies_written: Physical row copies written (>= rows_in for PREF
            and replicated tables).
        bytes_written: Nominal bytes written across all partitions.
        index_lookups: Partition-index probes performed.
        propagated_copies: Copies written while re-placing *existing*
            referencing tuples after referenced-side inserts (every copy of
            a re-placed tuple, also counted in ``copies_written``).
    """

    rows_in: int = 0
    copies_written: int = 0
    bytes_written: int = 0
    index_lookups: int = 0
    propagated_copies: int = 0

    def merge(self, other: "BulkLoadStats") -> None:
        """Accumulate another stats object into this one."""
        self.rows_in += other.rows_in
        self.copies_written += other.copies_written
        self.bytes_written += other.bytes_written
        self.index_lookups += other.index_lookups
        self.propagated_copies += other.propagated_copies

    def simulated_seconds(
        self,
        write_bandwidth_bytes: float = 40e6,
        lookup_seconds: float = 2e-7,
    ) -> float:
        """Simulated wall-clock for the load under a simple cost model.

        Writes are bandwidth-bound (redundancy costs I/O); every PREF insert
        additionally pays one index look-up (the paper's trade-off between
        CP-style redundancy and PREF-style look-ups).
        """
        return (
            self.bytes_written / write_bandwidth_bytes
            + self.index_lookups * lookup_seconds
        )


class BulkLoader:
    """Routes incremental batches into a :class:`PartitionedDatabase`."""

    def __init__(
        self,
        partitioned: PartitionedDatabase,
        config: PartitioningConfig,
    ) -> None:
        self.partitioned = partitioned
        self.config = config
        #: Per table, where ``place_rows`` left its round-robin cursor.
        self._round_robin: dict[str, int] = {}

    # -- inserts ------------------------------------------------------------

    def load(
        self,
        batches: dict[str, Sequence[Sequence]],
        maintain_referencing: bool = True,
    ) -> BulkLoadStats:
        """Insert one batch per table, in referential load order.

        Args:
            batches: Mapping from table name to the rows to insert.
            maintain_referencing: If True (default), keep Definition 1's
                co-location guarantee by re-placing the existing
                referencing tuples that referenced-side inserts partner.

        Returns:
            Aggregated :class:`BulkLoadStats` across all batches.
        """
        unknown = sorted(set(batches) - set(self.config.tables))
        if unknown:
            raise BulkLoadError(
                f"load: no table {', '.join(map(repr, unknown))} in the "
                "partitioning configuration"
            )
        stats = BulkLoadStats()
        for table in self.config.load_order():
            rows = batches.get(table)
            if rows:
                stats.merge(
                    self.insert(table, rows, maintain_referencing=maintain_referencing)
                )
        return stats

    def insert(
        self,
        table: str,
        rows: Iterable[Sequence],
        maintain_referencing: bool = True,
    ) -> BulkLoadStats:
        """Insert *rows* into *table*, returning load statistics.

        The rows are placed by :func:`~repro.partitioning.partitioner.
        place_rows`, the routine that partitions a database; a batch that
        is rejected leaves the store as it was.
        """
        target = self.partitioned.table(table)
        rows = [tuple(raw) for raw in rows]
        arity = len(target.schema)
        if any(len(row) != arity for row in rows):
            raise BulkLoadError(
                f"insert into {table}: every row must have {arity} values"
            )
        stored, index_lookups, self._round_robin[table] = place_rows(
            target, self.partitioned, rows, self._round_robin.get(table, 0)
        )
        # Inserts can introduce orphans or duplicate copies, which breaks a
        # previously verified effective-hash placement of this table and of
        # every table referencing it (re-placement adds copies).
        self._invalidate_effective_hash(table)
        copies = sum(map(len, stored))
        stats = BulkLoadStats(
            rows_in=len(rows),
            copies_written=copies,
            bytes_written=copies * target.schema.row_byte_width,
            index_lookups=index_lookups,
        )
        if maintain_referencing:
            self._replace_referencing(table, rows, stats)
        return stats

    def _invalidate_effective_hash(self, table: str) -> None:
        """Drop verified hash placement of *table* and its referencers."""
        for affected in self.config.write_closure(table):
            if self.partitioned.has_table(affected):
                self.partitioned.table(affected).effective_hash = None

    # -- locality maintenance ----------------------------------------------------

    def _replace_referencing(
        self, table: str, rows: list[Row], stats: BulkLoadStats
    ) -> None:
        """Place again every referencing tuple that *rows* partner.

        *rows* are base tuples of *table* that were just placed.  Every
        tuple of a table referencing *table* whose key is among theirs is
        taken out (all stored copies and patch entries) and placed again
        by ``place_rows`` against the store as it now stands, so its
        copies, ``dup`` and ``hasS`` bits and patch entries are what
        partitioning from scratch decides.  The re-placed tuples are the
        partners of the next table down the PREF chain, so this recurses
        with them.
        """
        referenced = self.partitioned.table(table)
        for name in self.config.referencing_tables(table):
            target = self.partitioned.table(name)
            scheme = target.scheme
            extract = row_key(referenced.schema.positions(scheme.referenced_columns))
            # NULL referenced keys partner nothing.
            keys = {key for key in map(extract, rows) if not key_has_null(key)}
            positions = target.schema.positions(scheme.referencing_columns(name))
            taken: list[Row] = []
            for partition in target.partitions:
                stored = partition.keys(positions)
                if keys.isdisjoint(stored):
                    continue
                hits = list(map(keys.__contains__, stored))
                # One row per tuple: its canonical (dup = 0) copy.
                taken.extend(
                    partition.row(index)
                    for index in compress(range(len(hits)), hits)
                    if not partition.dup[index]
                )
                partition.compress(list(map(not_, hits)))
            if not taken:
                continue
            if target.patches:
                # A patched tuple's canonical copy is stored: it is taken.
                extract = row_key(positions)
                target.replace_patches(
                    {
                        partition_id: [
                            entry for entry in entries if extract(entry[0]) not in keys
                        ]
                        for partition_id, entries in target.patches.items()
                    }
                )
            stored, _lookups, self._round_robin[name] = place_rows(
                target, self.partitioned, taken, self._round_robin.get(name, 0)
            )
            copies = sum(map(len, stored))
            stats.propagated_copies += copies
            stats.copies_written += copies
            stats.bytes_written += copies * target.schema.row_byte_width
            self._replace_referencing(name, taken, stats)

    # -- updates and deletes ------------------------------------------------------

    def delete(self, table: str, where: Callable[[Row], bool]) -> int:
        """Delete rows matching *where* from every partition of *table*.

        Returns the number of row copies removed.
        """
        target = self.partitioned.table(table)
        removed = 0
        for partition in target.partitions:
            keep = [not where(row) for row in partition]
            dropped = keep.count(False)
            if dropped:
                partition.compress(keep)
                removed += dropped
        if target.patches:
            kept_patches = {
                partition_id: [
                    (row, source_id)
                    for row, source_id in entries
                    if not where(row)
                ]
                for partition_id, entries in target.patches.items()
            }
            removed += target.patch_count - sum(
                len(entries) for entries in kept_patches.values()
            )
            target.replace_patches(kept_patches)
        return removed

    def update(
        self,
        table: str,
        where: Callable[[Row], bool],
        assign: Callable[[Row], Row],
    ) -> int:
        """Update rows matching *where* in every partition of *table*.

        Raises :class:`BulkLoadError` if the update changes a row's arity or
        modifies any column used by a partitioning scheme or PREF predicate
        involving *table* (the paper forbids such updates).  Every new row
        is checked before any is written, so a rejected update leaves the
        store untouched.  Returns the number of copies updated.
        """
        target = self.partitioned.table(table)
        positions = target.schema.positions(self._protected_columns(table))

        def checked(row: Row) -> Row:
            new_row = tuple(assign(row))
            if len(new_row) != len(row):
                raise BulkLoadError("update changed row arity")
            for position in positions:
                if new_row[position] != row[position]:
                    column = target.schema.columns[position].name
                    raise BulkLoadError(
                        f"update modifies partitioning-relevant column "
                        f"{table}.{column}"
                    )
            return new_row

        stored = [
            (partition, index, checked(row))
            for partition in target.partitions
            for index, row in enumerate(partition)
            if where(row)
        ]
        patched = [
            (partition_id, index, (checked(row), source_id))
            for partition_id, entries in target.patches.items()
            for index, (row, source_id) in enumerate(entries)
            if where(row)
        ]
        for partition, index, new_row in stored:
            partition.set_row(index, new_row)
        if patched:
            # New lists, installed whole: no list the table handed out is
            # rewritten in place.
            patches = {
                partition_id: list(entries)
                for partition_id, entries in target.patches.items()
            }
            for partition_id, index, entry in patched:
                patches[partition_id][index] = entry
            target.replace_patches(patches)
        return len(stored) + len(patched)

    def _protected_columns(self, table: str) -> set[str]:
        """Columns of *table* used by its scheme or any PREF predicate."""
        protected: set[str] = set()
        scheme = self.config.scheme_of(table)
        protected.update(getattr(scheme, "columns", ()))
        if isinstance(scheme, PrefScheme):
            protected.update(scheme.referencing_columns(table))
        for other in self.config.referencing_tables(table):
            protected.update(self.config.scheme_of(other).referenced_columns)
        return protected

