"""Bulk loading of partitioned tables (paper Section 2.3).

New tuples for a PREF-partitioned table are routed with a *partition index*
on the referenced attribute of the referenced table, avoiding a join: one
hash look-up per inserted tuple yields the exact set of target partitions.

Beyond the paper's description (which assumes referenced tables are loaded
first) the loader also maintains PREF locality when new tuples arrive in a
*referenced* table: existing referencing tuples that match a newly placed
key are copied into the new partitions, so the co-location guarantee of
Definition 1 keeps holding across incremental loads.

Updates and deletes are applied to every partition holding a copy; updates
may not modify columns used in any partitioning predicate (the paper's
restriction at the end of Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from repro.errors import BulkLoadError
from repro.partitioning.config import PartitioningConfig
from repro.partitioning.scheme import (
    HashScheme,
    PatchedPrefScheme,
    PrefScheme,
    RangeScheme,
    ReplicatedScheme,
    RoundRobinScheme,
    key_has_null,
)
from repro.storage.partition import row_key
from repro.storage.partitioned import (
    PartitionedDatabase,
    PartitionedTable,
    StagedCopies,
)

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
        propagated_copies: Copies of *existing* referencing tuples written
            to maintain PREF locality after referenced-side inserts.
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
        self._round_robin: dict[str, int] = {}
        #: referencing tables by referenced table name (for maintenance).
        self._referencing: dict[str, list[str]] = {}
        for table in config.tables:
            scheme = config.scheme_of(table)
            if isinstance(scheme, PrefScheme):
                self._referencing.setdefault(scheme.referenced_table, []).append(
                    table
                )

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
                co-location guarantee by propagating copies of existing
                referencing tuples when referenced-side inserts create new
                partner locations.

        Returns:
            Aggregated :class:`BulkLoadStats` across all batches.
        """
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
        """Insert *rows* into *table*, returning load statistics."""
        target = self.partitioned.table(table)
        scheme = self.config.scheme_of(table)
        # Inserts can introduce orphans or duplicate copies, which breaks a
        # previously verified effective-hash placement of this table and of
        # every table referencing it (locality propagation adds copies).
        self._invalidate_effective_hash(table)
        rows = [tuple(raw) for raw in rows]
        arity = len(target.schema)
        if any(len(row) != arity for row in rows):
            raise BulkLoadError(
                f"insert into {table}: every row must have {arity} values"
            )
        stats = BulkLoadStats(rows_in=len(rows))
        staged = StagedCopies(target)
        placements = [
            (row, self._insert_one(target, scheme, row, stats, staged))
            for row in rows
        ]
        staged.flush()
        if maintain_referencing and table in self._referencing:
            self._propagate(table, placements, stats)
        return stats

    def _insert_one(
        self,
        target: PartitionedTable,
        scheme,
        row: Row,
        stats: BulkLoadStats,
        staged: StagedCopies,
    ) -> frozenset[int]:
        """Stage one row; returns the set of partitions that get a copy."""
        source_id = target.allocate_source_id()
        width = target.schema.row_byte_width
        if isinstance(scheme, (HashScheme, RangeScheme)):
            key = row_key(target.schema.positions(scheme.columns))(row)
            partition_id = scheme.partition_of(key)
            staged.add(partition_id, row, source_id)
            stats.copies_written += 1
            stats.bytes_written += width
            return frozenset((partition_id,))
        if isinstance(scheme, RoundRobinScheme):
            cursor = self._round_robin.get(target.name, 0)
            staged.add(cursor, row, source_id)
            self._round_robin[target.name] = (cursor + 1) % target.partition_count
            stats.copies_written += 1
            stats.bytes_written += width
            return frozenset((cursor,))
        if isinstance(scheme, ReplicatedScheme):
            for partition_id in range(target.partition_count):
                staged.add(
                    partition_id, row, source_id, duplicate=partition_id != 0
                )
            stats.copies_written += target.partition_count
            stats.bytes_written += width * target.partition_count
            return frozenset(range(target.partition_count))
        if isinstance(scheme, PrefScheme):
            referenced = self.partitioned.table(scheme.referenced_table)
            index = referenced.partition_index(scheme.referenced_columns)
            key = row_key(
                target.schema.positions(scheme.referencing_columns(target.name))
            )(row)
            if key_has_null(key):
                # A NULL key never matches a partner; no index probe needed.
                partitions = frozenset()
            else:
                stats.index_lookups += 1
                partitions = index.partitions_of(key)
            if partitions:
                placed = tuple(sorted(partitions))
                if isinstance(scheme, PatchedPrefScheme) and len(
                    placed
                ) > scheme.max_copies:
                    for partition_id in placed[scheme.max_copies :]:
                        target.add_patch(partition_id, row, source_id)
                    placed = placed[: scheme.max_copies]
                for rank, partition_id in enumerate(placed):
                    staged.add(
                        partition_id, row, source_id, duplicate=rank > 0
                    )
            else:
                cursor = self._round_robin.get(target.name, 0)
                staged.add(cursor, row, source_id, has_partner=False)
                self._round_robin[target.name] = (
                    cursor + 1
                ) % target.partition_count
                placed = (cursor,)
            stats.copies_written += len(placed)
            stats.bytes_written += width * len(placed)
            return frozenset(placed)
        raise BulkLoadError(f"unsupported scheme for bulk load: {scheme!r}")

    def _invalidate_effective_hash(self, table: str) -> None:
        """Drop verified hash placement of *table* and its referencers."""
        frontier = [table]
        seen = set()
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            if self.partitioned.has_table(current):
                self.partitioned.table(current).effective_hash = None
            frontier.extend(self._referencing.get(current, ()))

    # -- locality maintenance ----------------------------------------------------

    def _propagate(
        self,
        referenced_name: str,
        placements: list[tuple[Row, frozenset[int]]],
        stats: BulkLoadStats,
    ) -> None:
        """Copy existing referencing tuples next to newly inserted partners.

        New copies written here are themselves new partner placements for
        tables further down the PREF chain, so propagation recurses.
        """
        for referencing_name in self._referencing.get(referenced_name, ()):
            referencing = self.partitioned.table(referencing_name)
            scheme = self.config.scheme_of(referencing_name)
            assert isinstance(scheme, PrefScheme)
            referenced = self.partitioned.table(referenced_name)
            # Which keys newly appeared in which partitions?
            new_keys: dict[Hashable, set[int]] = {}
            extract = row_key(
                referenced.schema.positions(scheme.referenced_columns)
            )
            for row, placed in placements:
                key = extract(row)
                if key_has_null(key):
                    # A NULL referenced key can never partner anything.
                    continue
                new_keys.setdefault(key, set()).update(placed)
            ref_columns = scheme.referencing_columns(referencing_name)
            locator = _locate_rows(referencing, ref_columns, set(new_keys))
            width = referencing.schema.row_byte_width
            max_copies = (
                scheme.max_copies
                if isinstance(scheme, PatchedPrefScheme)
                else None
            )
            downstream: list[tuple[Row, frozenset[int]]] = []
            staged = StagedCopies(referencing)
            partnered: set[int] = set()
            for key, partitions in new_keys.items():
                for source_id, row, existing in locator.get(key, ()):  # noqa: B020
                    patched = referencing.patch_partitions_of(source_id)
                    missing = partitions - existing - patched
                    added: set[int] = set()
                    for partition_id in sorted(missing):
                        if (
                            max_copies is not None
                            and len(existing) >= max_copies
                        ):
                            # Duplication cap reached: overflow partner
                            # locations go to the patch list instead.
                            referencing.add_patch(partition_id, row, source_id)
                            continue
                        staged.add(partition_id, row, source_id, duplicate=True)
                        existing.add(partition_id)
                        added.add(partition_id)
                        stats.propagated_copies += 1
                        stats.copies_written += 1
                        stats.bytes_written += width
                    if added:
                        downstream.append((row, frozenset(added)))
                    partnered.add(source_id)
            _mark_has_partner(referencing, partnered)
            staged.flush()
            if downstream:
                self._propagate(referencing_name, downstream, stats)

    # -- updates and deletes ------------------------------------------------------

    def delete(self, table: str, where: Callable[[Row], bool]) -> int:
        """Delete rows matching *where* from every partition of *table*.

        Returns the number of row copies removed.  If any were, the cached
        partition indexes are dropped (deletion is rare in the paper's
        warehousing setting).
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
        if removed:
            target.invalidate_indexes()
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
            (entries, index, (checked(row), source_id))
            for entries in target.patches.values()
            for index, (row, source_id) in enumerate(entries)
            if where(row)
        ]
        for partition, index, new_row in stored:
            partition.set_row(index, new_row)
        for entries, index, entry in patched:
            entries[index] = entry
        return len(stored) + len(patched)

    def _protected_columns(self, table: str) -> set[str]:
        """Columns of *table* used by its scheme or any PREF predicate."""
        protected: set[str] = set()
        scheme = self.config.scheme_of(table)
        protected.update(getattr(scheme, "columns", ()))
        if isinstance(scheme, PrefScheme):
            protected.update(scheme.referencing_columns(table))
        for other in self.config.tables:
            other_scheme = self.config.scheme_of(other)
            if (
                isinstance(other_scheme, PrefScheme)
                and other_scheme.referenced_table == table
            ):
                protected.update(other_scheme.referenced_columns)
        return protected


def _locate_rows(
    table: PartitionedTable,
    columns: Sequence[str],
    keys: set,
) -> dict[Hashable, list[tuple[int, Row, set[int]]]]:
    """Find all base tuples of *table* whose key is in *keys*.

    Returns per key a list of (source_id, row, partitions holding a copy).
    """
    positions = table.schema.positions(columns)
    by_source: dict[int, tuple[Hashable, Row, set[int]]] = {}
    for partition in table.partitions:
        for index, key in enumerate(partition.keys(positions)):
            if key not in keys:
                continue
            source_id = partition.source_ids[index]
            entry = by_source.get(source_id)
            if entry is None:
                by_source[source_id] = (
                    key, partition.row(index), {partition.partition_id}
                )
            else:
                entry[2].add(partition.partition_id)
    result: dict[Hashable, list[tuple[int, Row, set[int]]]] = {}
    for source_id, (key, row, partitions) in by_source.items():
        result.setdefault(key, []).append((source_id, row, partitions))
    return result


def _mark_has_partner(table: PartitionedTable, source_ids: set[int]) -> None:
    """Set the ``hasS`` bit on every copy of the base tuples *source_ids*."""
    if not source_ids:
        return
    for partition in table.partitions:
        for index, source_id in enumerate(partition.source_ids):
            if source_id in source_ids:
                partition.set_has_partner(index)
