"""Partitioned tables and databases (the ``DP`` of the paper).

A :class:`PartitionedTable` is the result of applying a partitioning scheme
to a base table: ``partition_count`` :class:`~repro.storage.partition.Partition`
objects plus — for PREF tables — a pointer to the scheme's seed table (the
first non-PREF table along the chain of partitioning predicates, paper
Definition 1).  Writers buffer row copies in a :class:`StagedCopies` and
flush them to the partitions a batch at a time.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping, Sequence

from repro.catalog.schema import TableSchema
from repro.errors import StorageError, UnknownObjectError
from repro.partitioning.scheme import (
    KeyMemo,
    PartitioningScheme,
    SchemeKind,
    hash_router,
)
from repro.storage.partition import Partition

Row = tuple

#: Keys each of a routing memo's two memos (whole keys, key parts) holds
#: before it is cleared whole.  Measured, not configured: EXPERIMENTS.md,
#: "Store-owned routing".
ROUTING_MEMO_KEYS = 1 << 15


class PartitionedTable:
    """A table split into partitions under one partitioning scheme."""

    def __init__(
        self,
        schema: TableSchema,
        scheme: PartitioningScheme,
        partition_count: int,
        seed_table: str | None = None,
    ) -> None:
        if partition_count < 1:
            raise StorageError("partition_count must be >= 1")
        self.schema = schema
        self.scheme = scheme
        self.partition_count = partition_count
        #: Name of the seed table of this table's PREF chain.  For seed
        #: schemes this is the table itself.
        self.seed_table = seed_table if seed_table is not None else schema.name
        self.partitions: list[Partition] = [
            Partition(partition_id, len(schema))
            for partition_id in range(partition_count)
        ]
        self._next_source_id = 0
        #: For PREF tables whose chain predicates compose into a functional
        #: mapping from own columns to the seed's hash key (classic REF
        #: chains), the verified columns this table is effectively
        #: hash-placed on.  Lets the rewriter treat chain joins as local.
        self.effective_hash: tuple[str, ...] | None = None
        #: Patched-PREF exception lists: destination partition id -> rows
        #: that *logically* belong there (a partner lives there) but whose
        #: stored duplication was capped at the scheme's ``max_copies``.
        #: They are delivered by a residual shuffle at scan time.
        self.patches: dict[int, list[tuple[Row, int]]] = {}
        #: Patch-list writes so far (:meth:`add_patch`,
        #: :meth:`replace_patches`); each partition counts its own.
        self.writes = 0

    @property
    def name(self) -> str:
        """The table name."""
        return self.schema.name

    @property
    def is_pref(self) -> bool:
        """True if this table is PREF partitioned."""
        return self.scheme.kind is SchemeKind.PREF

    # -- source ids ---------------------------------------------------------

    def allocate_source_id(self) -> int:
        """Reserve a fresh global id for a new base tuple."""
        source_id = self._next_source_id
        self._next_source_id += 1
        return source_id

    # -- patched-PREF exception lists ----------------------------------------

    def add_patch(self, partition_id: int, row: Row, source_id: int) -> None:
        """Record an overflow copy: *row* has a partner in *partition_id*
        but its stored duplication is capped, so the copy is delivered by
        the residual shuffle instead of being stored."""
        self.patches.setdefault(partition_id, []).append((row, source_id))
        self.writes += 1

    def patches_for(self, partition_id: int) -> list[tuple[Row, int]]:
        """Patch-list entries destined for *partition_id* (may be empty)."""
        return self.patches.get(partition_id, [])

    def patch_partitions_of(self, source_id: int) -> frozenset[int]:
        """Overflow partition ids the base tuple *source_id* was patched to."""
        return frozenset(
            partition_id
            for partition_id, entries in self.patches.items()
            if any(patched == source_id for _row, patched in entries)
        )

    def replace_patches(
        self, patches: dict[int, list[tuple[Row, int]]]
    ) -> None:
        """Replace the patch lists wholesale (empty lists are dropped)."""
        self.patches = {
            partition_id: entries
            for partition_id, entries in patches.items()
            if entries
        }
        self.writes += 1

    @property
    def patch_count(self) -> int:
        """Total patch-list entries across all destination partitions."""
        return sum(len(entries) for entries in self.patches.values())

    def stored_copy_counts(self) -> dict[int, int]:
        """Stored (non-patch) copies per source id, for redundancy audits."""
        counts: dict[int, int] = {}
        for partition in self.partitions:
            for source_id in partition.source_ids:
                counts[source_id] = counts.get(source_id, 0) + 1
        return counts

    # -- size accounting -----------------------------------------------------

    @property
    def total_rows(self) -> int:
        """Stored rows across all partitions, counting duplicates (|T^P|)."""
        return sum(partition.row_count for partition in self.partitions)

    @property
    def canonical_row_count(self) -> int:
        """Number of distinct base tuples stored (dup bit == 0)."""
        return self.total_rows - self.duplicate_count

    @property
    def duplicate_count(self) -> int:
        """Number of rows that are PREF/replication duplicates."""
        return sum(partition.duplicate_count for partition in self.partitions)

    @property
    def has_governing_duplicates(self) -> bool:
        """True if scans of this table must carry a governing dup bit.

        Stored duplicate copies and patch-list deliveries both arrive at
        scan time with the hidden dup column set, so either makes the
        duplicate bit load-bearing for downstream dedup reasoning.
        """
        return bool(self.duplicate_count or self.patch_count)

    @property
    def byte_size(self) -> int:
        """Nominal stored size in bytes, counting duplicates."""
        return self.total_rows * self.schema.row_byte_width

    @property
    def max_partition_rows(self) -> int:
        """Rows in the fullest partition (per-node storage/scan proxy)."""
        return max(partition.row_count for partition in self.partitions)

    # -- placement lookups ----------------------------------------------------

    def partitions_holding(
        self, columns: Sequence[str], keys: set
    ) -> dict[Hashable, list[int]]:
        """``{key: ascending partition ids}``: for each of *keys* that some
        partition stores (a duplicate copy counts) under *columns*, the
        partitions storing it.  Keys no partition stores are left out.

        This answers paper Section 2.3's partition-index probe from the
        stored key columns: one C-level ``keys.intersection`` per
        partition and nothing kept, so no write can leave it stale.
        """
        positions = self.schema.positions(columns)
        holding: dict[Hashable, list[int]] = {}
        for partition in self.partitions:
            partition_id = partition.partition_id
            for key in keys.intersection(partition.keys(positions)):
                holding.setdefault(key, []).append(partition_id)
        return holding

    # -- iteration -------------------------------------------------------------

    def all_rows(self) -> Iterator[Row]:
        """Iterate over every stored row copy, partition by partition."""
        for partition in self.partitions:
            yield from partition

    def canonical_rows(self) -> Iterator[Row]:
        """Iterate over one copy of every base tuple (dup bit == 0)."""
        for partition in self.partitions:
            yield from partition.canonical_rows()

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"PartitionedTable({self.name!r}, {self.scheme.kind.value}, "
            f"{self.partition_count} partitions, {self.total_rows} rows)"
        )


class PartitionedDatabase:
    """The partitioned database ``DP``: partitioned tables plus cluster size.

    The store also owns the derived state that is a function of keys
    alone: one routing memo per target count (:meth:`router`), shared by
    every query and server thread that reads it.
    """

    def __init__(self, partition_count: int) -> None:
        if partition_count < 1:
            raise StorageError("partition_count must be >= 1")
        self.partition_count = partition_count
        self._tables: dict[str, PartitionedTable] = {}
        self._routers: dict[int, KeyMemo] = {}

    def router(self, count: int) -> KeyMemo:
        """The memo routing a key to ``stable_hash(key) % count``
        (:func:`~repro.partitioning.scheme.hash_router`), one per *count*.

        A route is a pure function of the key, so the memo is never stale:
        writes do not touch it and it lives as long as the store (a
        repartitioned or migrated cluster gets a new store, and a new
        memo).  It is bounded by :data:`ROUTING_MEMO_KEYS` and cleared
        whole when a miss would pass that.  Threads share it unlocked — a
        race stores the same value twice, or clears early.
        """
        route = self._routers.get(count)
        if route is None:
            route = self._routers.setdefault(
                count, hash_router(count, ROUTING_MEMO_KEYS)
            )
        return route

    @property
    def routers(self) -> Mapping[int, KeyMemo]:
        """The routing memos built so far, by target count (a snapshot)."""
        return dict(self._routers)

    def add_table(self, table: PartitionedTable) -> PartitionedTable:
        """Register a partitioned table (partition counts must agree)."""
        if table.name in self._tables:
            raise StorageError(f"table {table.name!r} already partitioned")
        if table.partition_count != self.partition_count:
            raise StorageError(
                f"table {table.name!r} has {table.partition_count} partitions, "
                f"database has {self.partition_count}"
            )
        self._tables[table.name] = table
        return table

    def table(self, name: str) -> PartitionedTable:
        """Return the partitioned table called *name*."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownObjectError(f"no partitioned table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """Return ``True`` if *name* has been partitioned into this database."""
        return name in self._tables

    @property
    def tables(self) -> Mapping[str, PartitionedTable]:
        """Read-only view of the partitioned tables by name."""
        return dict(self._tables)

    @property
    def table_names(self) -> tuple[str, ...]:
        """All partitioned table names."""
        return tuple(self._tables)

    @property
    def total_rows(self) -> int:
        """Stored rows over all tables, counting duplicates (|DP|)."""
        return sum(table.total_rows for table in self._tables.values())

    @property
    def canonical_rows(self) -> int:
        """Distinct base tuples over all tables (should equal |D|)."""
        return sum(table.canonical_row_count for table in self._tables.values())

    def data_redundancy(self) -> float:
        """DR = |DP| / |D| - 1 (paper Section 3.3), with |D| = canonical rows."""
        base = self.canonical_rows
        if base == 0:
            return 0.0
        return self.total_rows / base - 1.0

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"PartitionedDatabase({len(self._tables)} tables, "
            f"{self.partition_count} partitions, {self.total_rows} rows)"
        )


class StagedCopies:
    """Row copies of one table, buffered per destination partition.

    Placement decides one row at a time, the column store wants batches:
    callers :meth:`add` copies (and :meth:`add_patch` capped overflow) as
    they are placed and :meth:`flush` once, which hands every partition
    its copies in one ``extend`` (in the order they were added) and
    appends the patch entries.  Nothing reaches the table before the
    flush.
    """

    __slots__ = ("_table", "_buffers", "_patches")

    def __init__(self, table: PartitionedTable) -> None:
        self._table = table
        self._buffers: list[tuple[list, list, list, list]] = [
            ([], [], [], []) for _ in table.partitions
        ]
        self._patches: list[tuple[int, Row, int]] = []

    def add(
        self,
        partition_id: int,
        row: Row,
        source_id: int,
        duplicate: bool = False,
        has_partner: bool = True,
    ) -> None:
        """Buffer one (copy of a) tuple for *partition_id*."""
        rows, source_ids, dup, partner = self._buffers[partition_id]
        rows.append(row)
        source_ids.append(source_id)
        dup.append(int(duplicate))
        partner.append(int(has_partner))

    def add_patch(self, partition_id: int, row: Row, source_id: int) -> None:
        """Buffer one patch-list entry (see ``PartitionedTable.add_patch``)."""
        self._patches.append((partition_id, row, source_id))

    def flush(self) -> list[list[Row]]:
        """Store everything buffered; returns the stored rows per partition.

        The buffers are handed over, not copied: flush once.
        """
        table = self._table
        for partition, buffers in zip(table.partitions, self._buffers):
            partition.extend(*buffers)
        for patch in self._patches:
            table.add_patch(*patch)
        return [buffers[0] for buffers in self._buffers]
