"""Applies a :class:`PartitioningConfig` to rows (paper Definition 1).

Seed schemes place each tuple exactly once.  PREF places a copy of every
referencing tuple into each partition that holds at least one partitioning
partner in the referenced table (condition (1) of Definition 1) and deals
partner-less tuples round-robin (condition (2)).  The ``dup`` and ``hasS``
bitmap indexes of Section 2.1 are maintained during placement.

:func:`place_rows` is the one routine that turns rows into placed copies.
It does not care where the rows come from: :func:`partition_database`
feeds it the tables of a :class:`Database`, the bulk loader a load batch
(Section 2.3 — the partition-index probe *is* condition (1), answered
from the referenced table's stored key columns) and the referencing
tuples that batch partners, taken out to be placed again, and online
repartitioning the canonical rows of the store being replaced.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.catalog.schema import DatabaseSchema
from repro.errors import PartitioningError
from repro.partitioning.config import PartitioningConfig
from repro.partitioning.scheme import (
    HashScheme,
    PatchedPrefScheme,
    PrefScheme,
    RangeScheme,
    ReplicatedScheme,
    RoundRobinScheme,
    key_has_null,
    stable_hash,
)
from repro.storage.partition import row_key
from repro.storage.partitioned import (
    PartitionedDatabase,
    PartitionedTable,
    StagedCopies,
)
from repro.storage.table import Database

Row = tuple


def empty_store(
    schema: DatabaseSchema, config: PartitioningConfig
) -> PartitionedDatabase:
    """A store holding every table of *config*, with no rows yet.

    Tables are added in dependency order, so every PREF-referenced table
    precedes the tables referencing it.
    """
    config.validate(schema)
    store = PartitionedDatabase(config.partition_count)
    for table in config.load_order():
        store.add_table(
            PartitionedTable(
                schema.table(table),
                config.scheme_of(table),
                config.partition_count,
                seed_table=config.seed_of(table),
            )
        )
    return store


def partition_database(
    database: Database,
    config: PartitioningConfig,
) -> PartitionedDatabase:
    """Partition *database* according to *config*.

    Args:
        database: The unpartitioned database ``D``.
        config: A validated partitioning configuration covering a subset of
            the database's tables; tables not in the configuration are left
            out of the result.

    Returns:
        The partitioned database ``DP``.
    """
    return partition_rows(
        database.schema, config, lambda table: database.table(table).rows
    )


def partition_rows(
    schema: DatabaseSchema,
    config: PartitioningConfig,
    rows_of: Callable[[str], Iterable[Row]],
) -> PartitionedDatabase:
    """An empty store for *config*, bulk-loaded with ``rows_of(table)``.

    Tables are placed in dependency order, so a PREF table finds its
    referenced table complete.
    """
    store = empty_store(schema, config)
    for table in store.tables.values():
        place_rows(table, store, rows_of(table.name))
        if table.is_pref:
            table.effective_hash = _verified_effective_hash(table, config)
    return store


def place_rows(
    target: PartitionedTable,
    partitioned: PartitionedDatabase,
    rows: Iterable[Row],
    cursor: int = 0,
) -> tuple[list[list[Row]], int, int]:
    """Place *rows* (new base tuples, as tuples) into *target*.

    The scheme is looked at once per batch; the copies are staged and
    reach the partitions and the patch lists together at the end, so a
    batch that raises part-way stores nothing.

    Args:
        target: The table of *partitioned* receiving the rows.
        partitioned: The store; a PREF *target* looks its batch's keys up
            in the stored key columns of its referenced table in here
            (:meth:`~repro.storage.partitioned.PartitionedTable.
            partitions_holding`, once per batch), which must already hold
            the partners (Section 2.3).
        rows: The base tuples, each of the table's arity.
        cursor: Partition the next round-robin tuple (ROUND_ROBIN scheme,
            PREF orphan) goes to; pass what the previous batch returned.

    Returns:
        ``(stored, index_lookups, cursor)``: the copies stored, per
        partition in stored order; the partition-index probes made (one
        per non-NULL PREF key); and the round-robin cursor after the
        batch.
    """
    scheme = target.scheme
    count = target.partition_count
    staged = StagedCopies(target)
    add = staged.add
    allocate = target.allocate_source_id
    index_lookups = 0
    if isinstance(scheme, (HashScheme, RangeScheme)):
        extract = row_key(target.schema.positions(scheme.columns))
        partition_of = scheme.partition_of
        for row in rows:
            add(partition_of(extract(row)), row, allocate())
    elif isinstance(scheme, RoundRobinScheme):
        for row in rows:
            add(cursor, row, allocate())
            cursor = (cursor + 1) % count
    elif isinstance(scheme, ReplicatedScheme):
        for row in rows:
            source_id = allocate()
            for partition_id in range(count):
                # The copy on partition 0 is the canonical one.
                add(partition_id, row, source_id, partition_id != 0)
    elif isinstance(scheme, PrefScheme):
        extract = row_key(
            target.schema.positions(scheme.referencing_columns(target.name))
        )
        rows = list(rows)
        keys = list(map(extract, rows))
        # A NULL key never matches a partner, so it is not probed.
        probed = [key for key in keys if not key_has_null(key)]
        index_lookups = len(probed)
        # Ascending partition ids, shared by every row with the key.
        partitions_of = partitioned.table(
            scheme.referenced_table
        ).partitions_holding(scheme.referenced_columns, set(probed)).get
        # Plain PREF: a cap of every partition, which no tuple exceeds.
        max_copies = (
            scheme.max_copies if isinstance(scheme, PatchedPrefScheme) else count
        )
        for row, key in zip(rows, keys):
            source_id = allocate()
            placed = partitions_of(key)
            if placed:
                # Condition (1): a copy into every partition with a partner.
                # The lowest partition id holds the canonical copy (dup = 0).
                # Patched PREF stores only the max_copies lowest-id copies;
                # the rest go to the patch list for the residual shuffle.
                if len(placed) > max_copies:
                    for partition_id in placed[max_copies:]:
                        staged.add_patch(partition_id, row, source_id)
                    placed = placed[:max_copies]
                for rank, partition_id in enumerate(placed):
                    add(partition_id, row, source_id, rank > 0)
            else:
                # Condition (2): partner-less tuples are dealt round-robin.
                add(cursor, row, source_id, has_partner=False)
                cursor = (cursor + 1) % count
    else:  # pragma: no cover - exhaustive over scheme types
        raise PartitioningError(f"unsupported scheme: {scheme!r}")
    return staged.flush(), index_lookups, cursor


def _derived_hash_columns(
    table_name: str, config: PartitioningConfig
) -> tuple[str, ...] | None:
    """Columns of *table_name* that compose to the seed's hash key.

    Walks the PREF chain from the seed downwards; at every hop each tracked
    column must appear in the hop's partitioning predicate on the
    referenced side, and is replaced by its referencing-side counterpart.
    """
    chain = config.chain_to_seed(table_name)
    if not chain:
        return None
    seed = chain[-1][0]
    seed_scheme = config.scheme_of(seed)
    if not isinstance(seed_scheme, HashScheme):
        return None
    columns = list(seed_scheme.columns)
    # chain[i] = (referenced table, predicate); the referencing table of
    # hop i is chain[i-1]'s referenced table (or table_name for hop 0).
    hops = list(enumerate(chain))
    for index, (referenced, predicate) in reversed(hops):
        referencing = chain[index - 1][0] if index > 0 else table_name
        referenced_columns = predicate.columns_of(referenced)
        referencing_columns = predicate.columns_of(referencing)
        mapped = []
        for column in columns:
            try:
                position = referenced_columns.index(column)
            except ValueError:
                return None
            mapped.append(referencing_columns[position])
        columns = mapped
    return tuple(columns)


def _verified_effective_hash(
    table: PartitionedTable, config: PartitioningConfig
) -> tuple[str, ...] | None:
    """Derive and verify effective hash placement for a PREF table.

    Verification checks that every base tuple is stored exactly once, in
    exactly the partition its derived hash key selects (round-robin
    orphans or duplicate copies disqualify the table).
    """
    columns = _derived_hash_columns(table.name, config)
    if columns is None:
        return None
    if table.duplicate_count or table.patch_count:
        return None
    count = table.partition_count
    positions = table.schema.positions(columns)
    for partition in table.partitions:
        for key in partition.keys(positions):
            if stable_hash(key) % count != partition.partition_id:
                return None
    return columns
