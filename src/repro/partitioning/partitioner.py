"""Applies a :class:`PartitioningConfig` to a database (paper Definition 1).

Seed schemes place each tuple exactly once.  PREF places a copy of every
referencing tuple into each partition that holds at least one partitioning
partner in the referenced table (condition (1) of Definition 1) and deals
partner-less tuples round-robin (condition (2)).  The ``dup`` and ``hasS``
bitmap indexes of Section 2.1 are maintained during placement.
"""

from __future__ import annotations

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
from repro.storage.table import Database, Table


def partition_database(
    database: Database,
    config: PartitioningConfig,
) -> PartitionedDatabase:
    """Partition *database* according to *config*.

    Tables are processed in dependency order so that every PREF-referenced
    table is materialised (and its partition index can be built) before the
    tables referencing it.

    Args:
        database: The unpartitioned database ``D``.
        config: A validated partitioning configuration covering a subset of
            the database's tables; tables not in the configuration are left
            out of the result.

    Returns:
        The partitioned database ``DP``.
    """
    config.validate(database.schema)
    partitioned = PartitionedDatabase(config.partition_count)
    for table_name in config.load_order():
        base_table = database.table(table_name)
        scheme = config.scheme_of(table_name)
        seed = config.seed_of(table_name)
        partitioned_table = PartitionedTable(
            base_table.schema,
            scheme,
            config.partition_count,
            seed_table=seed,
        )
        partitioned.add_table(partitioned_table)
        _place_rows(base_table, partitioned_table, partitioned)
        if isinstance(scheme, PrefScheme):
            partitioned_table.effective_hash = _verified_effective_hash(
                partitioned_table, config
            )
    return partitioned


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


def _place_rows(
    base_table: Table,
    target: PartitionedTable,
    partitioned: PartitionedDatabase,
) -> None:
    """Distribute the rows of *base_table* into *target*'s partitions."""
    scheme = target.scheme
    staged = StagedCopies(target)
    if isinstance(scheme, (HashScheme, RangeScheme)):
        _place_by_key(base_table, target, staged)
    elif isinstance(scheme, RoundRobinScheme):
        _place_round_robin(base_table, target, staged)
    elif isinstance(scheme, ReplicatedScheme):
        _place_replicated(base_table, target, staged)
    elif isinstance(scheme, PrefScheme):
        _place_pref(base_table, target, partitioned, staged)
    else:  # pragma: no cover - exhaustive over scheme types
        raise PartitioningError(f"unsupported scheme: {scheme!r}")
    staged.flush()


def _place_by_key(
    base_table: Table, target: PartitionedTable, staged: StagedCopies
) -> None:
    scheme = target.scheme
    extract = row_key(base_table.schema.positions(scheme.columns))
    for row in base_table.rows:
        source_id = target.allocate_source_id()
        staged.add(scheme.partition_of(extract(row)), row, source_id)


def _place_round_robin(
    base_table: Table, target: PartitionedTable, staged: StagedCopies
) -> None:
    count = target.partition_count
    for index, row in enumerate(base_table.rows):
        source_id = target.allocate_source_id()
        staged.add(index % count, row, source_id)


def _place_replicated(
    base_table: Table, target: PartitionedTable, staged: StagedCopies
) -> None:
    for row in base_table.rows:
        source_id = target.allocate_source_id()
        for partition_id in range(target.partition_count):
            # The copy on partition 0 is the canonical one.
            staged.add(partition_id, row, source_id, duplicate=partition_id != 0)


def _place_pref(
    base_table: Table,
    target: PartitionedTable,
    partitioned: PartitionedDatabase,
    staged: StagedCopies,
) -> None:
    scheme = target.scheme
    assert isinstance(scheme, PrefScheme)
    referenced = partitioned.table(scheme.referenced_table)
    index = referenced.partition_index(scheme.referenced_columns)
    extract = row_key(
        base_table.schema.positions(scheme.referencing_columns(target.name))
    )
    max_copies = (
        scheme.max_copies if isinstance(scheme, PatchedPrefScheme) else None
    )
    round_robin_cursor = 0
    for row in base_table.rows:
        source_id = target.allocate_source_id()
        key = extract(row)
        partitions = (
            frozenset() if key_has_null(key) else index.partitions_of(key)
        )
        if partitions:
            # Condition (1): a copy into every partition with a partner.
            # The lowest partition id holds the canonical copy (dup = 0).
            # Patched PREF stores only the max_copies lowest-id copies;
            # the rest go to the patch list for the residual shuffle.
            placed = sorted(partitions)
            if max_copies is not None and len(placed) > max_copies:
                for partition_id in placed[max_copies:]:
                    target.add_patch(partition_id, tuple(row), source_id)
                placed = placed[:max_copies]
            for rank, partition_id in enumerate(placed):
                staged.add(partition_id, row, source_id, duplicate=rank > 0)
        else:
            # Condition (2): partner-less tuples are dealt round-robin.
            staged.add(round_robin_cursor, row, source_id, has_partner=False)
            round_robin_cursor = (round_robin_cursor + 1) % target.partition_count
