"""Re-partitioning migration plans: what switching designs would cost.

A partitioning library is adopted incrementally: a cluster already running
one configuration (say classical partitioning) wants to know what moving to
an SD/WD design costs before committing.  :func:`plan_migration` compares
the physical placements of two configurations and reports, per table, how
many row copies must be shipped to other nodes, how many can stay in place,
and how many existing copies are simply dropped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.partitioning.config import PartitioningConfig
from repro.partitioning.partitioner import partition_database
from repro.storage.partitioned import PartitionedDatabase
from repro.storage.table import Database


@dataclass(frozen=True)
class TableMigration:
    """Placement delta of one table between two configurations.

    Attributes:
        table: Table name.
        copies_before: Row copies stored under the old configuration.
        copies_after: Row copies stored under the new configuration.
        copies_kept: Copies already on the right node (no movement).
        copies_moved: Copies that must be shipped to a node that does not
            hold them yet.
        copies_dropped: Old copies that no longer exist afterwards.
        bytes_moved: Nominal bytes shipped for this table.
        bytes_moved_by_node: Bytes arriving at each destination node
            (index = node id); drives the parallel-transfer time model.
    """

    table: str
    copies_before: int
    copies_after: int
    copies_kept: int
    copies_moved: int
    copies_dropped: int
    bytes_moved: int
    bytes_moved_by_node: tuple[int, ...] = ()


@dataclass
class MigrationPlan:
    """Aggregate movement cost of switching partitioning configurations."""

    tables: dict[str, TableMigration] = field(default_factory=dict)

    @property
    def copies_moved(self) -> int:
        """Total row copies shipped across nodes."""
        return sum(m.copies_moved for m in self.tables.values())

    @property
    def copies_kept(self) -> int:
        """Total row copies that stay in place."""
        return sum(m.copies_kept for m in self.tables.values())

    @property
    def bytes_moved(self) -> int:
        """Total nominal bytes shipped."""
        return sum(m.bytes_moved for m in self.tables.values())

    @property
    def moved_fraction(self) -> float:
        """Moved copies / target copies (0 = in-place, 1 = full reload)."""
        total_after = sum(m.copies_after for m in self.tables.values())
        if total_after == 0:
            return 0.0
        return self.copies_moved / total_after

    @property
    def bytes_moved_by_node(self) -> tuple[int, ...]:
        """Bytes arriving at each destination node, summed over tables."""
        per_node: list[int] = []
        for migration in self.tables.values():
            for node, byte_count in enumerate(migration.bytes_moved_by_node):
                while len(per_node) <= node:
                    per_node.append(0)
                per_node[node] += byte_count
        return tuple(per_node)

    def simulated_seconds(
        self,
        network_bandwidth_bytes: float = 300e6,
        row_scale: float = 1.0,
        parallelism: int | None = None,
    ) -> float:
        """Simulated migration time (network-bound bulk movement).

        Destination nodes ingest in parallel, each over its own link, so
        the default wall clock is the *max* per-destination-node bytes
        over the bandwidth (never less than total/parallelism when a
        smaller ``parallelism`` caps the concurrent transfers).
        ``parallelism=1`` recovers the historical serialized figure
        (all bytes charged to a single link).
        """
        if parallelism is not None and parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        per_node = self.bytes_moved_by_node
        if parallelism is None:
            parallelism = max(1, len([b for b in per_node if b]))
        bottleneck = max(
            max(per_node, default=0), self.bytes_moved / parallelism
        )
        return bottleneck * row_scale / network_bandwidth_bytes


def plan_migration(
    database: Database,
    old_config: PartitioningConfig,
    new_config: PartitioningConfig,
    old_partitioned: PartitionedDatabase | None = None,
    new_partitioned: PartitionedDatabase | None = None,
) -> MigrationPlan:
    """Compare the placements of two configurations over *database*.

    Copies are matched per (node, row-value) multiset: a copy counts as
    *kept* if the same row value is already stored on the same node under
    the old configuration.  Tables absent from the old configuration are
    fully loaded (every copy moves); tables absent from the new one are
    fully dropped.

    The cluster sizes may differ (the adaptive loop's scale-out/scale-in
    case): placements are matched over the shared node prefix; copies
    destined for new nodes all move, and copies on removed nodes are
    dropped.
    """
    return compare_placements(
        old_partitioned or partition_database(database, old_config),
        new_partitioned or partition_database(database, new_config),
    )


def compare_placements(
    old_dp: PartitionedDatabase, new_dp: PartitionedDatabase
) -> MigrationPlan:
    """The migration plan between two stores of the same logical rows."""
    node_span = max(old_dp.partition_count, new_dp.partition_count)
    plan = MigrationPlan()
    for table in sorted(set(old_dp.table_names) | set(new_dp.table_names)):
        old_counts = _placements(old_dp, table)
        new_counts = _placements(new_dp, table)
        holder = new_dp if new_dp.has_table(table) else old_dp
        width = holder.table(table).schema.row_byte_width
        kept = 0
        moved = 0
        moved_bytes_by_node = [0] * new_dp.partition_count
        for node in range(node_span):
            old_here = old_counts.get(node, Counter())
            new_here = new_counts.get(node, Counter())
            overlap = sum((old_here & new_here).values())
            kept += overlap
            moved_here = sum(new_here.values()) - overlap
            moved += moved_here
            if moved_here and node < new_dp.partition_count:
                moved_bytes_by_node[node] = moved_here * width
        before = sum(sum(c.values()) for c in old_counts.values())
        after = sum(sum(c.values()) for c in new_counts.values())
        plan.tables[table] = TableMigration(
            table=table,
            copies_before=before,
            copies_after=after,
            copies_kept=kept,
            copies_moved=moved,
            copies_dropped=before - kept,
            bytes_moved=moved * width,
            bytes_moved_by_node=tuple(moved_bytes_by_node),
        )
    return plan


def _placements(
    partitioned: PartitionedDatabase, table: str
) -> dict[int, Counter]:
    """Per-node multisets of row values for *table* (empty if absent)."""
    if not partitioned.has_table(table):
        return {}
    result: dict[int, Counter] = {}
    for partition in partitioned.table(table).partitions:
        result[partition.partition_id] = Counter(partition.rows)
    return result
