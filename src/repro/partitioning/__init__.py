"""Partitioning: schemes (incl. PREF), configurations, partitioner, loader."""

from repro.partitioning.bulk_loader import BulkLoader, BulkLoadStats
from repro.partitioning.config import PartitioningConfig
from repro.partitioning.invariants import InvariantViolation, check_pref_invariants
from repro.partitioning.migration import MigrationPlan, TableMigration, plan_migration
from repro.partitioning.metrics import (
    data_redundancy,
    data_redundancy_against,
    partition_balance,
    per_table_redundancy,
    storage_per_node,
)
from repro.partitioning.partitioner import empty_store, partition_database
from repro.partitioning.predicate import JoinPredicate
from repro.partitioning.adaptive import (
    AdaptiveReport,
    AdaptiveThresholds,
    TableHotspot,
    detect_hotspots,
    recommend_patched_pref,
)
from repro.partitioning.scheme import (
    HashScheme,
    PartitioningScheme,
    PatchedPrefScheme,
    PrefScheme,
    RangeScheme,
    ReplicatedScheme,
    RoundRobinScheme,
    SchemeKind,
    stable_hash,
)

__all__ = [
    "AdaptiveReport",
    "AdaptiveThresholds",
    "BulkLoader",
    "BulkLoadStats",
    "HashScheme",
    "InvariantViolation",
    "JoinPredicate",
    "MigrationPlan",
    "PartitioningConfig",
    "PartitioningScheme",
    "PatchedPrefScheme",
    "PrefScheme",
    "RangeScheme",
    "ReplicatedScheme",
    "RoundRobinScheme",
    "SchemeKind",
    "TableHotspot",
    "TableMigration",
    "check_pref_invariants",
    "data_redundancy",
    "data_redundancy_against",
    "detect_hotspots",
    "empty_store",
    "partition_balance",
    "partition_database",
    "plan_migration",
    "per_table_redundancy",
    "recommend_patched_pref",
    "stable_hash",
    "storage_per_node",
]
