"""repro — PREF: locality-aware partitioning for parallel database systems.

A from-scratch reproduction of Zamanian, Binnig and Salama,
"Locality-aware Partitioning in Parallel Database Systems" (SIGMOD 2015):
the PREF partitioning scheme, query processing over PREF-partitioned tables
on a simulated shared-nothing cluster, bulk loading that routes each batch
by the partitions storing its keys (the paper's partition-index probe,
read from the stored key columns), and the schema-driven (SD) and
workload-driven (WD) automated partitioning design algorithms, evaluated
with TPC-H and TPC-DS style workloads.
"""

from repro.catalog import (
    Column,
    DatabaseSchema,
    DataType,
    ForeignKey,
    TableSchema,
)
from repro.partitioning import (
    BulkLoader,
    HashScheme,
    JoinPredicate,
    PartitioningConfig,
    PrefScheme,
    RangeScheme,
    ReplicatedScheme,
    RoundRobinScheme,
    partition_database,
)
from repro.storage import Database, PartitionedDatabase, Table

__version__ = "1.0.0"

__all__ = [
    "BulkLoader",
    "Column",
    "Database",
    "DatabaseSchema",
    "DataType",
    "ForeignKey",
    "HashScheme",
    "JoinPredicate",
    "PartitionedDatabase",
    "PartitioningConfig",
    "PrefScheme",
    "RangeScheme",
    "ReplicatedScheme",
    "RoundRobinScheme",
    "Table",
    "TableSchema",
    "partition_database",
    "__version__",
]
