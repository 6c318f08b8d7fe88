"""Storage: unpartitioned tables, columnar partitions, partitioned tables."""

from repro.storage.partition import Partition
from repro.storage.partitioned import PartitionedDatabase, PartitionedTable
from repro.storage.table import Database, Table

__all__ = [
    "Database",
    "Partition",
    "PartitionedDatabase",
    "PartitionedTable",
    "Table",
]
