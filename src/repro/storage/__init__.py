"""Storage: unpartitioned tables, columnar partitions, partition indexes."""

from repro.storage.partition import Partition
from repro.storage.partition_index import PartitionIndex
from repro.storage.partitioned import PartitionedDatabase, PartitionedTable
from repro.storage.table import Database, Table

__all__ = [
    "Database",
    "Partition",
    "PartitionIndex",
    "PartitionedDatabase",
    "PartitionedTable",
    "Table",
]
