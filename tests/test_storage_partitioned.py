"""Tests for partitions and partitioned tables."""

import pickle

import pytest

from repro.catalog import Column, DataType, TableSchema
from repro.errors import RowShapeError, StorageError
from repro.partitioning import HashScheme
from repro.storage import PartitionedDatabase, PartitionedTable


def make_table(n: int = 3) -> PartitionedTable:
    schema = TableSchema(
        "t",
        [Column("k", DataType.INTEGER), Column("v", DataType.VARCHAR)],
        primary_key=["k"],
    )
    return PartitionedTable(schema, HashScheme(("k",), n), n)


class TestPartition:
    def test_append_tracks_bitmaps(self):
        table = make_table()
        partition = table.partitions[0]
        partition.append((1, "a"), source_id=0, duplicate=False, has_partner=True)
        partition.append((1, "a"), source_id=0, duplicate=True, has_partner=True)
        partition.append((2, "b"), source_id=1, duplicate=False, has_partner=False)
        assert partition.row_count == 3
        assert partition.duplicate_count == 1
        assert list(partition.canonical_rows()) == [(1, "a"), (2, "b")]
        assert partition.dup == [0, 1, 0]
        assert partition.has_partner == [1, 1, 0]

    def test_stores_exactly_five_fields(self):
        """Columns are the stored form: five stored fields, one derived
        index, which starts absent (and a write keeps at most its NULL
        flags), and a count of the writes."""
        partition = make_table().partitions[0]
        assert partition.__slots__ == (
            "partition_id", "columns", "source_ids", "dup", "has_partner",
            "key_index", "writes",
        )
        assert not hasattr(partition, "__dict__")
        assert partition.key_index is None
        assert partition.writes == 0

    def test_extend_stores_columns_and_rows_is_a_view(self):
        partition = make_table().partitions[1]
        partition.extend([(1, "a"), (2, None)], [7, 8], [0, 1], [1, 0])
        assert partition.columns == [[1, 2], ["a", None]]
        assert partition.source_ids == [7, 8]
        assert partition.rows == [(1, "a"), (2, None)]
        assert partition.row(1) == (2, None)
        assert partition.keys((0,)) is partition.columns[0]
        assert partition.keys((1, 0)) == [("a", 1), (None, 2)]
        partition.rows.append((3, "c"))  # a throwaway list, not the store
        assert partition.row_count == 2

    def test_compress_set_row_and_has_partner_bit(self):
        partition = make_table().partitions[0]
        partition.extend(
            [(1, "a"), (2, "b"), (3, "c")], [0, 1, 2], [0, 1, 0], [1, 1, 0]
        )
        partition.compress([True, False, True])
        assert partition.rows == [(1, "a"), (3, "c")]
        assert (partition.source_ids, partition.dup, partition.has_partner) == (
            [0, 2], [0, 0], [1, 0]
        )
        partition.set_row(1, (3, "z"))
        assert partition.rows == [(1, "a"), (3, "z")]
        assert partition.has_partner == [1, 0]
        with pytest.raises(RowShapeError):
            partition.set_row(0, (1,))

    def test_ragged_batch_rejected_whole(self):
        partition = make_table().partitions[0]
        for bad in ([(1, "a"), (2,)], [(1, "a", "x")]):
            with pytest.raises(RowShapeError):
                partition.extend(bad, [0] * len(bad), [0] * len(bad), [1] * len(bad))
        assert partition.row_count == 0
        assert partition.columns == [[], []]

    def test_default_pickling_round_trips(self):
        partition = make_table().partitions[2]
        partition.extend([(1, "a"), (2, None)], [0, 1], [0, 1], [1, 0])
        clone = pickle.loads(pickle.dumps(partition))
        assert "__getstate__" not in vars(type(partition))
        for field in partition.__slots__:
            assert getattr(clone, field) == getattr(partition, field)


class TestPartitionedTable:
    def test_row_accounting(self):
        table = make_table()
        table.partitions[0].append((1, "a"), 0)
        table.partitions[1].append((1, "a"), 0, duplicate=True)
        table.partitions[2].append((2, "b"), 1)
        assert table.total_rows == 3
        assert table.duplicate_count == 1
        assert table.canonical_row_count == 2
        assert table.max_partition_rows == 1
        assert sorted(table.canonical_rows()) == [(1, "a"), (2, "b")]

    def test_partitions_holding_reads_the_stored_keys(self):
        table = make_table()
        table.partitions[2].append((1, "a"), 0, duplicate=True)
        table.partitions[0].extend(
            [(1, "a"), (1, "b"), (2, "c")], [0, 1, 2], [0, 0, 0], [1, 1, 1]
        )
        assert table.partitions_holding(["k"], {1, 2, 99}) == {
            1: [0, 2],  # ascending, a duplicate copy counts, once a partition
            2: [0],
        }
        assert table.partitions_holding(["k", "v"], {(1, "b"), (1, "z")}) == {
            (1, "b"): [0]
        }
        # Nothing is kept: the next call reads the partitions as they are.
        table.partitions[0].compress([False, True, True])
        table.partitions[1].append((1, "d"), 3)
        assert table.partitions_holding(["k"], {1}) == {1: [0, 1, 2]}
        table.partitions[0].set_row(0, (5, "b"))
        assert table.partitions_holding(["k"], {1, 5}) == {1: [1, 2], 5: [0]}
        assert table.partitions_holding(["k"], set()) == {}

    def test_source_id_allocation(self):
        table = make_table()
        assert table.allocate_source_id() == 0
        assert table.allocate_source_id() == 1

    def test_byte_size(self):
        table = make_table()
        table.partitions[0].append((1, "a"), 0)
        assert table.byte_size == table.schema.row_byte_width


class TestPartitionedDatabase:
    def test_mismatched_counts_rejected(self):
        database = PartitionedDatabase(4)
        with pytest.raises(StorageError):
            database.add_table(make_table(3))

    def test_duplicate_table_rejected(self):
        database = PartitionedDatabase(3)
        database.add_table(make_table(3))
        with pytest.raises(StorageError):
            database.add_table(make_table(3))

    def test_redundancy_zero_without_duplicates(self):
        database = PartitionedDatabase(3)
        table = make_table(3)
        table.partitions[0].append((1, "a"), 0)
        table.partitions[1].append((2, "b"), 1)
        database.add_table(table)
        assert database.data_redundancy() == 0.0

    def test_redundancy_counts_duplicates(self):
        database = PartitionedDatabase(3)
        table = make_table(3)
        table.partitions[0].append((1, "a"), 0)
        table.partitions[1].append((1, "a"), 0, duplicate=True)
        database.add_table(table)
        assert database.data_redundancy() == pytest.approx(1.0)
