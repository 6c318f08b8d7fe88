"""Direct tests for the invariant checkers and partitioning metrics."""

import pytest

from helpers import pref_chain_config
from repro.catalog import DataType
from repro.partitioning import (
    HashScheme,
    InvariantViolation,
    JoinPredicate,
    PartitioningConfig,
    PrefScheme,
    check_pref_invariants,
    data_redundancy,
    data_redundancy_against,
    partition_balance,
    partition_database,
    per_table_redundancy,
    storage_per_node,
)
from repro.storage import Database


def tiny_config(n=2):
    config = PartitioningConfig(n)
    config.add("s", HashScheme(("k",), n))
    config.add("r", PrefScheme("s", JoinPredicate.equi("r", "k", "s", "k")))
    return config


def tiny_db():
    from repro.catalog import DatabaseSchema

    schema = DatabaseSchema()
    schema.create_table("s", [("k", DataType.INTEGER)], primary_key=["k"])
    schema.create_table(
        "r", [("rk", DataType.INTEGER), ("k", DataType.INTEGER)], primary_key=["rk"]
    )
    database = Database(schema)
    database.load("s", [(1,), (2,), (3,)])
    database.load("r", [(10, 1), (11, 2), (12, 99)])  # 99 is an orphan
    return database


class TestInvariantChecker:
    def test_clean_partitioning_passes(self):
        database = tiny_db()
        config = tiny_config()
        check_pref_invariants(
            partition_database(database, config), config, exact=True
        )

    def test_missing_copy_detected(self):
        from repro.catalog import DatabaseSchema

        # Every s row carries k == 7 and s is hashed on its id, so both
        # partitions hold a partner of r's only tuple: it is stored twice.
        schema = DatabaseSchema()
        schema.create_table(
            "s", [("id", DataType.INTEGER), ("k", DataType.INTEGER)], primary_key=["id"]
        )
        schema.create_table(
            "r", [("rk", DataType.INTEGER), ("k", DataType.INTEGER)], primary_key=["rk"]
        )
        database = Database(schema)
        database.load("s", [(i, 7) for i in range(6)])
        database.load("r", [(10, 7)])
        config = PartitioningConfig(2)
        config.add("s", HashScheme(("id",), 2))
        config.add("r", PrefScheme("s", JoinPredicate.equi("r", "k", "s", "k")))
        partitioned = partition_database(database, config)
        check_pref_invariants(partitioned, config, exact=True)
        table = partitioned.table("r")
        assert [p.row_count for p in table.partitions] == [1, 1]
        # Corrupt: remove the duplicate copy although its partner is there.
        table.partitions[1].compress([False])
        assert table.total_rows == 1
        with pytest.raises(InvariantViolation, match="missing from"):
            check_pref_invariants(partitioned, config)

    def test_duplicate_canonical_detected(self):
        database = tiny_db()
        config = tiny_config()
        partitioned = partition_database(database, config)
        table = partitioned.table("r")
        # Append a second canonical copy of an existing tuple off-grid.
        source = table.partitions[0].source_ids[0] if table.partitions[0].rows else table.partitions[1].source_ids[0]
        row = table.partitions[0].rows[0] if table.partitions[0].rows else table.partitions[1].rows[0]
        table.partitions[0].append(row, source, duplicate=False)
        with pytest.raises(InvariantViolation):
            check_pref_invariants(partitioned, config)

    def test_wrong_has_partner_bit_detected(self):
        database = tiny_db()
        config = tiny_config()
        partitioned = partition_database(database, config)
        table = partitioned.table("r")
        for partition in table.partitions:
            if partition.row_count:
                partition.has_partner[0] = not partition.has_partner[0]
                break
        with pytest.raises(InvariantViolation):
            check_pref_invariants(partitioned, config)

    def test_exact_mode_flags_stray_copies(self):
        database = tiny_db()
        config = tiny_config()
        partitioned = partition_database(database, config)
        table = partitioned.table("r")
        # Add a redundant (duplicate-flagged) copy in a partition without
        # a partner: locality still holds, exactness does not.
        donor = next(p for p in table.partitions if p.row_count)
        row = donor.rows[0]
        source = donor.source_ids[0]
        target = next(
            p for p in table.partitions if p.partition_id != donor.partition_id
        )
        target.append(row, source, duplicate=True, has_partner=True)
        check_pref_invariants(partitioned, config, exact=False)
        with pytest.raises(InvariantViolation):
            check_pref_invariants(partitioned, config, exact=True)


class TestMetrics:
    def test_per_table_redundancy(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        report = {r.table: r for r in per_table_redundancy(partitioned)}
        assert report["lineitem"].redundancy_factor == 1.0
        assert report["nation"].redundancy_factor == 4.0
        assert report["orders"].redundancy_factor >= 1.0

    def test_data_redundancy_against_base(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        assert data_redundancy_against(partitioned, shop_db) == pytest.approx(
            data_redundancy(partitioned)
        )

    def test_partition_balance(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        balance = partition_balance(partitioned.table("lineitem"))
        assert 1.0 <= balance < 2.0  # hash placement is roughly even

    def test_storage_per_node(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        per_node = storage_per_node(partitioned)
        assert len(per_node) == 4
        assert all(bytes_ > 0 for bytes_ in per_node)
        total = sum(
            t.total_rows * t.schema.row_byte_width
            for t in partitioned.tables.values()
        )
        assert sum(per_node) == total
