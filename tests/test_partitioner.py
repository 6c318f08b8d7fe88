"""Tests for the partitioner, including the paper's Figure 2 example."""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from helpers import (
    all_hashed_config,
    patched_shop_config,
    pref_chain_config,
    ref_chain_config,
    shop_database,
    store_fingerprint,
)
from repro.catalog import DatabaseSchema, DataType
from repro.partitioning import (
    BulkLoader,
    BulkLoadStats,
    HashScheme,
    JoinPredicate,
    PartitioningConfig,
    PrefScheme,
    RangeScheme,
    ReplicatedScheme,
    RoundRobinScheme,
    check_pref_invariants,
    partition_database,
)
from repro.storage import Database


def figure2_database() -> Database:
    schema = DatabaseSchema()
    schema.create_table(
        "lineitem",
        [("linekey", DataType.INTEGER), ("orderkey", DataType.INTEGER)],
        primary_key=["linekey"],
    )
    schema.create_table(
        "orders",
        [("orderkey", DataType.INTEGER), ("custkey", DataType.INTEGER)],
        primary_key=["orderkey"],
    )
    schema.create_table(
        "customer",
        [("custkey", DataType.INTEGER), ("cname", DataType.VARCHAR)],
        primary_key=["custkey"],
    )
    database = Database(schema)
    database.load("lineitem", [(0, 1), (1, 4), (2, 1), (3, 2), (4, 3)])
    database.load("orders", [(1, 1), (2, 1), (3, 2), (4, 1)])
    database.load("customer", [(1, "A"), (2, "B"), (3, "C")])
    return database


class _ModuloHash(HashScheme):
    """Figure 2 uses linekey % 3; pin placement for the exact comparison."""

    def partition_of(self, key):
        return key % self.partition_count


def figure2_config() -> PartitioningConfig:
    config = PartitioningConfig(3)
    config.add("lineitem", _ModuloHash(("linekey",), 3))
    config.add(
        "orders",
        PrefScheme(
            "lineitem",
            JoinPredicate.equi("orders", "orderkey", "lineitem", "orderkey"),
        ),
    )
    config.add(
        "customer",
        PrefScheme(
            "orders",
            JoinPredicate.equi("customer", "custkey", "orders", "custkey"),
        ),
    )
    return config


class TestFigure2:
    """The worked example of paper Figure 2, reproduced exactly."""

    def test_lineitem_placement(self):
        partitioned = partition_database(figure2_database(), figure2_config())
        lineitem = partitioned.table("lineitem")
        assert lineitem.partitions[0].rows == [(0, 1), (3, 2)]
        assert lineitem.partitions[1].rows == [(1, 4), (4, 3)]
        assert lineitem.partitions[2].rows == [(2, 1)]

    def test_orders_duplicated_for_locality(self):
        partitioned = partition_database(figure2_database(), figure2_config())
        orders = partitioned.table("orders")
        assert sorted(orders.partitions[0].rows) == [(1, 1), (2, 1)]
        assert sorted(orders.partitions[1].rows) == [(3, 2), (4, 1)]
        assert orders.partitions[2].rows == [(1, 1)]
        # orderkey=1 is duplicated (partitions 0 and 2).
        assert orders.total_rows == 5
        assert orders.canonical_row_count == 4
        assert orders.duplicate_count == 1

    def test_customer_duplicated_and_orphan_placed(self):
        partitioned = partition_database(figure2_database(), figure2_config())
        customer = partitioned.table("customer")
        # Customer 1 has orders in every partition; customer 3 (no orders)
        # is assigned round-robin to partition 0.
        assert sorted(customer.partitions[0].rows) == [(1, "A"), (3, "C")]
        assert sorted(customer.partitions[1].rows) == [(1, "A"), (2, "B")]
        assert customer.partitions[2].rows == [(1, "A")]
        assert customer.total_rows == 5
        assert customer.canonical_row_count == 3

    def test_has_partner_bits(self):
        partitioned = partition_database(figure2_database(), figure2_config())
        customer = partitioned.table("customer")
        bits = {}
        for partition in customer.partitions:
            for index, row in enumerate(partition.rows):
                bits.setdefault(row[0], set()).add(
                    partition.has_partner[index]
                )
        assert bits[1] == {True}
        assert bits[2] == {True}
        assert bits[3] == {False}  # the orphan

    def test_seed_table_resolution(self):
        partitioned = partition_database(figure2_database(), figure2_config())
        assert partitioned.table("orders").seed_table == "lineitem"
        assert partitioned.table("customer").seed_table == "lineitem"
        assert partitioned.table("lineitem").seed_table == "lineitem"

    def test_invariants_hold_exactly(self):
        database = figure2_database()
        config = figure2_config()
        check_pref_invariants(
            partition_database(database, config), config, exact=True
        )


class TestPartitioner:
    def test_pref_chain_invariants(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        check_pref_invariants(partitioned, config, exact=True)

    def test_ref_chain_has_no_duplicates(self, shop_db):
        config = ref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        check_pref_invariants(partitioned, config, exact=True)
        # REF-like chains (referencing primary keys) never duplicate.
        assert partitioned.table("orders").duplicate_count == 0
        assert partitioned.table("lineitem").duplicate_count == 0

    def test_replicated_table_on_every_node(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        nation = partitioned.table("nation")
        for partition in nation.partitions:
            assert partition.row_count == shop_db.table("nation").row_count
        assert nation.canonical_row_count == shop_db.table("nation").row_count

    def test_every_base_tuple_stored(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        for name in config.tables:
            assert (
                partitioned.table(name).canonical_row_count
                == shop_db.table(name).row_count
            )

    def test_round_robin_scheme(self, shop_db):
        config = PartitioningConfig(4)
        config.add("nation", RoundRobinScheme(4))
        partitioned = partition_database(shop_db, config)
        sizes = [p.row_count for p in partitioned.table("nation").partitions]
        assert sum(sizes) == 4
        assert max(sizes) - min(sizes) <= 1

    def test_range_scheme(self, shop_db):
        config = PartitioningConfig(3)
        config.add("customer", RangeScheme("custkey", (5, 12)))
        partitioned = partition_database(shop_db, config)
        parts = partitioned.table("customer").partitions
        assert all(row[0] <= 5 for row in parts[0].rows)
        assert all(5 < row[0] <= 12 for row in parts[1].rows)
        assert all(row[0] > 12 for row in parts[2].rows)

    def test_effective_hash_for_ref_chain(self):
        from helpers import shop_database

        database = shop_database(seed=2, orphans=False)
        config = ref_chain_config(4)
        partitioned = partition_database(database, config)
        assert partitioned.table("orders").effective_hash == ("custkey",)
        # lineitem's chain maps custkey through orderkey: not expressible.
        assert partitioned.table("lineitem").effective_hash is None

    def test_effective_hash_disabled_by_orphans(self, shop_db):
        config = ref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        # shop_db has orphan orders placed round-robin, off the hash grid.
        assert partitioned.table("orders").effective_hash is None

    def test_effective_hash_absent_with_duplicates(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        # orders referencing lineitem on a non-unique key gets duplicates.
        assert partitioned.table("orders").effective_hash is None

    def test_partial_configuration(self, shop_db):
        config = PartitioningConfig(4)
        config.add("customer", HashScheme(("custkey",), 4))
        partitioned = partition_database(shop_db, config)
        assert partitioned.table_names == ("customer",)
        assert not partitioned.has_table("orders")


# -- pinned placement ---------------------------------------------------------
#
# tests/fixtures/placement_fingerprints.json was recorded while the
# partitioner and the bulk loader still had a placement routine each (see
# tests/fixtures/README.md); whatever places rows today must reproduce it.


def mixed_seeds_config(n: int = 4) -> PartitioningConfig:
    """RANGE seed with a PREF child, plus ROUND_ROBIN and REPLICATED."""
    config = PartitioningConfig(n)
    config.add("lineitem", RangeScheme("linekey", (49, 99, 149)))
    config.add(
        "orders",
        PrefScheme(
            "lineitem",
            JoinPredicate.equi("orders", "orderkey", "lineitem", "orderkey"),
        ),
    )
    config.add("customer", RoundRobinScheme(n))
    config.add("item", ReplicatedScheme(n))
    config.add("nation", ReplicatedScheme(n))
    return config


PINNED_CONFIGS = {
    "pref_chain": pref_chain_config,
    "ref_chain": ref_chain_config,
    "all_hashed": all_hashed_config,
    "patched": patched_shop_config,
    "mixed_seeds": mixed_seeds_config,
}
PINNED_SEEDS = (0, 7, 23)
PINNED_CASES = [
    f"{name}/{seed}" for name in PINNED_CONFIGS for seed in PINNED_SEEDS
]
FINGERPRINTS = Path(__file__).parent / "fixtures" / "placement_fingerprints.json"


def pinned_case(case: str):
    """``shop_database(seed)`` with NULLs knocked into the PREF key columns
    (orphans come with ``shop_database``; patched overflow with the cap)."""
    name, seed = case.split("/")
    database = shop_database(seed=int(seed))
    for table, position, step in (
        ("orders", 1, 9),
        ("lineitem", 1, 13),
        ("customer", 0, 10),
    ):
        rows = database.table(table).rows
        rows[:] = [
            row[:position] + (None,) + row[position + 1 :]
            if index % step == step - 1
            else row
            for index, row in enumerate(rows)
        ]
    return database, PINNED_CONFIGS[name](4)


def loaded_store(case: str, slices: int, maintain_referencing: bool):
    """An empty store bulk-loaded in *slices* rounds of one batch per table."""
    database, config = pinned_case(case)
    store = partition_database(Database(database.schema), config)
    loader = BulkLoader(store, config)
    stats = BulkLoadStats()
    for number in range(slices):
        batches = {}
        for table in config.tables:
            rows = database.table(table).rows
            size = -(-len(rows) // slices)
            batches[table] = rows[number * size : (number + 1) * size]
        stats.merge(
            loader.load(batches, maintain_referencing=maintain_referencing)
        )
    return store, config, asdict(stats)


def record_placements() -> dict:
    """What the fixture file holds, computed by the code under test."""
    recorded = {}
    for case in PINNED_CASES:
        store, _config, load_stats = loaded_store(case, 1, False)
        sliced, _config, two_slice_stats = loaded_store(case, 2, True)
        assert store_fingerprint(partition_database(*pinned_case(case))) == (
            store_fingerprint(store)
        )
        recorded[case] = {
            "store": store_fingerprint(store),
            "load_stats": load_stats,
            "two_slice_store": store_fingerprint(sliced),
            "two_slice_stats": two_slice_stats,
        }
    return recorded


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FINGERPRINTS.read_text())


@pytest.mark.parametrize("case", PINNED_CASES)
class TestPinnedPlacement:
    def test_partition_database_reproduces_the_fingerprint(self, pinned, case):
        database, config = pinned_case(case)
        partitioned = partition_database(database, config)
        assert store_fingerprint(partitioned) == pinned[case]["store"]
        check_pref_invariants(partitioned, config, exact=True)

    def test_bulk_load_into_an_empty_store_is_the_same_store(self, pinned, case):
        store, _config, stats = loaded_store(case, 1, False)
        assert store_fingerprint(store) == pinned[case]["store"]
        assert stats == pinned[case]["load_stats"]

    def test_two_slice_maintained_load(self, pinned, case):
        store, config, stats = loaded_store(case, 2, True)
        assert store_fingerprint(store) == pinned[case]["two_slice_store"]
        assert stats == pinned[case]["two_slice_stats"]
        check_pref_invariants(store, config, exact=True)
