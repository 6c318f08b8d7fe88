"""Tests for incremental bulk loading (paper Section 2.3)."""

import pytest

from helpers import (
    patched_shop_config,
    pref_chain_config,
    ref_chain_config,
    shop_database,
    shop_schema,
    store_state,
)
from repro.errors import BulkLoadError
from repro.partitioning import (
    BulkLoader,
    check_pref_invariants,
    partition_database,
)
from repro.query import Executor
from repro.sql.planner import sql_to_plan
from repro.storage import Database


def empty_shop() -> Database:
    return Database(shop_schema())


def line_partitions(partitioned, orderkey) -> list[int]:
    """The partitions storing a lineitem of *orderkey*, read off the
    stored column rather than through any lookup routine."""
    return [
        partition.partition_id
        for partition in partitioned.table("lineitem").partitions
        if orderkey in partition.columns[1]
    ]


def order_copies(partitioned, orderkey) -> list[tuple[int, int, int]]:
    """``(partition id, dup, hasS)`` of every stored copy of *orderkey*."""
    return [
        (partition.partition_id, dup, has_partner)
        for partition in partitioned.table("orders").partitions
        for key, dup, has_partner in zip(
            partition.columns[0], partition.dup, partition.has_partner
        )
        if key == orderkey
    ]


class TestInserts:
    def test_insert_into_seed_table(self):
        database = empty_shop()
        config = pref_chain_config(4)
        partitioned = partition_database(database, config)
        loader = BulkLoader(partitioned, config)
        stats = loader.insert("lineitem", [(i, i % 3, i % 2, 1) for i in range(20)])
        assert stats.rows_in == 20
        assert stats.copies_written == 20
        assert partitioned.table("lineitem").total_rows == 20

    def test_pref_insert_uses_partition_index(self):
        database = empty_shop()
        config = pref_chain_config(4)
        partitioned = partition_database(database, config)
        loader = BulkLoader(partitioned, config)
        loader.insert("lineitem", [(0, 1, 0, 1), (1, 1, 0, 1), (2, 2, 0, 1)])
        stats = loader.insert("orders", [(1, 5, 10.0), (2, 6, 20.0)])
        assert stats.index_lookups == 2
        check_pref_invariants(partitioned, config)

    def test_pref_insert_duplicates_across_partitions(self):
        database = empty_shop()
        config = pref_chain_config(4)
        partitioned = partition_database(database, config)
        loader = BulkLoader(partitioned, config)
        # Put lineitems of order 7 into several partitions by choosing
        # linekeys that hash apart.
        loader.insert("lineitem", [(i, 7, 0, 1) for i in range(8)])
        line_partitions = {
            p.partition_id
            for p in partitioned.table("lineitem").partitions
            if p.row_count
        }
        stats = loader.insert("orders", [(7, 1, 5.0)])
        assert stats.copies_written == len(line_partitions)
        check_pref_invariants(partitioned, config)

    def test_orphan_insert_goes_round_robin(self):
        database = empty_shop()
        config = pref_chain_config(4)
        partitioned = partition_database(database, config)
        loader = BulkLoader(partitioned, config)
        stats = loader.insert("orders", [(99, 1, 1.0), (98, 1, 1.0)])
        assert stats.copies_written == 2
        orders = partitioned.table("orders")
        assert orders.total_rows == 2
        for partition in orders.partitions:
            for index in range(partition.row_count):
                assert not partition.has_partner[index]

    def test_replicated_insert_goes_everywhere(self):
        database = empty_shop()
        config = pref_chain_config(4)
        partitioned = partition_database(database, config)
        loader = BulkLoader(partitioned, config)
        stats = loader.insert("nation", [(1, "nowhere")])
        assert stats.copies_written == 4
        assert partitioned.table("nation").total_rows == 4
        assert partitioned.table("nation").canonical_row_count == 1

    def test_load_batches_in_fk_order(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(Database(shop_schema()), config)
        loader = BulkLoader(partitioned, config)
        batches = {
            name: list(shop_db.table(name).rows) for name in config.tables
        }
        stats = loader.load(batches)
        assert stats.rows_in == shop_db.total_rows
        check_pref_invariants(partitioned, config)


    def test_load_rejects_unknown_tables_before_any_write(self, shop_db):
        """A batch keyed by a table the config lacks used to be dropped
        without a word."""
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        loader = BulkLoader(partitioned, config)
        before = store_state(partitioned)
        with pytest.raises(BulkLoadError, match="'order'"):
            loader.load({"order": [(900, 1, 5.0)]})
        with pytest.raises(BulkLoadError, match="'order'"):
            loader.load({"lineitem": [(900, 1, 1, 1)], "order": [(900, 1, 5.0)]})
        assert store_state(partitioned) == before


class TestRejectedBatch:
    def test_leaves_no_patch_entries_behind(self, shop_db):
        """The first row overflows the cap, the second cannot be routed:
        the overflow used to reach the patch list before the batch died,
        so a join served an order that was never inserted."""
        config = patched_shop_config(4, max_copies=1)
        partitioned = partition_database(shop_db, config)
        loader = BulkLoader(partitioned, config)
        # shop_db has lineitems for orders 60..65, which do not exist.
        holding = partitioned.table("lineitem").partitions_holding(
            ("orderkey",), set(range(60, 66))
        )
        scattered = next(
            key for key in range(60, 66) if len(holding.get(key, ())) > 1
        )
        plan = sql_to_plan(
            "SELECT COUNT(*) AS n FROM orders o "
            "JOIN lineitem l ON o.orderkey = l.orderkey",
            shop_db.schema,
        )
        executor = Executor(partitioned)
        joined = executor.execute(plan).rows
        before = store_state(partitioned)
        with pytest.raises(TypeError, match="unhashable"):
            loader.insert("orders", [(scattered, 1, 1.0), ([1, 2], 1, 1.0)])
        assert store_state(partitioned) == before
        assert executor.execute(plan).rows == joined
        check_pref_invariants(partitioned, config, exact=True)

    def test_keeps_a_verified_effective_hash(self):
        config = ref_chain_config(4)
        partitioned = partition_database(
            shop_database(seed=2, orphans=False), config
        )
        loader = BulkLoader(partitioned, config)
        orders = partitioned.table("orders")
        assert orders.effective_hash == ("custkey",)
        with pytest.raises(BulkLoadError, match="3 values"):
            loader.insert("orders", [(900, 1, 5.0), (901, 1)])
        with pytest.raises(TypeError, match="unhashable"):
            loader.insert("orders", [(900, 1, 5.0), (901, [1, 2], 5.0)])
        assert orders.effective_hash == ("custkey",)
        assert orders.total_rows == 60
        loader.insert("orders", [(900, 1, 5.0)])
        assert orders.effective_hash is None


class TestPlacementReadsTheStore:
    """A PREF insert routes by the referenced table as it is stored at the
    insert.  Each history changes lineitem after a first lookup on it, so
    an order placed by a lookup answered from before the change lands in
    the wrong partitions."""

    @pytest.fixture
    def store(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        loader = BulkLoader(partitioned, config)
        # A customer with orders already, so its propagated copies are exact.
        custkey = shop_db.table("orders").rows[0][1]
        loader.insert("orders", [(400, custkey, 1.0)])  # a first lookup
        return partitioned, config, loader, custkey

    @staticmethod
    def assert_placed_by_lineitems(partitioned, config, orderkey):
        expected = line_partitions(partitioned, orderkey)
        assert len(expected) > 1
        assert order_copies(partitioned, orderkey) == [
            (partition_id, int(rank > 0), 1)
            for rank, partition_id in enumerate(expected)
        ]
        check_pref_invariants(partitioned, config, exact=True)

    def test_after_the_referenced_table_grew(self, store):
        partitioned, config, loader, custkey = store
        loader.insert("lineitem", [(1000 + i, 500, 0, 1) for i in range(8)])
        loader.insert("orders", [(500, custkey, 1.0)])
        self.assert_placed_by_lineitems(partitioned, config, 500)

    def test_after_the_referenced_table_shrank(self, store):
        partitioned, config, loader, custkey = store
        # shop_db has lineitems for orders 60..65, which do not exist.
        orderkey = next(
            key
            for key in range(60, 66)
            if len(line_partitions(partitioned, key)) > 1
        )
        assert loader.delete("lineitem", lambda row: row[1] == orderkey)
        loader.insert("orders", [(orderkey, custkey, 1.0)])
        copies = order_copies(partitioned, orderkey)
        assert len(copies) == 1 and copies[0][1:] == (0, 0)
        check_pref_invariants(partitioned, config, exact=True)

    def test_after_a_non_key_column_was_updated(self, store):
        """The update changes no key, so the order follows the lineitems
        as they stood after the insert that preceded it."""
        partitioned, config, loader, custkey = store
        loader.insert("lineitem", [(1000 + i, 501, 0, 1) for i in range(8)])
        assert (
            loader.update(
                "lineitem",
                lambda row: row[1] == 501,
                lambda row: (*row[:3], row[3] + 1),
            )
            == 8
        )
        loader.insert("orders", [(501, custkey, 1.0)])
        self.assert_placed_by_lineitems(partitioned, config, 501)


class TestReferencedSideMaintenance:
    def test_new_partner_attracts_existing_referencing_tuple(self):
        database = empty_shop()
        config = pref_chain_config(4)
        partitioned = partition_database(database, config)
        loader = BulkLoader(partitioned, config)
        # Order 7 arrives first with no lineitems: round-robin orphan.
        loader.insert("orders", [(7, 1, 5.0)])
        # Now its lineitems arrive, in partitions the order may not be in.
        stats = loader.insert("lineitem", [(i, 7, 0, 1) for i in range(8)])
        assert stats.propagated_copies >= 1
        check_pref_invariants(partitioned, config, exact=True)
        # hasS must now be set on every copy of order 7.
        orders = partitioned.table("orders")
        for partition in orders.partitions:
            for index, row in enumerate(partition.rows):
                if row[0] == 7:
                    assert partition.has_partner[index]

    def test_maintenance_cascades_down_chains(self):
        database = empty_shop()
        config = pref_chain_config(4)
        partitioned = partition_database(database, config)
        loader = BulkLoader(partitioned, config)
        loader.insert("customer", [(1, "A", 0)])
        loader.insert("orders", [(10, 1, 5.0)])
        loader.insert("lineitem", [(i, 10, 0, 1) for i in range(8)])
        check_pref_invariants(partitioned, config, exact=True)

    def test_maintenance_can_be_disabled(self):
        database = empty_shop()
        config = pref_chain_config(4)
        partitioned = partition_database(database, config)
        loader = BulkLoader(partitioned, config)
        loader.insert("orders", [(7, 1, 5.0)])
        stats = loader.insert(
            "lineitem",
            [(i, 7, 0, 1) for i in range(8)],
            maintain_referencing=False,
        )
        assert stats.propagated_copies == 0


class TestUpdatesAndDeletes:
    def test_delete_applies_to_all_partitions(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        loader = BulkLoader(partitioned, config)
        before = partitioned.table("customer").total_rows
        removed = loader.delete("customer", lambda row: row[0] == 1)
        assert removed >= 1
        assert partitioned.table("customer").total_rows == before - removed
        for partition in partitioned.table("customer").partitions:
            assert all(row[0] != 1 for row in partition.rows)

    def test_update_rewrites_all_copies(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        loader = BulkLoader(partitioned, config)
        updated = loader.update(
            "customer",
            where=lambda row: row[0] == 1,
            assign=lambda row: (row[0], "RENAMED", row[2]),
        )
        assert updated >= 1
        names = {
            row[1]
            for partition in partitioned.table("customer").partitions
            for row in partition.rows
            if row[0] == 1
        }
        assert names == {"RENAMED"}

    def test_update_of_predicate_column_rejected(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        loader = BulkLoader(partitioned, config)
        with pytest.raises(BulkLoadError):
            loader.update(
                "customer",
                where=lambda row: row[0] == 1,
                assign=lambda row: (999, row[1], row[2]),
            )

    def test_update_of_referenced_column_rejected(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        loader = BulkLoader(partitioned, config)
        # orders.custkey is referenced by customer's PREF predicate.
        with pytest.raises(BulkLoadError):
            loader.update(
                "orders",
                where=lambda row: True,
                assign=lambda row: (row[0], row[1] + 1, row[2]),
            )

    @pytest.mark.parametrize("make_config", [pref_chain_config, patched_shop_config])
    def test_rejected_update_leaves_store_untouched(self, shop_db, make_config):
        """An assign that is legal on early rows and touches a partitioning
        column on a later one must not leave the early ones rewritten."""
        config = make_config(4)
        partitioned = partition_database(shop_db, config)
        loader = BulkLoader(partitioned, config)
        orders = partitioned.table("orders")

        def state():
            return (
                [
                    (list(p.rows), list(p.source_ids), list(p.dup), list(p.has_partner))
                    for p in orders.partitions
                ],
                {pid: list(entries) for pid, entries in orders.patches.items()},
            )

        before = state()
        # The last stored copy (and, under the cap, patch entries) of this
        # order come after other rows that the assign may legally change.
        bad = [p for p in orders.partitions if p.row_count][-1].rows[-1][0]
        assert sorted(orders.all_rows())[0][0] != bad
        with pytest.raises(BulkLoadError):
            loader.update(
                "orders",
                where=lambda row: True,
                assign=lambda row: (
                    row[0] + (1000 if row[0] == bad else 0),
                    row[1],
                    row[2] + 1.0,
                ),
            )
        assert state() == before

    def test_patched_pref_update_installs_new_patch_lists(self, shop_db):
        config = patched_shop_config(4, max_copies=1)
        partitioned = partition_database(shop_db, config)
        loader = BulkLoader(partitioned, config)
        orders = partitioned.table("orders")
        assert orders.patch_count
        handed_out = {pid: orders.patches_for(pid) for pid in orders.patches}
        patches = {pid: list(entries) for pid, entries in handed_out.items()}
        stored = [p.rows for p in orders.partitions]
        sources = {sid for entries in patches.values() for _row, sid in entries}
        patched_to = {sid: orders.patch_partitions_of(sid) for sid in sources}

        def bump(row):
            return (row[0], row[1], row[2] + 1.0)

        assert loader.update("orders", lambda row: True, bump) == (
            orders.total_rows + orders.patch_count
        )
        assert [p.rows for p in orders.partitions] == [
            [bump(row) for row in rows] for rows in stored
        ]
        assert orders.patches == {
            pid: [(bump(row), sid) for row, sid in entries]
            for pid, entries in patches.items()
        }
        # Installed whole through the table: no list it handed out changed.
        assert handed_out == patches
        assert {sid: orders.patch_partitions_of(sid) for sid in sources} == (
            patched_to
        )
        check_pref_invariants(partitioned, config)

    def test_update_arity_change_rejected(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        loader = BulkLoader(partitioned, config)
        with pytest.raises(BulkLoadError, match="arity"):
            loader.update("customer", lambda row: True, lambda row: row[:2])

    def test_no_match_delete_keeps_indexes_and_columns(self, shop_db):
        config = pref_chain_config(4)
        partitioned = partition_database(shop_db, config)
        loader = BulkLoader(partitioned, config)
        orders = partitioned.table("orders")
        route = partitioned.router(4)
        for partition in orders.partitions:
            partition.buckets((1,), 4, route)  # fills each key_index slot
        kept = [(p.columns, p.key_index) for p in orders.partitions]
        assert loader.delete("orders", lambda row: False) == 0
        assert all(
            p.columns is columns and p.key_index is index
            for p, (columns, index) in zip(orders.partitions, kept)
        )

    def test_ragged_insert_rejected_before_any_write(self):
        config = pref_chain_config(4)
        partitioned = partition_database(empty_shop(), config)
        loader = BulkLoader(partitioned, config)
        with pytest.raises(BulkLoadError, match="4 values"):
            loader.insert("lineitem", [(0, 1, 0, 1), (1, 1, 0)])
        assert partitioned.table("lineitem").total_rows == 0


class TestCostAccounting:
    def test_simulated_seconds_positive(self, shop_db):
        config = ref_chain_config(4)
        partitioned = partition_database(Database(shop_schema()), config)
        loader = BulkLoader(partitioned, config)
        stats = loader.load(
            {name: list(shop_db.table(name).rows) for name in config.tables}
        )
        assert stats.simulated_seconds() > 0
        assert stats.bytes_written > 0

    def test_merge_accumulates(self):
        from repro.partitioning import BulkLoadStats

        first = BulkLoadStats(rows_in=1, copies_written=2, bytes_written=10)
        second = BulkLoadStats(rows_in=3, copies_written=4, bytes_written=20)
        first.merge(second)
        assert first.rows_in == 4
        assert first.copies_written == 6
        assert first.bytes_written == 30
