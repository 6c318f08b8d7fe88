"""Partition pruning (the paper's future-work extension)."""

import pytest

from helpers import (
    assert_same_rows,
    pref_chain_config,
    ref_chain_config,
    shop_database,
)
from repro.partitioning import BulkLoader, partition_database
from repro.query import ExecOptions, Executor, LocalExecutor, Query
from repro.query.expressions import and_, col, lit
from repro.query.pruning import derive_prune_info, equality_bindings
from repro.storage import Database


class TestEqualityBindings:
    def test_extracts_conjuncts(self):
        condition = and_(
            col("a.x") == lit(5),
            lit("y") == col("a.name"),
            col("a.z") > lit(1),
        )
        assert equality_bindings(condition) == {"a.x": 5, "a.name": "y"}

    def test_or_not_extracted(self):
        from repro.query.expressions import or_

        condition = or_(col("a.x") == lit(5), col("a.x") == lit(6))
        assert equality_bindings(condition) == {}


class TestDerivePruneInfo:
    def make(self, config_builder, orphans=True):
        database = shop_database(seed=5, orphans=orphans)
        partitioned = partition_database(database, config_builder(4))
        return database, partitioned

    def test_hash_scan_pruned_on_key(self):
        _db, partitioned = self.make(ref_chain_config)
        info = derive_prune_info(
            partitioned.table("customer"), "c", col("c.custkey") == lit(3)
        )
        assert info is not None and info.kind == "hash"
        assert info.partitions(partitioned.table("customer")) == frozenset(
            {partitioned.table("customer").scheme.partition_of(3)}
        )

    def test_hash_scan_not_pruned_on_other_column(self):
        _db, partitioned = self.make(ref_chain_config)
        info = derive_prune_info(
            partitioned.table("customer"), "c", col("c.cname") == lit("x")
        )
        assert info is None

    def test_effective_hash_pruning(self):
        _db, partitioned = self.make(ref_chain_config, orphans=False)
        orders = partitioned.table("orders")
        assert orders.effective_hash == ("custkey",)
        info = derive_prune_info(orders, "o", col("o.custkey") == lit(3))
        assert info is not None and info.kind == "effective_hash"
        assert len(info.partitions(orders)) == 1

    def test_partition_index_pruning_for_pref(self):
        _db, partitioned = self.make(pref_chain_config)
        orders = partitioned.table("orders")
        info = derive_prune_info(orders, "o", col("o.orderkey") == lit(7))
        assert info is not None and info.kind == "partition_index"
        allowed = info.partitions(orders)
        # Every copy of orderkey 7 must live in an allowed partition.
        for partition in orders.partitions:
            for row in partition.rows:
                if row[0] == 7:
                    assert partition.partition_id in allowed

    def test_unqualified_column_matches(self):
        _db, partitioned = self.make(ref_chain_config)
        info = derive_prune_info(
            partitioned.table("customer"), "c", col("custkey") == lit(3)
        )
        assert info is not None


class TestPrunedExecution:
    @pytest.mark.parametrize("config_builder", [ref_chain_config, pref_chain_config])
    def test_results_identical_with_pruning(self, config_builder):
        database = shop_database(seed=6)
        partitioned = partition_database(database, config_builder(5))
        local = LocalExecutor(database)
        plans = [
            Query.scan("customer", alias="c")
            .where(col("c.custkey") == lit(4))
            .plan(),
            Query.scan("orders", alias="o")
            .where(and_(col("o.custkey") == lit(4), col("o.total") > lit(10.0)))
            .aggregate(aggregates=[("count", None, "n")])
            .plan(),
            Query.scan("lineitem", alias="l")
            .where(col("l.orderkey") == lit(9))
            .join(
                Query.scan("orders", alias="o"),
                on=[("l.orderkey", "o.orderkey")],
            )
            .aggregate(aggregates=[("count", None, "n")])
            .plan(),
        ]
        executor = Executor(partitioned)
        for plan in plans:
            assert_same_rows(
                executor.execute(plan).rows, local.execute(plan).rows
            )

    def test_partitions_scanned_reduced(self):
        database = shop_database(seed=6, orphans=False)
        partitioned = partition_database(database, ref_chain_config(5))
        plan = (
            Query.scan("customer", alias="c")
            .where(col("c.custkey") == lit(4))
            .aggregate(aggregates=[("count", None, "n")])
            .plan()
        )
        pruned = Executor(partitioned, ExecOptions(optimizations=True)).execute(plan)
        full = Executor(partitioned, ExecOptions(optimizations=False)).execute(plan)
        assert pruned.rows == full.rows
        assert pruned.stats.partitions_scanned == 1
        assert full.stats.partitions_scanned == 5

    def test_pruning_disabled_without_optimizations(self):
        database = shop_database(seed=6)
        partitioned = partition_database(database, ref_chain_config(5))
        plan = (
            Query.scan("customer", alias="c")
            .where(col("c.custkey") == lit(4))
            .plan()
        )
        executor = Executor(partitioned, ExecOptions(optimizations=False))
        assert executor.execute(plan).stats.partitions_scanned == 5

    def test_partition_index_pruning_follows_writes(self):
        """Every key is looked up once, then lineitem and orders are
        written: order 700 is new, order 5 gains partner partitions, order
        3 is deleted.  Answers equal ``LocalExecutor`` on a mirror with the
        same history, and an orders scan visits exactly the partitions
        that store the key, so a lookup from before the writes fails."""
        database = shop_database(seed=6)
        config = pref_chain_config(5)
        partitioned = partition_database(database, config)
        orders = partitioned.table("orders")
        executor = Executor(partitioned)

        def holding(orderkey):
            return [
                p.partition_id for p in orders.partitions if orderkey in p.columns[0]
            ]

        def scan(orderkey):
            return Query.scan("orders", alias="o").where(
                col("o.orderkey") == lit(orderkey)
            )

        plans = {
            orderkey: (
                scan(orderkey).plan(),
                scan(orderkey)
                .join(
                    Query.scan("lineitem", alias="l"),
                    on=[("o.orderkey", "l.orderkey")],
                )
                .plan(),
            )
            for orderkey in (700, 5, 3)
        }
        for plan, joined in plans.values():
            assert derive_prune_info(orders, "o", plan.condition).kind == (
                "partition_index"
            )
            executor.execute(plan)
            executor.execute(joined)
        grown_before = holding(5)
        assert len(holding(3)) > 1
        added = {
            "lineitem": [(1000 + i, key, 0, 1) for key in (700, 5) for i in range(8)],
            "orders": [(700, 1, 5.0)],
        }
        loader = BulkLoader(partitioned, config)
        loader.load(added)
        assert loader.delete("orders", lambda row: row[0] == 3)
        assert set(holding(5)) > set(grown_before)
        mirror = Database(database.schema)
        for name, table in database.tables.items():
            kept = [
                row for row in table.rows if name != "orders" or row[0] != 3
            ]
            mirror.load(name, kept + added.get(name, []))
        local = LocalExecutor(mirror)
        for orderkey, (plan, joined) in plans.items():
            result = executor.execute(plan)
            assert result.stats.partitions_scanned == len(holding(orderkey))
            assert_same_rows(result.rows, local.execute(plan).rows)
            assert_same_rows(
                executor.execute(joined).rows, local.execute(joined).rows
            )
        assert holding(3) == []

    def test_sql_filters_prune_via_pushdown(self):
        database = shop_database(seed=6, orphans=False)
        partitioned = partition_database(database, ref_chain_config(5))
        from repro.sql import sql_to_plan

        plan = sql_to_plan(
            "SELECT COUNT(*) AS n FROM customer c WHERE c.custkey = 4",
            database.schema,
        )
        result = Executor(partitioned).execute(plan)
        assert result.stats.partitions_scanned == 1
        assert result.rows == [(1,)]
