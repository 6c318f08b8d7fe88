"""The hasS/dup-index optimizations of Section 2.2 (Figure 9 semantics)."""

from helpers import assert_same_rows
from repro.partitioning import HashScheme, PartitioningConfig, PrefScheme
from repro.partitioning import JoinPredicate, partition_database
from repro.query import ExecOptions, Executor, LocalExecutor, Query

WITH = ExecOptions(optimizations=True)
WITHOUT = ExecOptions(optimizations=False)


def customer_orders_partitioned(shop_db, n=6):
    config = PartitioningConfig(n)
    config.add("orders", HashScheme(("orderkey",), n))
    config.add(
        "customer",
        PrefScheme(
            "orders",
            JoinPredicate.equi("customer", "custkey", "orders", "custkey"),
        ),
    )
    return partition_database(shop_db, config)


class TestAntiJoinOptimization:
    def test_results_agree_with_and_without(self, shop_db):
        partitioned = customer_orders_partitioned(shop_db)
        plan = (
            Query.scan("customer", alias="c")
            .anti_join(
                Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")]
            )
            .aggregate(aggregates=[("count", None, "cnt")])
            .plan()
        )
        local = LocalExecutor(shop_db).execute(plan).rows
        with_opt = Executor(partitioned, WITH).execute(plan)
        without = Executor(partitioned, WITHOUT).execute(plan)
        assert_same_rows(with_opt.rows, local)
        assert_same_rows(without.rows, local)

    def test_optimized_anti_join_avoids_join_work(self, shop_db):
        partitioned = customer_orders_partitioned(shop_db)
        plan = (
            Query.scan("customer", alias="c")
            .anti_join(
                Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")]
            )
            .aggregate(aggregates=[("count", None, "cnt")])
            .plan()
        )
        with_opt = Executor(partitioned, WITH).execute(plan)
        without = Executor(partitioned, WITHOUT).execute(plan)
        # Without the hasS rewrite the anti join runs as a remote
        # NOT-EXISTS nested loop: orders of magnitude more row work.
        assert without.stats.rows_processed > 5 * with_opt.stats.rows_processed


class TestSemiJoinOptimization:
    def test_results_agree(self, shop_db):
        partitioned = customer_orders_partitioned(shop_db)
        plan = (
            Query.scan("customer", alias="c")
            .semi_join(
                Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")]
            )
            .aggregate(aggregates=[("count", None, "cnt")])
            .plan()
        )
        local = LocalExecutor(shop_db).execute(plan).rows
        assert_same_rows(Executor(partitioned, WITH).execute(plan).rows, local)
        assert_same_rows(Executor(partitioned, WITHOUT).execute(plan).rows, local)

    def test_optimized_semi_join_is_cheaper(self, shop_db):
        partitioned = customer_orders_partitioned(shop_db)
        plan = (
            Query.scan("customer", alias="c")
            .semi_join(
                Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")]
            )
            .aggregate(aggregates=[("count", None, "cnt")])
            .plan()
        )
        with_opt = Executor(partitioned, WITH).execute(plan)
        without = Executor(partitioned, WITHOUT).execute(plan)
        assert without.stats.rows_processed > with_opt.stats.rows_processed


class TestDistinctViaDupIndex:
    def test_count_via_dup_index_needs_no_network(self, shop_db):
        partitioned = customer_orders_partitioned(shop_db)
        executor = Executor(partitioned)
        # Counting base tuples uses the dup index: a purely local plan up
        # to the scalar aggregate.
        count_plan = (
            Query.scan("customer", alias="c")
            .aggregate(aggregates=[("count", None, "cnt")])
            .plan()
        )
        result = executor.execute(count_plan)
        assert result.rows == [(shop_db.table("customer").row_count,)]
        # The value-based DISTINCT alternative ships rows around.
        distinct_plan = (
            Query.scan("customer", alias="c")
            .select(["c.custkey", "c.cname"], distinct=True)
            .aggregate(aggregates=[("count", None, "cnt")])
            .plan()
        )
        distinct_result = executor.execute(distinct_plan)
        assert distinct_result.rows == result.rows
        assert distinct_result.stats.network_bytes > result.stats.network_bytes

    def test_dedup_keeps_exactly_one_copy_per_base_tuple(self, shop_db):
        partitioned = customer_orders_partitioned(shop_db)
        executor = Executor(partitioned)
        result = executor.execute(Query.scan("customer", alias="c").plan())
        keys = [row[0] for row in result.rows]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(
            row[0] for row in shop_db.table("customer").rows
        )
