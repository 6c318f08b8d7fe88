"""Distributed executor correctness: every result cross-checked locally."""

import pytest

from helpers import (
    all_hashed_config,
    assert_same_rows,
    pref_chain_config,
    ref_chain_config,
)
from repro.partitioning import partition_database
from repro.query import ExecOptions, Executor, LocalExecutor, Query
from repro.query.expressions import col, lit

CONFIGS = {
    "pref": pref_chain_config,
    "ref": ref_chain_config,
    "hashed": all_hashed_config,
}


def plans():
    l = Query.scan("lineitem", alias="l")
    o = Query.scan("orders", alias="o")
    c = Query.scan("customer", alias="c")
    i = Query.scan("item", alias="i")
    n = Query.scan("nation", alias="n")
    yield "scan_count", o.aggregate(aggregates=[("count", None, "cnt")]).plan()
    yield "filter", o.where(col("o.total") > lit(50.0)).aggregate(
        aggregates=[("count", None, "cnt"), ("sum", col("o.total"), "s")]
    ).plan()
    yield "join_lo", l.join(o, on=[("l.orderkey", "o.orderkey")]).aggregate(
        aggregates=[("count", None, "cnt"), ("sum", col("l.qty"), "q")]
    ).plan()
    yield "join_chain", c.join(o, on=[("c.custkey", "o.custkey")]).join(
        l, on=[("o.orderkey", "l.orderkey")]
    ).aggregate(
        group_by=["c.cname"], aggregates=[("sum", col("l.qty"), "q")]
    ).order_by(["c.cname"]).plan()
    yield "join_item", l.join(i, on=[("l.itemkey", "i.itemkey")]).aggregate(
        group_by=["i.iname"], aggregates=[("count", None, "cnt")]
    ).order_by(["i.iname"]).plan()
    yield "join_replicated", c.join(
        n, on=[("c.nationkey", "n.nationkey")]
    ).aggregate(
        group_by=["n.nname"], aggregates=[("count", None, "cnt")]
    ).order_by(["n.nname"]).plan()
    yield "semi", c.semi_join(o, on=[("c.custkey", "o.custkey")]).aggregate(
        aggregates=[("count", None, "cnt")]
    ).plan()
    yield "anti", c.anti_join(o, on=[("c.custkey", "o.custkey")]).aggregate(
        aggregates=[("count", None, "cnt")]
    ).plan()
    yield "semi_filtered", c.semi_join(
        o.where(col("o.total") > lit(40.0)), on=[("c.custkey", "o.custkey")]
    ).aggregate(aggregates=[("count", None, "cnt")]).plan()
    yield "outer", c.left_join(o, on=[("c.custkey", "o.custkey")]).aggregate(
        group_by=["c.cname"], aggregates=[("count", col("o.orderkey"), "norders")]
    ).order_by(["c.cname"]).plan()
    yield "outer_filtered", c.left_join(
        o.where(col("o.total") > lit(40.0)), on=[("c.custkey", "o.custkey")]
    ).aggregate(
        group_by=["c.cname"], aggregates=[("count", col("o.orderkey"), "n")]
    ).order_by(["c.cname"]).plan()
    yield "theta", i.cross_join(
        n, residual=(col("i.itemkey") < col("n.nationkey"))
    ).aggregate(aggregates=[("count", None, "cnt")]).plan()
    yield "distinct_values", o.select(["o.custkey"], distinct=True).order_by(
        ["custkey"]
    ).plan()
    yield "scalar_over_join", l.join(o, on=[("l.orderkey", "o.orderkey")]).join(
        c, on=[("o.custkey", "c.custkey")]
    ).aggregate(
        aggregates=[
            ("avg", col("l.qty"), "aq"),
            ("min", col("o.total"), "mn"),
            ("max", col("o.total"), "mx"),
            ("count_distinct", col("c.custkey"), "cd"),
        ]
    ).plan()
    yield "limit", o.order_by([("o.total", False)], limit=5).select(
        ["o.orderkey", "o.total"]
    ).plan() if False else (
        o.select(["o.orderkey", "o.total"]).order_by([("total", False)], limit=5).plan()
    )


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("optimizations", [True, False])
def test_distributed_matches_local(shop_db, config_name, optimizations):
    config = CONFIGS[config_name](5)
    partitioned = partition_database(shop_db, config)
    executor = Executor(partitioned, ExecOptions(optimizations=optimizations))
    local = LocalExecutor(shop_db)
    for name, plan in plans():
        expected = local.execute(plan).rows
        actual = executor.execute(plan).rows
        try:
            assert_same_rows(actual, expected)
        except AssertionError as error:
            raise AssertionError(f"plan {name!r}: {error}") from error


def test_result_columns_hide_bitmaps(shop_db):
    partitioned = partition_database(shop_db, pref_chain_config(4))
    executor = Executor(partitioned)
    result = executor.execute(Query.scan("orders", alias="o").plan())
    assert result.columns == ("o.orderkey", "o.custkey", "o.total")
    assert all(len(row) == 3 for row in result.rows)


def test_scan_of_pref_table_dedups_final_result(shop_db):
    partitioned = partition_database(shop_db, pref_chain_config(4))
    executor = Executor(partitioned)
    result = executor.execute(Query.scan("customer", alias="c").plan())
    assert len(result.rows) == shop_db.table("customer").row_count


def test_ordered_result_respects_limit(shop_db):
    partitioned = partition_database(shop_db, pref_chain_config(4))
    executor = Executor(partitioned)
    plan = (
        Query.scan("orders", alias="o")
        .select(["o.orderkey", "o.total"])
        .order_by([("total", False)], limit=3)
        .plan()
    )
    result = executor.execute(plan)
    assert len(result.rows) == 3
    totals = [row[1] for row in result.rows]
    assert totals == sorted(totals, reverse=True)


def test_as_dicts(shop_db):
    partitioned = partition_database(shop_db, pref_chain_config(4))
    executor = Executor(partitioned)
    plan = (
        Query.scan("orders", alias="o")
        .aggregate(aggregates=[("count", None, "cnt")])
        .plan()
    )
    result = executor.execute(plan)
    assert result.as_dicts() == [{"cnt": shop_db.table("orders").row_count}]


def test_stats_track_network_and_shuffles(shop_db):
    partitioned = partition_database(shop_db, all_hashed_config(4))
    executor = Executor(partitioned)
    plan = (
        Query.scan("customer", alias="c")
        .join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
        .aggregate(aggregates=[("count", None, "cnt")])
        .plan()
    )
    result = executor.execute(plan)
    assert result.stats.shuffle_count >= 1
    assert result.stats.network_bytes > 0
    assert result.simulated_seconds() > 0
