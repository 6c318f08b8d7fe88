"""Executor edge cases: self-joins, gathered inputs, empty partitions."""

import pytest

from helpers import (
    BACKENDS,
    all_hashed_config,
    assert_same_rows,
    pref_chain_config,
    ref_chain_config,
    shop_database,
)
from repro.partitioning import partition_database
from repro.query import ExecOptions, Executor, LocalExecutor, Query
from repro.query.expressions import col, lit


@pytest.fixture(scope="module")
def database():
    return shop_database(seed=21)


CONFIGS = [all_hashed_config, pref_chain_config, ref_chain_config]


def rows_on_every_backend(partitioned, plan, options=None):
    """The serial rows, after checking that every backend gives the same
    rows and canonical stats."""
    results = {}
    for name, make in BACKENDS.items():
        backend = make()
        try:
            executor = Executor(partitioned, options, backend=backend)
            results[name] = executor.execute(plan)
        finally:
            backend.close()
    serial = results["serial"]
    for name, result in results.items():
        assert result.rows == serial.rows, name
        assert result.stats.canonical() == serial.stats.canonical(), name
    return serial.rows


@pytest.mark.parametrize("config_builder", CONFIGS)
def test_self_join_with_aliases(database, config_builder):
    """Two aliases of the same table join locally under co-placement."""
    plan = (
        Query.scan("orders", alias="o1")
        .join(
            Query.scan("orders", alias="o2"),
            on=[("o1.orderkey", "o2.orderkey")],
        )
        .aggregate(aggregates=[("count", None, "n")])
        .plan()
    )
    partitioned = partition_database(database, config_builder(4))
    assert_same_rows(
        Executor(partitioned).execute(plan).rows,
        LocalExecutor(database).execute(plan).rows,
    )


@pytest.mark.parametrize("config_builder", CONFIGS)
def test_join_against_aggregated_subplan(database, config_builder):
    """A join whose right side is an aggregate result (Q15 pattern)."""
    totals = (
        Query.scan("orders", alias="o")
        .aggregate(
            group_by=["o.custkey"],
            aggregates=[("sum", col("o.total"), "spend")],
        )
    )
    plan = (
        Query.scan("customer", alias="c")
        .join(totals, on=[("c.custkey", "o.custkey")])
        .order_by([("spend", False), ("c.custkey", True)], limit=5)
        .plan()
    )
    partitioned = partition_database(database, config_builder(4))
    assert_same_rows(
        Executor(partitioned).execute(plan).rows,
        LocalExecutor(database).execute(plan).rows,
    )


def test_join_with_scalar_aggregate_side(database):
    """Joining against a GATHERED scalar-aggregate relation.

    The broadcast join's exchange stores the whole result, so its
    partition tasks are no-ops; on a pool they run on worker threads."""
    average = Query.scan("orders", alias="o").aggregate(
        aggregates=[("count", None, "total_orders")]
    )
    plan = (
        Query.scan("nation", alias="n")
        .cross_join(average)
        .aggregate(aggregates=[("max", col("total_orders"), "m")])
        .plan()
    )
    for config_builder in CONFIGS:
        partitioned = partition_database(database, config_builder(3))
        assert_same_rows(
            rows_on_every_backend(partitioned, plan),
            LocalExecutor(database).execute(plan).rows,
        )


def test_empty_filter_result_everywhere(database):
    plan = (
        Query.scan("lineitem", alias="l")
        .where(col("l.qty") > lit(10_000))
        .join(Query.scan("orders", alias="o"), on=[("l.orderkey", "o.orderkey")])
        .aggregate(aggregates=[("count", None, "n"), ("min", col("l.qty"), "m")])
        .plan()
    )
    partitioned = partition_database(database, pref_chain_config(4))
    result = Executor(partitioned).execute(plan)
    assert result.rows == [(0, None)]


def test_single_partition_cluster(database):
    """n = 1 degenerates gracefully (everything is local)."""
    partitioned = partition_database(database, pref_chain_config(1))
    plan = (
        Query.scan("customer", alias="c")
        .join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
        .aggregate(aggregates=[("count", None, "n")])
        .plan()
    )
    assert_same_rows(
        Executor(partitioned).execute(plan).rows,
        LocalExecutor(database).execute(plan).rows,
    )


def test_overlapping_column_names_rejected(database):
    from repro.errors import PlanningError

    plan = (
        Query.scan("orders")
        .join(Query.scan("orders"), on=[("orderkey", "orderkey")])
        .plan()
    )
    partitioned = partition_database(database, pref_chain_config(4))
    with pytest.raises(PlanningError):
        Executor(partitioned).execute(plan)


def test_semi_join_of_semi_join(database):
    """Chained semi joins (Q20 pattern)."""
    big_orders = Query.scan("orders", alias="o").where(col("o.total") > lit(50.0))
    busy_lines = Query.scan("lineitem", alias="l").semi_join(
        big_orders, on=[("l.orderkey", "o.orderkey")]
    )
    plan = (
        Query.scan("item", alias="i")
        .semi_join(busy_lines, on=[("i.itemkey", "l.itemkey")])
        .aggregate(aggregates=[("count", None, "n")])
        .plan()
    )
    for config_builder in CONFIGS:
        partitioned = partition_database(database, config_builder(4))
        for optimizations in (True, False):
            assert_same_rows(
                Executor(partitioned, ExecOptions(optimizations=optimizations))
                .execute(plan)
                .rows,
                LocalExecutor(database).execute(plan).rows,
            )


def test_in_list_and_null_filters_distributed(database):
    from repro.query.expressions import InList, IsNull

    plan = (
        Query.scan("customer", alias="c")
        .left_join(
            Query.scan("orders", alias="o").where(col("o.total") > lit(80.0)),
            on=[("c.custkey", "o.custkey")],
        )
        .where(IsNull(col("o.orderkey")))
        .aggregate(aggregates=[("count", None, "n")])
        .plan()
    )
    partitioned = partition_database(database, pref_chain_config(4))
    assert_same_rows(
        Executor(partitioned).execute(plan).rows,
        LocalExecutor(database).execute(plan).rows,
    )
    plan2 = (
        Query.scan("lineitem", alias="l")
        .where(InList(col("l.itemkey"), (1, 2, 3)))
        .aggregate(group_by=["l.itemkey"], aggregates=[("count", None, "n")])
        .order_by(["l.itemkey"])
        .plan()
    )
    assert_same_rows(
        Executor(partitioned).execute(plan2).rows,
        LocalExecutor(database).execute(plan2).rows,
    )


def test_anti_join_with_replicated_left_counts_once(database):
    """Regression: a replicated preserved side must not multiply results
    (on every backend: the broadcast join's partition tasks are no-ops)."""
    plan = (
        Query.scan("nation", alias="n")
        .anti_join(
            Query.scan("customer", alias="c"),
            on=[("n.nationkey", "c.nationkey")],
        )
        .aggregate(aggregates=[("count", None, "cnt")])
        .plan()
    )
    for config_builder in CONFIGS:
        partitioned = partition_database(database, config_builder(3))
        for optimizations in (True, False):
            assert_same_rows(
                rows_on_every_backend(
                    partitioned, plan, ExecOptions(optimizations=optimizations)
                ),
                LocalExecutor(database).execute(plan).rows,
            )


def test_cross_join_with_replicated_kept_side(database):
    """Regression: replicated side kept locally in a broadcast join."""
    plan = (
        Query.scan("nation", alias="n")
        .cross_join(Query.scan("item", alias="i"))
        .aggregate(aggregates=[("count", None, "cnt")])
        .plan()
    )
    for config_builder in CONFIGS:
        partitioned = partition_database(database, config_builder(3))
        assert_same_rows(
            Executor(partitioned).execute(plan).rows,
            LocalExecutor(database).execute(plan).rows,
        )


@pytest.mark.parametrize("kind", ["semi", "anti"])
def test_keyed_semi_anti_join_applies_residual(database, kind):
    """Regression: the keyed semi/anti hash path tested key membership
    only, silently dropping the residual predicate — a customer with any
    order at all passed a semi join that should require a *big* order.
    Checked against plain-Python ground truth and the local reference
    executor, under every config and with the hasS rewrites on and off
    (the partner-filter bitmap cannot express residuals and must not
    fire)."""
    from repro.query.plan import JoinKind

    join_kind = JoinKind.SEMI if kind == "semi" else JoinKind.ANTI
    plan = (
        Query.scan("customer", alias="c")
        .join(
            Query.scan("orders", alias="o"),
            on=[("c.custkey", "o.custkey")],
            kind=join_kind,
            residual=(col("o.total") > lit(50.0)),
        )
        .order_by(["c.custkey"])
        .plan()
    )
    # Ground truth straight from the base tables.
    big_spenders = {
        custkey
        for _okey, custkey, total in database.table("orders").rows
        if total > 50.0
    }
    expected = [
        row
        for row in database.table("customer").rows
        if (row[0] in big_spenders) == (kind == "semi")
    ]
    assert expected, "ground truth should be non-trivial"
    assert len(expected) != database.table("customer").row_count, (
        "residual should actually restrict the match set"
    )
    assert_same_rows(LocalExecutor(database).execute(plan).rows, expected)
    for config_builder in CONFIGS:
        partitioned = partition_database(database, config_builder(4))
        for optimizations in (True, False):
            assert_same_rows(
                Executor(partitioned, ExecOptions(optimizations=optimizations))
                .execute(plan)
                .rows,
                expected,
            )
