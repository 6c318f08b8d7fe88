"""Filter pushdown (``query/pushdown.py``) moves only what it may.

Each case also holds the engine's answers to ``LocalExecutor``'s, which
runs the logical plan as written.  The cases: a conjunct on the
NULL-supplying side of a LEFT OUTER join stays above it (and a pass that
pushes it answers differently); the OR pushed out of a disjunction over
nullable columns keeps every row the original keeps; nothing enters the
right side of a SEMI or ANTI join; the selectivity guard keeps Q3's plan
and puts Q12's lineitem conjuncts on the scan; sampling is
deterministic; every pushed TPC-H plan certifies; and every statement of
the serving benchmark is a fixed point.
"""

from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path

import pytest

from helpers import assert_same_rows, pref_chain_config, shop_schema
from repro.design import SchemaDrivenDesigner
from repro.partitioning import partition_database
from repro.query import pushdown
from repro.query.builder import Query
from repro.query.certify import certify
from repro.query.executor import Executor
from repro.query.expressions import IsNull, and_, col, lit, or_
from repro.query.local_executor import LocalExecutor
from repro.query.plan import Filter, Join, JoinKind, Scan
from repro.query.pushdown import push_filters
from repro.sql.planner import sql_to_plan
from repro.storage.table import Database
from repro.workloads.tpch import ALL_QUERIES, SMALL_TABLES

PERF = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"


def answers_match(database, partitioned, plan) -> None:
    result = Executor(partitioned).execute(plan)
    assert_same_rows(result.rows, LocalExecutor(database).execute(plan).rows)


def filter_over(node, table: str) -> Filter | None:
    """The filter directly over the scan of *table* in *node*, if any."""
    for child in node.walk():
        if (
            isinstance(child, Filter)
            and isinstance(child.child, Scan)
            and child.child.table == table
        ):
            return child
    return None


def only_join(node) -> Join:
    (join,) = [child for child in node.walk() if isinstance(child, Join)]
    return join


# -- LEFT OUTER ----------------------------------------------------------------


def customers_without_orders():
    """A NULL test on the NULL-supplying side: true exactly on the padded
    rows, so it keeps the customers that have no order."""
    return (
        Query.scan("customer", alias="c")
        .left_join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
        .where(IsNull(col("o.orderkey")))
        .plan()
    )


def test_null_supplying_conjunct_stays_above_the_left_join(shop_db):
    partitioned = partition_database(shop_db, pref_chain_config(4))
    plan = customers_without_orders()
    assert push_filters(plan, partitioned) is plan
    answers_match(shop_db, partitioned, plan)


def test_pushing_it_into_the_null_supplying_side_changes_the_answer(
    shop_db, monkeypatch
):
    partitioned = partition_database(shop_db, pref_chain_config(4))
    plan = customers_without_orders()
    monkeypatch.setattr(
        pushdown, "_RIGHT_OPEN", (JoinKind.INNER, JoinKind.CROSS, JoinKind.LEFT_OUTER)
    )
    pushed = push_filters(plan, partitioned)
    assert filter_over(pushed, "orders") is not None
    wrong = Executor(partitioned).execute(plan).rows
    expected = LocalExecutor(shop_db).execute(plan).rows
    # Every customer is padded once no order survives, so the pushed plan
    # keeps customers that do have orders.
    assert len(wrong) > len(expected)


def test_preserved_side_conjunct_goes_below_the_left_join(shop_db):
    partitioned = partition_database(shop_db, pref_chain_config(4))
    plan = (
        Query.scan("customer", alias="c")
        .left_join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
        .where(col("c.custkey") < lit(3))
        .plan()
    )
    pushed = push_filters(plan, partitioned)
    assert isinstance(pushed, Join) and filter_over(pushed.left, "customer")
    answers_match(shop_db, partitioned, plan)


# -- the pushed OR -----------------------------------------------------------------


def nullable_shop(seed: int) -> Database:
    """Customers with NULL nation keys and orders with NULL totals."""
    rng = random.Random(seed)
    database = Database(shop_schema())
    database.load("nation", [(i, f"n{i}") for i in range(4)])
    database.load(
        "customer",
        [
            (i, f"c{i}", None if rng.random() < 0.3 else rng.randrange(4))
            for i in range(30)
        ],
    )
    database.load("item", [(i, f"i{i}") for i in range(5)])
    database.load(
        "orders",
        [
            (
                i,
                rng.randrange(30),
                None if rng.random() < 0.3 else float(rng.randrange(100)),
            )
            for i in range(90)
        ],
    )
    database.load(
        "lineitem",
        [(i, rng.randrange(90), rng.randrange(5), 1) for i in range(200)],
    )
    return database


@pytest.mark.parametrize("seed", range(6))
def test_pushed_or_over_nullable_columns_keeps_every_row(seed, monkeypatch):
    # The guard would judge this data by its sample; the rule is under test.
    monkeypatch.setattr(pushdown, "PUSHDOWN_SELECTIVITY", 1.0)
    database = nullable_shop(seed)
    partitioned = partition_database(database, pref_chain_config(4))
    condition = or_(
        and_(col("c.nationkey") == lit(1), col("o.total") < lit(30.0)),
        and_(IsNull(col("c.nationkey")), col("o.total") > lit(60.0)),
        and_(col("c.nationkey") != lit(2), IsNull(col("o.total"))),
    )
    plan = (
        Query.scan("customer", alias="c")
        .join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
        .where(condition)
        .plan()
    )
    pushed = push_filters(plan, partitioned)
    assert isinstance(pushed, Filter) and pushed.condition is condition
    assert filter_over(pushed, "customer") and filter_over(pushed, "orders")
    answers_match(database, partitioned, plan)
    kept = LocalExecutor(database).execute(plan).rows
    assert_same_rows(LocalExecutor(database).execute(pushed).rows, kept)


# -- SEMI and ANTI -----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["semi_join", "anti_join"])
def test_nothing_enters_the_right_side_of_a_semi_or_anti_join(shop_db, kind):
    partitioned = partition_database(shop_db, pref_chain_config(4))
    right = Query.scan("lineitem", alias="l").where(col("l.qty") > lit(2))
    plan = (
        getattr(Query.scan("orders", alias="o"), kind)(
            right, on=[("o.orderkey", "l.orderkey")]
        )
        .where(and_(col("o.total") < lit(10.0), col("o.custkey") != lit(3)))
        .plan()
    )
    pushed = push_filters(plan, partitioned)
    join = only_join(pushed)
    assert join.right is only_join(plan).right
    assert filter_over(join.left, "orders") is not None
    answers_match(shop_db, partitioned, plan)


# -- the guard, on TPC-H -----------------------------------------------------------


def test_guard_keeps_q3_and_pushes_q12(tpch_partitioned, small_tpch, monkeypatch):
    for partitioned in tpch_partitioned.values():
        q3 = ALL_QUERIES["Q3"]()
        assert push_filters(q3, partitioned) is q3
        executor = Executor(partitioned)
        assert (
            executor.annotate(q3).explain()
            == executor.rewriter.rewrite(q3).explain()
        )
        q12 = push_filters(ALL_QUERIES["Q12"](), partitioned)
        scan_filter = filter_over(q12, "lineitem")
        assert scan_filter is not None
        assert len(pushdown._conjuncts(scan_filter.condition)) == 5
        assert not isinstance(q12.child.child, Filter)  # nothing left above
    answers_match(small_tpch, tpch_partitioned["pref"], ALL_QUERIES["Q12"]())
    # Without the guard Q3's half-selective filters go below its joins.
    monkeypatch.setattr(pushdown, "PUSHDOWN_SELECTIVITY", 1.0)
    q3 = ALL_QUERIES["Q3"]()
    assert push_filters(q3, tpch_partitioned["pref"]) is not q3


def test_sampling_is_deterministic(small_tpch, tpch_partitioned):
    design = SchemaDrivenDesigner(small_tpch, 4).design(replicate=SMALL_TABLES)
    again = partition_database(small_tpch, design.config)
    for name in ("Q5", "Q10", "Q12", "Q19", "Q21"):
        plan = ALL_QUERIES[name]()
        first = Executor(tpch_partitioned["pref"]).annotate(plan).explain()
        assert Executor(tpch_partitioned["pref"]).annotate(plan).explain() == first
        assert Executor(again).annotate(plan).explain() == first


@pytest.mark.parametrize("config", ["hashed", "pref", "patched"])
def test_every_pushed_tpch_plan_certifies(config, tpch_partitioned, small_tpch):
    partitioned = tpch_partitioned[config]
    executor = Executor(partitioned)
    for name, build in sorted(ALL_QUERIES.items()):
        plan = build()
        verdict = certify(executor.annotate(plan), partitioned)
        assert verdict.certified, f"{config} {name}\n{verdict.render()}"
        if push_filters(plan, partitioned) is not plan:
            answers_match(small_tpch, partitioned, plan)


# -- fixed points ------------------------------------------------------------------


def serving_statements() -> list[str]:
    sys.path.insert(0, str(PERF))
    try:
        perf_serve = importlib.import_module("perf_serve")
    finally:
        sys.path.remove(str(PERF))
    templates = [text.format(x=low) for text, (low, _high) in perf_serve.TEMPLATES]
    return list(perf_serve.HOT) + templates


def test_every_serving_statement_is_a_fixed_point(tpch_partitioned, small_tpch):
    partitioned = tpch_partitioned["pref"]
    for text in serving_statements():
        plan = sql_to_plan(text, small_tpch.schema)
        assert push_filters(plan, partitioned) is plan, text
