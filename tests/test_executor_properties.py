"""Property-based cross-checking of the distributed executor."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    all_hashed_config,
    assert_same_rows,
    pref_chain_config,
    ref_chain_config,
    shop_database,
)
from repro.partitioning import partition_database
from repro.query import ExecOptions, Executor, JoinKind, LocalExecutor, Query
from repro.query.expressions import col, lit

CONFIGS = [pref_chain_config, ref_chain_config, all_hashed_config]

JOIN_EDGES = [
    ("lineitem", "l", "orders", "o", "l.orderkey", "o.orderkey"),
    ("orders", "o", "customer", "c", "o.custkey", "c.custkey"),
    ("lineitem", "l", "item", "i", "l.itemkey", "i.itemkey"),
    ("customer", "c", "nation", "n", "c.nationkey", "n.nationkey"),
]


@st.composite
def join_plans(draw):
    """Random two-table joins with optional filters and aggregation."""
    left_table, left_alias, right_table, right_alias, lk, rk = draw(
        st.sampled_from(JOIN_EDGES)
    )
    kind = draw(
        st.sampled_from(
            [JoinKind.INNER, JoinKind.SEMI, JoinKind.ANTI, JoinKind.LEFT_OUTER]
        )
    )
    swap = draw(st.booleans())
    left = Query.scan(left_table, alias=left_alias)
    right = Query.scan(right_table, alias=right_alias)
    left_is_orders = left_alias == "o"
    if swap:
        left, right, lk, rk = right, left, rk, lk
        left_is_orders = right_alias == "o"
    filter_orders = draw(st.booleans())
    threshold = draw(st.integers(min_value=0, max_value=100))
    if filter_orders and "o" in (left_alias, right_alias):
        condition = col("o.total") >= lit(float(threshold))
        if left_is_orders:
            left = left.where(condition)
        else:
            right = right.where(condition)
    joined = left.join(right, on=[(lk, rk)], kind=kind)
    return joined.aggregate(aggregates=[("count", None, "cnt")]).plan()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    plan=join_plans(),
    seed=st.integers(min_value=0, max_value=500),
    config_index=st.integers(min_value=0, max_value=2),
    n=st.integers(min_value=1, max_value=7),
    optimizations=st.booleans(),
)
def test_random_joins_match_reference(plan, seed, config_index, n, optimizations):
    database = shop_database(seed=seed, customers=12, orders=30, lineitems=70)
    config = CONFIGS[config_index](n)
    partitioned = partition_database(database, config)
    executor = Executor(partitioned, ExecOptions(optimizations=optimizations))
    local = LocalExecutor(database)
    assert_same_rows(executor.execute(plan).rows, local.execute(plan).rows)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    n=st.integers(min_value=1, max_value=6),
    group_column=st.sampled_from(["o.custkey", "o.orderkey"]),
    func=st.sampled_from(["sum", "count", "avg", "min", "max"]),
)
def test_random_aggregations_match_reference(seed, n, group_column, func):
    database = shop_database(seed=seed, customers=10, orders=40, lineitems=60)
    config = pref_chain_config(n)
    partitioned = partition_database(database, config)
    expr = None if func == "count" else col("o.total")
    plan = (
        Query.scan("orders", alias="o")
        .aggregate(group_by=[group_column], aggregates=[(func, expr, "v")])
        .order_by([group_column])
        .plan()
    )
    executor = Executor(partitioned)
    local = LocalExecutor(database)
    assert_same_rows(executor.execute(plan).rows, local.execute(plan).rows)
