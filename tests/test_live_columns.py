"""Live-column execution: operators materialise only what an ancestor reads.

The compiler's last pass (``engine.compile.assign_live_columns``) gives
every physical operator the output positions some ancestor reads; a dead
column is an absent slot in the operator's batches.  Four things are
pinned here:

* nothing observable moves — rows, ``stats.canonical()`` and
  ``trace.canonical()`` on every backend, with and without predicate
  transfer, equal the single-node oracle and each other;
* the batches really are narrow (these fail on full-width execution);
* plans with nothing on top to prune for still return every column;
* a read the pass did not provide for raises — it never yields NULL.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    BACKENDS,
    all_hashed_config,
    assert_same_rows,
    compiled,
    pref_chain_config,
    run_tree,
)
from repro.engine.operators import PhysicalHashJoin, PhysicalRepartition
from repro.engine.rows import ColumnBatch
from repro.errors import ExecutionError, PlanningError
from repro.fuzz import ir
from repro.fuzz.generator import generate_case
from repro.partitioning import partition_database
from repro.query import ExecOptions, Executor, Query
from repro.query.expressions import col, lit, resolve_column
from repro.query.local_executor import LocalExecutor
from repro.query.plan import (
    Aggregate,
    BloomProbe,
    DedupFilter,
    Filter,
    Join,
    JoinKind,
    PartnerFilter,
    Project,
    Repartition,
)
from repro.query.relation import has_column
from repro.sql import sql_to_plan
from repro.workloads.tpch import ALL_QUERIES


def live_names(op) -> set[str]:
    return {op.props.columns[index] for index in op.live}


def operator(root, name, over=None):
    """The one *name* operator (whose first input is labelled *over*)."""
    [found] = [
        op
        for op in root.walk()
        if op.name == name
        and (over is None or op.inputs[0].label == over)
    ]
    return found


def make_fully_live(root) -> None:
    """Undo the live-column pass: the full-width reference execution."""
    for op in root.walk():
        op.live = frozenset(range(op.width))
        if isinstance(op, PhysicalHashJoin):
            op.left_out = op.inputs[0].live
            op.right_out = op.inputs[1].live


# -- (a) nothing observable moves -------------------------------------------


@pytest.fixture(scope="module")
def tpch_reference(tiny_tpch):
    local = LocalExecutor(tiny_tpch)
    return {name: local.execute(build()) for name, build in ALL_QUERIES.items()}


@pytest.mark.parametrize("predicate_transfer", [False, True])
@pytest.mark.parametrize("config", ["sd_pref", "all_hashed", "patched_pref"])
def test_tpch_answers_stats_and_traces_hold_on_every_backend(
    tpch_stores, tpch_reference, config, predicate_transfer
):
    partitioned = tpch_stores[config]
    backends = {name: make() for name, make in BACKENDS.items()}
    executors = {
        name: Executor(
            partitioned,
            ExecOptions(predicate_transfer=predicate_transfer),
            backend=backend,
        )
        for name, backend in backends.items()
    }
    try:
        for query, build in ALL_QUERIES.items():
            results = {
                name: executor.execute(build(), analyze=True)
                for name, executor in executors.items()
            }
            serial = results["serial"]
            reference = tpch_reference[query]
            assert serial.columns == reference.columns, query
            assert_same_rows(serial.rows, reference.rows, places=4)
            other = results["thread"]
            assert other.rows == serial.rows, query
            assert other.stats.canonical() == serial.stats.canonical()
            assert other.trace.canonical() == serial.trace.canonical()
    finally:
        for backend in backends.values():
            backend.close()


# -- (b) the batches are narrow ---------------------------------------------


def test_every_stored_batch_holds_exactly_the_live_columns(tpch_stores):
    """All 22 plans, both designs: whatever an operator stores or routes
    has the operator's live columns present and nothing else."""
    pruned_somewhere = False
    for config in ("all_hashed", "sd_pref"):
        partitioned = tpch_stores[config]
        for build in ALL_QUERIES.values():
            root = compiled(partitioned, build())
            run_tree(root, partitioned.partition_count)
            for op in root.walk():
                batches = [op.partition_batch(p) for p in range(op.output_count)]
                if isinstance(op, PhysicalRepartition):
                    batches += [routed for routed, _ in op.prepared.values()]
                for batch in batches:
                    assert batch.width == op.width
                    if batch.length:  # an empty batch has nothing to hold
                        assert batch.present() == op.live, op.label
                pruned_somewhere |= len(op.live) < op.width
    assert pruned_somewhere


def test_q7_all_hashed_shuffles_only_live_columns(tpch_stores):
    partitioned = tpch_stores["all_hashed"]
    root = compiled(partitioned, ALL_QUERIES["Q7"]())
    run_tree(root, partitioned.partition_count)
    shuffle = operator(root, "repartition", over="scan(lineitem)")
    # Routed on l_suppkey; joined on l_orderkey above; the revenue
    # expression reads the other two.  11 lineitem columns stay behind.
    expected = {
        "l.l_orderkey", "l.l_suppkey", "l.l_extendedprice", "l.l_discount",
    }
    assert live_names(shuffle) == expected
    assert live_names(shuffle.inputs[0]) == expected
    assert shuffle.width == 15
    routed = [b for b, _ in shuffle.prepared.values() if b.length]
    assert routed
    for batch in routed:
        assert batch.present() == shuffle.live
    # No shuffle of the plan routes a column nothing above reads: the
    # widest (38-column rows under full-width execution) carries four.
    for op in root.walk():
        if isinstance(op, PhysicalRepartition):
            assert len(op.live) <= 4 < op.width


def test_q6_scan_materialises_only_what_q6_references(tpch_stores):
    partitioned = tpch_stores["all_hashed"]
    root = compiled(partitioned, ALL_QUERIES["Q6"]())
    run_tree(root, partitioned.partition_count)
    scan = operator(root, "scan")
    assert live_names(scan) == {
        "l.l_shipdate", "l.l_discount", "l.l_quantity", "l.l_extendedprice",
    }
    # The filter drops its predicate-only columns on the way out.
    assert live_names(operator(root, "filter")) == {
        "l.l_discount", "l.l_extendedprice",
    }
    stored = scan.table.partitions[0]
    batch = scan.partition_batch(0)
    for index, column in enumerate(batch.columns):
        if index in scan.live:
            assert column is stored.columns[index]  # still aliased, uncopied
        else:
            assert column is None


@pytest.mark.parametrize("kind", [JoinKind.SEMI, JoinKind.ANTI])
def test_semi_anti_build_side_carries_keys_and_residual_only(shop_db, kind):
    partitioned = partition_database(shop_db, all_hashed_config(4))
    plan = (
        Query.scan("customer", alias="c")
        .join(
            Query.scan("orders", alias="o"),
            on=[("c.custkey", "o.custkey")],
            kind=kind,
            residual=col("o.total") > lit(100.0),
        )
        .aggregate(aggregates=[("count", None, "n")])
        .plan()
    )
    root = compiled(partitioned, plan)
    run_tree(root, partitioned.partition_count)
    join = operator(root, "join")
    probe, build = join.inputs
    assert live_names(build) == {"o.custkey", "o.total"}
    assert live_names(probe) == {"c.custkey"}
    assert join.live == frozenset()  # COUNT(*) above reads no column
    reference = LocalExecutor(shop_db).execute(plan)
    assert Executor(partitioned).execute(plan).rows == reference.rows


# -- (c) nothing on top to prune for ----------------------------------------

UNPROJECTED_SQL = [
    "SELECT * FROM customer c JOIN orders o ON c.custkey = o.custkey",
    "SELECT * FROM customer c LEFT JOIN orders o ON c.custkey = o.custkey",
    "SELECT * FROM nation n, item i WHERE n.nationkey < i.itemkey",
    "SELECT DISTINCT o.custkey, o.total FROM orders o",
    "SELECT * FROM orders o ORDER BY o.total, o.orderkey",
]


@pytest.mark.parametrize("config", [pref_chain_config, all_hashed_config])
@pytest.mark.parametrize("sql", UNPROJECTED_SQL)
def test_unprojected_plans_return_every_column_in_order(shop_db, config, sql):
    from repro.cluster import SimulatedCluster

    cluster = SimulatedCluster.partition(shop_db, config(4), backend="serial")
    try:
        result = cluster.sql(sql)
    finally:
        cluster.close()
    reference = LocalExecutor(shop_db).execute(sql_to_plan(sql, shop_db.schema))
    assert result.columns == reference.columns
    assert all(len(row) == len(result.columns) for row in result.rows)
    if "ORDER BY" in sql:
        assert result.rows == reference.rows
    else:
        assert_same_rows(result.rows, reference.rows)
    if "LEFT JOIN" in sql:
        assert any(row[3] is None for row in result.rows)  # a padded row


def test_order_by_on_a_column_the_output_drops(shop_db):
    """The sort reads whole rows, so its input stays complete even though
    the projection above keeps one column."""
    partitioned = partition_database(shop_db, all_hashed_config(4))
    plan = (
        Query.scan("orders", alias="o")
        .order_by([("o.total", False), "o.orderkey"], limit=7)
        .select(["o.orderkey"])
        .plan()
    )
    root = compiled(partitioned, plan)
    sort = operator(root, "order_by")
    assert len(sort.live) == sort.width == len(sort.inputs[0].live)
    result = Executor(partitioned).execute(plan)
    assert result.rows == LocalExecutor(shop_db).execute(plan).rows
    assert result.columns == ("orderkey",)


# -- (d) reads are always provided for --------------------------------------


def declared_reads(op) -> set[int]:
    """The child positions *op* reads, from its logical node alone — the
    specification the live-column pass has to satisfy."""
    node = op.annotated.node
    child = op.inputs[0].props
    whole = set(range(len(child.columns)))
    if op.name in ("gather", "order_by"):
        return whole
    if op.name == "dedup":  # the implicit final dedup has no plan node
        return set(child.positions(child.governing))
    if isinstance(node, (Filter, Project, Aggregate)):
        if isinstance(node, Filter):
            expressions = [node.condition]
        elif isinstance(node, Project):
            expressions = [expr for _name, expr in node.outputs]
        else:
            expressions = [col(name) for name in node.group_by]
            expressions += [s.expr for s in node.aggregates if s.expr]
        return {
            child.position(name)
            for expression in expressions
            for name in expression.referenced_columns()
        }
    if isinstance(node, DedupFilter):
        return set(child.positions(child.governing))
    if isinstance(node, PartnerFilter):
        return {child.position(has_column(node.table))}
    if isinstance(node, BloomProbe):
        return {
            p for f in op.annotated.extra.get("bloom", ()) for p in f.positions
        }
    if isinstance(node, Repartition):
        if op.annotated.extra.get("distinct") == "local":
            return whole
        reads = set(child.positions(node.keys))
        if node.dedup:
            reads |= set(child.positions(child.governing))
        return reads
    raise AssertionError(f"no read specification for {op.label}")


def check_reads_are_live(root) -> None:
    for op in root.walk():
        if isinstance(op, PhysicalHashJoin):
            node: Join = op.annotated.node
            left, right = op.inputs
            combined = left.props.columns + right.props.columns
            reads = [
                {left.props.position(l) for l, _ in node.on},
                {right.props.position(r) for _, r in node.on},
            ]
            if node.residual is not None:
                for name in node.residual.referenced_columns():
                    position = resolve_column(name, combined)
                    if position < left.width:
                        reads[0].add(position)
                    else:
                        reads[1].add(position - left.width)
            # What the join emits of each side must be there to emit.
            semi = node.kind in (JoinKind.SEMI, JoinKind.ANTI)
            reads[0] |= {q for q in op.live if q < left.width}
            if not semi:
                reads[1] |= {
                    q - left.width for q in op.live if q >= left.width
                }
            assert reads[0] <= left.live, op.label
            assert reads[1] <= right.live, op.label
        elif op.inputs:
            (child,) = op.inputs
            assert declared_reads(op) <= child.live, op.label
            if op.name in ("filter", "bloom_probe", "dedup", "partner_filter",
                           "repartition"):
                assert op.live <= child.live, op.label  # pass-through


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 50), index=st.integers(0, 400))
def test_every_read_is_live_on_generated_plans(seed, index):
    """Over the fuzz generator's schemas, configs and SPJA plans: every
    operator's reads are in its child's live set, and the pruned run
    equals the full-width run of the same compiled plan — rows in order
    and every counter."""
    case = generate_case(seed, index)
    database = ir.build_database(case)
    config = ir.build_config(case)
    config.validate(database.schema)
    partitioned = partition_database(database, config)
    for query in case["queries"]:
        plan = ir.build_plan(query)
        for options in (ExecOptions(), ExecOptions(**case["variant"])):
            pruned = compiled(partitioned, plan, options)
            check_reads_are_live(pruned)
            full = compiled(partitioned, plan, options)
            make_fully_live(full)
            count = partitioned.partition_count
            pruned_stats = run_tree(pruned, count)
            full_stats = run_tree(full, count)
            assert (
                pruned.partition_batch(0).to_rows()
                == full.partition_batch(0).to_rows()
            )
            assert pruned_stats.canonical() == full_stats.canonical()


# -- fail loudly, never pad -------------------------------------------------


@pytest.fixture(scope="module")
def shop_hashed_store(shop_db):
    return partition_database(shop_db, all_hashed_config(4))


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize(
    "victim, column",
    [
        ("scan", "o.total"),  # the filter's predicate column
        ("filter", "o.custkey"),  # the aggregate's grouping column
        ("filter", "o.orderkey"),  # the SUM argument: must not turn into COUNT
    ],
)
def test_reading_a_dead_column_raises_on_every_backend(
    shop_hashed_store, backend, victim, column
):
    plan = (
        Query.scan("orders", alias="o")
        .where(col("o.total") > lit(10.0))
        .aggregate(
            group_by=["o.custkey"],
            aggregates=[("sum", col("o.orderkey"), "s")],
        )
        .plan()
    )
    root = compiled(shop_hashed_store, plan)
    op = operator(root, victim)
    op.live -= {op.props.position(column)}
    runner = BACKENDS[backend]()
    try:
        with pytest.raises(ExecutionError, match="pruned"):
            run_tree(root, shop_hashed_store.partition_count, runner)
    finally:
        runner.close()


def test_row_views_of_a_pruned_batch_raise():
    batch = ColumnBatch([[1, 2], None, ["a", "b"]], 2)
    for view in (batch.to_rows, batch.iter_rows, lambda: batch.select([1])):
        with pytest.raises(ExecutionError, match="column 1 was pruned"):
            view()
    assert batch.select([2, 0]).to_rows() == [("a", 1), ("b", 2)]
    # Both batch evaluators see the referenced columns and nothing else:
    # a pruned column the expression never names is not touched, one it
    # does name raises, and an expression reading a column it did not
    # declare fails loudly instead of reading NULL.
    from repro.query.expressions import Expression

    batch = ColumnBatch([[1, 2], None, ["a", None]], 2)
    names = ["a", "b", "c"]
    assert (col("a") < lit(2)).bind_batch(names)(batch) == [True, False]
    # NULL-bearing column: the row closure, over columns a and c only.
    assert (col("c") == lit("a")).bind_batch(names)(batch) == [True, None]
    with pytest.raises(ExecutionError, match="column 1 was pruned"):
        (col("a") < col("b")).bind_batch(names)(batch)

    class Opaque(Expression):
        def bind(self, columns):
            return lambda row: row[0]

    with pytest.raises(IndexError):
        Opaque().bind_batch(names)(batch)

    class Sneaky(Expression):
        def referenced_columns(self):
            return ("c",)

        def bind(self, columns):
            position = resolve_column("b", columns)
            return lambda row: row[position]

    with pytest.raises(PlanningError, match="unknown column 'b'"):
        Sneaky().bind_batch(names)


def test_pruned_batch_pickles_as_it_is():
    batch = ColumnBatch([[1, None, 3], None, ["x", "y", "z"], None], 3)
    clone = pickle.loads(pickle.dumps(batch))
    assert clone == batch
    assert clone.columns[1] is None and clone.columns[3] is None
    assert clone.present() == frozenset({0, 2})
    assert clone.width == 4 and clone.length == 3
