"""Backend equivalence and the execution-engine facade.

The engine's contract is that every scheduling backend produces identical
rows *and* identical :class:`ExecutionStats` for any plan — parallelism
may change wall-clock interleaving, never the simulated cost model.  This
suite pins that contract on all 22 TPC-H queries (under the schema-driven
PREF design) and on skewed TPC-DS SQL, and covers the facade plumbing:
the cluster's default backend, cost-parameter stamping on results, the
``locality`` ablation switch, per-operator stats, and trace hooks.
"""

import subprocess
import sys
from collections import Counter

import pytest

from helpers import (
    all_hashed_config,
    assert_same_rows,
    patched_shop_config,
    pref_chain_config,
)
from repro.bench import Variant, materialize_variant, tpch_variants
from repro.cluster import SimulatedCluster
from repro.design import QuerySpec, SchemaDrivenDesigner
from repro.engine import (
    ExecutionContext,
    SerialBackend,
    ThreadPoolBackend,
    compile_plan,
    format_operator_stats,
    make_backend,
)
from repro.partitioning import partition_database
from repro.query import CostParameters, ExecOptions, Executor, LocalExecutor
from repro.sql import sql_to_plan
from repro.workloads.tpcds import (
    SMALL_TABLES as TPCDS_SMALL_TABLES,
    generate_tpcds,
)
from repro.workloads.tpch import ALL_QUERIES, SMALL_TABLES


def canonical_stats(stats):
    """Every observable of the cost model, as a comparable tuple."""
    return stats.canonical()


# -- TPC-H: all 22 queries, serial vs thread vs local reference ------------


@pytest.fixture(scope="module")
def tpch_engines(small_tpch):
    specs = [
        QuerySpec.from_plan(name, build(), small_tpch.schema)
        for name, build in ALL_QUERIES.items()
    ]
    variants = tpch_variants(small_tpch, 5, specs, SMALL_TABLES)
    [partitioned] = materialize_variant(
        small_tpch, variants["SD (wo small tables)"]
    )
    pool = ThreadPoolBackend(max_workers=4)
    serial = Executor(partitioned, backend=SerialBackend())
    threaded = Executor(partitioned, backend=pool)
    local = LocalExecutor(small_tpch)
    yield serial, threaded, local
    pool.close()


@pytest.mark.parametrize("name", list(ALL_QUERIES))
def test_tpch_backends_identical(tpch_engines, name):
    serial, threaded, local = tpch_engines
    build = ALL_QUERIES[name]
    serial_result = serial.execute(build())
    threaded_result = threaded.execute(build())
    # Rows must match exactly (same values, same order), not just as sets:
    # concurrent backends reorder work, never output.
    assert threaded_result.rows == serial_result.rows
    assert canonical_stats(threaded_result.stats) == canonical_stats(
        serial_result.stats
    )
    reference = local.execute(build())
    assert_same_rows(serial_result.rows, reference.rows, places=4)


def test_tpch_operator_stats_reconcile(tpch_engines):
    serial, _threaded, _local = tpch_engines
    result = serial.execute(ALL_QUERIES["Q3"]())
    operators = result.operators
    assert operators, "QueryResult.operators should expose the physical plan"
    assert sum(op.network_bytes for op in operators) == result.stats.network_bytes
    assert sum(op.shuffles for op in operators) == result.stats.shuffle_count
    assert (
        sum(op.partitions_scanned for op in operators)
        == result.stats.partitions_scanned
    )
    totals = [0.0] * len(result.stats.node_work)
    for op in operators:
        for node, work in enumerate(op.node_work):
            totals[node] += work
    assert totals == result.stats.node_work


# -- TPC-DS: skewed data, SQL front end ------------------------------------

TPCDS_QUERIES = {
    "yearly_revenue": (
        "SELECT d.d_year AS year, COUNT(*) AS n, SUM(ss.ss_net_paid) AS rev "
        "FROM store_sales ss, date_dim d "
        "WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_quantity > 2 "
        "GROUP BY d.d_year ORDER BY year"
    ),
    "top_brands": (
        "SELECT i.i_brand AS brand, SUM(ss.ss_quantity) AS qty "
        "FROM store_sales ss JOIN item i ON ss.ss_item_sk = i.i_item_sk "
        "GROUP BY i.i_brand ORDER BY qty DESC, brand LIMIT 10"
    ),
    "returned_lines": (
        "SELECT COUNT(*) AS n FROM store_sales ss, store_returns sr "
        "WHERE ss.ss_ticket_number = sr.sr_ticket_number "
        "AND ss.ss_item_sk = sr.sr_item_sk"
    ),
    "items_sold_in_bulk": (
        "SELECT COUNT(*) AS n FROM item i WHERE EXISTS "
        "(SELECT * FROM store_sales ss "
        "WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_quantity > 8)"
    ),
}


@pytest.fixture(scope="module")
def tpcds_engines():
    database = generate_tpcds(scale_factor=0.0002, seed=11)
    sd = SchemaDrivenDesigner(database, 4).design(
        replicate=TPCDS_SMALL_TABLES
    )
    [partitioned] = materialize_variant(database, Variant("SD", [sd.config]))
    pool = ThreadPoolBackend(max_workers=4)
    serial = Executor(partitioned, backend=SerialBackend())
    threaded = Executor(partitioned, backend=pool)
    local = LocalExecutor(database)
    yield database, serial, threaded, local
    pool.close()


@pytest.mark.parametrize("name", list(TPCDS_QUERIES))
def test_tpcds_backends_identical(tpcds_engines, name):
    database, serial, threaded, local = tpcds_engines
    plan = sql_to_plan(TPCDS_QUERIES[name], database.schema)
    serial_result = serial.execute(plan)
    threaded_result = threaded.execute(plan)
    assert threaded_result.rows == serial_result.rows
    assert canonical_stats(threaded_result.stats) == canonical_stats(
        serial_result.stats
    )
    reference = local.execute(plan)
    assert_same_rows(serial_result.rows, reference.rows, places=4)


# -- facade plumbing --------------------------------------------------------


class TestClusterFacade:
    def test_default_backend_is_serial(self, shop_db):
        cluster = SimulatedCluster.partition(shop_db, pref_chain_config(4))
        try:
            assert isinstance(cluster.backend, SerialBackend)
            assert cluster.executor.backend is cluster.backend
        finally:
            cluster.close()

    @pytest.mark.parametrize(
        "name,kind",
        [
            ("serial", SerialBackend),
            ("thread", ThreadPoolBackend),
        ],
    )
    def test_backend_selected_by_name(self, shop_db, name, kind):
        cluster = SimulatedCluster.partition(
            shop_db, pref_chain_config(4), backend=name
        )
        try:
            assert isinstance(cluster.backend, kind)
            # A backend reports (in trace exports) the name that selects it.
            assert cluster.backend.name == name
            result = cluster.sql("SELECT COUNT(*) AS n FROM orders o")
            assert result.rows == [(60,)]
        finally:
            cluster.close()

    def test_make_backend_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_backend("distributed-mainframe")
        with pytest.raises(ValueError, match="unknown engine backend") as raised:
            make_backend("process")
        listed = str(raised.value).split(";", 1)[1]
        assert "'serial'" in listed and "'thread'" in listed
        assert "process" not in listed
        # One name per backend: the old alias is gone.
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_backend("thread_pool")
        backend = SerialBackend()
        assert make_backend(backend) is backend
        assert make_backend(None) is None

    def test_result_carries_cluster_cost(self, shop_db):
        cost = CostParameters(network_bandwidth_bytes=1e6, row_scale=100.0)
        cluster = SimulatedCluster.partition(
            shop_db, pref_chain_config(4), cost=cost
        )
        try:
            result = cluster.sql(
                "SELECT COUNT(*) AS n FROM orders o, lineitem l "
                "WHERE o.orderkey = l.orderkey"
            )
            assert result.cost is cost
            # The no-argument form must price with the cluster's
            # parameters, not the library defaults.
            assert result.simulated_seconds() == pytest.approx(
                result.stats.simulated_seconds(cost)
            )
            assert result.simulated_seconds() != pytest.approx(
                result.stats.simulated_seconds(CostParameters())
            )
        finally:
            cluster.close()

    def test_locality_ablation_shuffles_copartitioned_joins(self, shop_db):
        config = pref_chain_config(4)
        aware = SimulatedCluster.partition(
            shop_db, config, backend=SerialBackend()
        )
        unaware = SimulatedCluster.partition(
            shop_db, config, backend=SerialBackend(),
            options=ExecOptions(locality=False),
        )
        sql = (
            "SELECT c.cname, COUNT(*) AS n FROM customer c, orders o "
            "WHERE c.custkey = o.custkey GROUP BY c.cname ORDER BY c.cname"
        )
        with_locality = aware.sql(sql)
        without_locality = unaware.sql(sql)
        assert_same_rows(without_locality.rows, with_locality.rows)
        assert (
            without_locality.stats.shuffle_count
            > with_locality.stats.shuffle_count
        )
        assert (
            without_locality.stats.network_bytes
            > with_locality.stats.network_bytes
        )


@pytest.mark.parametrize("name", ["process", "bogus", "serial,process"])
@pytest.mark.parametrize("cli", ["explain", "fuzz"])
def test_unknown_backend_name_is_a_usage_error(cli, name, capsys):
    """Both command lines reject a bad ``--backends`` name while parsing
    arguments: exit 2 and a message that lists the valid names."""
    if cli == "explain":
        from repro.__main__ import main

        argv = ["explain", "--analyze", "--backends", name]
    else:
        from repro.fuzz.__main__ import main

        argv = ["--cases", "1", "--backends", name]
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert "unknown engine backend" in message
    assert "serial" in message and "thread" in message
    assert message.count("process") == (name != "bogus")


@pytest.mark.parametrize(
    "module",
    ["repro.cluster", "repro.engine", "repro.query", "repro.engine.operators"],
)
def test_package_first_import_order(module):
    """repro.engine and repro.query import each other's submodules; every
    package must be importable first without re-entering a half-initialised
    module (regression: ``import repro.cluster`` before ``repro.query``)."""
    subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        check=True,
        capture_output=True,
    )


class TestObservability:
    def test_trace_hook_sees_every_phase(self, shop_db, shop_pref):
        partitioned, _config = shop_pref
        events = []
        executor = Executor(partitioned, trace=events.append)
        executor.execute(
            sql_to_plan(
                "SELECT o.custkey, SUM(o.total) AS s FROM orders o "
                "GROUP BY o.custkey ORDER BY s DESC LIMIT 3",
                shop_db.schema,
            )
        )
        assert events
        assert {event.phase for event in events} <= {
            "prepare",
            "exchange",
            "partition",
        }
        assert "partition" in {event.phase for event in events}
        assert all(event.seconds >= 0.0 for event in events)

    def test_pool_runs_only_eligible_phases_on_workers(self, shop_db, shop_pref):
        """A phase leaves the calling thread when it has two or more tasks
        and its operator says ``remote_eligible``; every other phase runs
        inline."""
        partitioned, _config = shop_pref
        plan = sql_to_plan(
            "SELECT c.nationkey AS nk, COUNT(*) AS n FROM customer c, "
            "orders o WHERE c.custkey = o.custkey GROUP BY c.nationkey "
            "ORDER BY nk",
            shop_db.schema,
        )
        root = compile_plan(Executor(partitioned).annotate(plan), partitioned)
        events = []
        ctx = ExecutionContext(partitioned.partition_count, events.append)
        for op in root.walk():
            ctx.register(op)
        with ThreadPoolBackend(max_workers=2) as pool:
            pool.run(root, ctx)
        ops = {op.op_id: op for op in root.walk()}
        counts = Counter((event.op_id, event.phase) for event in events)
        placed = set()
        for event in events:
            op = ops[event.op_id]
            pooled = counts[event.op_id, event.phase] > 1 and (
                op.remote_eligible(event.phase)
            )
            placed.add(pooled)
            on_worker = event.worker.startswith("repro-engine")
            assert on_worker == pooled, (op.label, event.phase, event.worker)
        assert placed == {True, False}

    def test_explain_operators_renders_table(self, shop_db, shop_pref):
        partitioned, _config = shop_pref
        executor = Executor(partitioned)
        result = executor.execute(
            sql_to_plan(
                "SELECT COUNT(*) AS n FROM orders o, lineitem l "
                "WHERE o.orderkey = l.orderkey",
                shop_db.schema,
            )
        )
        text = result.explain_operators()
        assert text == format_operator_stats(result.operators)
        for op in result.operators:
            assert op.label.split()[0] in text
        header = text.splitlines()[0]
        assert "rows out" in header and "parts" in header
        # A counter column appears only when some operator counted it.
        assert "bloom" not in header and "patch" not in header

        plan = sql_to_plan(
            "SELECT c.cname, SUM(l.qty) AS q FROM customer c "
            "JOIN orders o ON c.custkey = o.custkey "
            "JOIN lineitem l ON o.orderkey = l.orderkey "
            "WHERE c.custkey < 5 GROUP BY c.cname",
            shop_db.schema,
        )
        hashed = partition_database(shop_db, all_hashed_config(4))
        result = Executor(hashed, ExecOptions(predicate_transfer=True)).execute(plan)
        pruned = sum(op.bloom_pruned for op in result.operators)
        assert pruned > 0
        header, _rule, *rows = result.explain_operators().splitlines()
        assert "bloom probed" in header and "bloom pruned" in header
        column = header.index("bloom pruned")
        assert sum(int(row[column:].split()[0]) for row in rows) == pruned

        patched = partition_database(shop_db, patched_shop_config())
        result = Executor(patched).execute(plan)
        assert sum(op.patch_rows for op in result.operators) > 0
        assert "patch shipped" in result.explain_operators().splitlines()[0]
