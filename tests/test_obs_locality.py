"""Measured locality (EXPLAIN ANALYZE) vs the design-time estimates.

:func:`repro.design.locality.edge_satisfied` predicts, from schemes
alone, which schema-graph edges join locally; an ``EXPLAIN ANALYZE`` run
measures it — a join span's ``locality`` is 1.0 exactly when no input
rows crossed node boundaries.  These tests pin the two against each
other for every locality case of paper Section 2.2:

* **case 1** — both sides hash-partitioned on the join columns;
* **case 2** — a PREF table joined with its seed on the partitioning
  predicate;
* **case 3** — a PREF table joined with its referenced table where that
  table is itself PREF (chain), plus the same three cases on the
  schema-driven TPC-H PREF configuration.

The ablation direction is covered too: with ``locality=False`` (or a
config that satisfies no edge) the same join must measure below 1.0.
"""

from __future__ import annotations

import pytest

from helpers import pref_chain_config, ref_chain_config
from repro.design.graph import SchemaGraph
from repro.design.locality import (
    config_data_locality,
    edge_satisfied,
    satisfied_edges,
)
from repro.design import SchemaDrivenDesigner
from repro.engine import SerialBackend
from repro.partitioning import HashScheme, PartitioningConfig, partition_database
from repro.partitioning.scheme import ReplicatedScheme
from repro.query import ExecOptions, Executor
from repro.sql import sql_to_plan
from repro.workloads.tpch import ALL_QUERIES, SMALL_TABLES

JOIN_C_O = (
    "SELECT c.cname, o.total FROM customer c "
    "JOIN orders o ON c.custkey = o.custkey"
)
JOIN_O_L = (
    "SELECT o.orderkey, l.qty FROM orders o "
    "JOIN lineitem l ON o.orderkey = l.orderkey"
)


def shop_graph(database) -> SchemaGraph:
    sizes = {name: table.row_count for name, table in database.tables.items()}
    return SchemaGraph.from_schema(database.schema, sizes)


def graph_edge(graph: SchemaGraph, table_a: str, table_b: str):
    for edge in graph.edges:
        if edge.tables == {table_a, table_b}:
            return edge
    raise AssertionError(f"no edge {table_a}-{table_b}")


def traced_join(database, config, sql: str, options=None):
    partitioned = partition_database(database, config)
    executor = Executor(partitioned, options, backend=SerialBackend())
    result = executor.execute(sql_to_plan(sql, database.schema), analyze=True)
    joins = result.trace.joins()
    assert len(joins) == 1
    return joins[0]


def test_case1_hash_hash_join_is_fully_local(shop_db):
    # Both sides hash-partitioned on the join column: locality case 1.
    config = PartitioningConfig(4)
    config.add("customer", HashScheme(("custkey",), 4))
    config.add("orders", HashScheme(("custkey",), 4))
    config.add("lineitem", HashScheme(("linekey",), 4))
    config.add("item", ReplicatedScheme(4))
    config.add("nation", ReplicatedScheme(4))
    edge = graph_edge(shop_graph(shop_db), "customer", "orders")
    assert edge_satisfied(edge, config)
    join = traced_join(shop_db, config, JOIN_C_O)
    assert join.case == "case1"
    assert join.moved_rows == 0
    assert join.locality == 1.0


def test_case2_pref_joined_with_seed(shop_db):
    # orders is PREF-partitioned by lineitem (the seed): locality case 2.
    config = pref_chain_config(4)
    edge = graph_edge(shop_graph(shop_db), "orders", "lineitem")
    assert edge_satisfied(edge, config)
    join = traced_join(shop_db, config, JOIN_O_L)
    assert join.case == "case2"
    assert join.moved_rows == 0
    assert join.locality == 1.0


def test_case3_pref_joined_with_pref_chain(shop_db):
    # customer is PREF-partitioned by orders, which is itself PREF: case 3.
    config = pref_chain_config(4)
    edge = graph_edge(shop_graph(shop_db), "customer", "orders")
    assert edge_satisfied(edge, config)
    join = traced_join(shop_db, config, JOIN_C_O)
    assert join.case == "case3"
    assert join.moved_rows == 0
    assert join.locality == 1.0


def test_case3_ref_chain_variant(shop_db):
    # The REF-like chain gives the same case 3 on lineitem JOIN orders.
    config = ref_chain_config(4)
    edge = graph_edge(shop_graph(shop_db), "orders", "lineitem")
    assert edge_satisfied(edge, config)
    join = traced_join(shop_db, config, JOIN_O_L)
    assert join.case == "case3"
    assert join.locality == 1.0


def test_unsatisfied_edge_measures_below_one(shop_db, shop_hashed):
    # All tables hashed on their own primary keys: customer-orders joins
    # on custkey, which orders is NOT partitioned by, so the estimate
    # says "not local" and the measurement agrees — rows had to move.
    _partitioned, config = shop_hashed
    edge = graph_edge(shop_graph(shop_db), "customer", "orders")
    assert not edge_satisfied(edge, config)
    join = traced_join(shop_db, config, JOIN_C_O)
    assert join.moved_rows > 0
    assert join.locality < 1.0


def test_locality_ablation_forces_movement(shop_db):
    # Same data, same satisfied edge — but with the rewriter's locality
    # cases disabled the join must fall back to shuffling, and the
    # measured locality drops below the estimate.
    config = pref_chain_config(4)
    local = traced_join(shop_db, config, JOIN_C_O)
    shuffled = traced_join(shop_db, config, JOIN_C_O, ExecOptions(locality=False))
    assert local.locality == 1.0
    assert shuffled.case not in ("case1", "case2", "case3")
    assert shuffled.moved_rows > 0
    assert shuffled.locality < 1.0


def test_config_data_locality_matches_edge_census(shop_db):
    graph = shop_graph(shop_db)
    config = pref_chain_config(4)
    satisfied = satisfied_edges(graph, config)
    # pref_chain_config satisfies every edge: the chain covers
    # lineitem-orders, orders-customer and lineitem-item, and nation is
    # replicated (customer-nation is free).
    assert {frozenset(edge.tables) for edge in satisfied} == {
        frozenset(edge.tables) for edge in graph.edges
    }
    assert config_data_locality(graph, config) == 1.0


# -- the same agreement on the schema-driven TPC-H PREF configuration --


@pytest.fixture(scope="module")
def tpch_design(tiny_tpch):
    design = SchemaDrivenDesigner(tiny_tpch, 4).design(replicate=SMALL_TABLES)
    partitioned = partition_database(tiny_tpch, design.config)
    return design, Executor(partitioned, backend=SerialBackend())


def test_tpch_q3_measured_locality_matches_estimate(tiny_tpch, tpch_design):
    design, executor = tpch_design
    sizes = {
        name: table.row_count for name, table in tiny_tpch.tables.items()
    }
    graph = SchemaGraph.from_schema(
        tiny_tpch.schema, sizes, exclude=SMALL_TABLES
    )
    # The designer predicts both Q3 join edges local under its config.
    for pair in (("customer", "orders"), ("orders", "lineitem")):
        assert edge_satisfied(graph_edge(graph, *pair), design.config)
    result = executor.execute(ALL_QUERIES["Q3"](), analyze=True)
    joins = result.trace.joins()
    assert len(joins) == 2
    # Every join ran under a Section 2.2 locality case and, as the
    # estimate promised, moved nothing.
    assert all(j.case in ("case1", "case2", "case3") for j in joins)
    assert all(j.moved_rows == 0 for j in joins)
    assert all(j.locality == 1.0 for j in joins)


def test_tpch_cases_two_and_three_exercised(tiny_tpch):
    # The schema-driven design's seed hash column chains through every
    # PREF predicate, so its joins present as case 1 (previous test).
    # Hashing the seed on a NON-join column instead forces the rewriter
    # through the PREF cases proper: the first chain level joins its
    # seed (case 2), the second joins a table that is itself PREF
    # (case 3) — and both still measure fully local.
    from repro.partitioning import JoinPredicate, PrefScheme

    config = PartitioningConfig(4)
    config.add("lineitem", HashScheme(("l_partkey",), 4))
    config.add(
        "orders",
        PrefScheme(
            "lineitem",
            JoinPredicate.equi("orders", "o_orderkey", "lineitem", "l_orderkey"),
        ),
    )
    config.add(
        "customer",
        PrefScheme(
            "orders",
            JoinPredicate.equi("customer", "c_custkey", "orders", "o_custkey"),
        ),
    )
    for name in tiny_tpch.tables:
        if name not in config:
            config.add(name, ReplicatedScheme(4))
    partitioned = partition_database(tiny_tpch, config)
    executor = Executor(partitioned, backend=SerialBackend())
    graph = shop_graph(tiny_tpch)
    seen = {}
    for pair, sql in (
        (
            ("orders", "lineitem"),
            "SELECT l.l_orderkey FROM lineitem l "
            "JOIN orders o ON l.l_orderkey = o.o_orderkey",
        ),
        (
            ("customer", "orders"),
            "SELECT o.o_orderkey FROM orders o "
            "JOIN customer c ON o.o_custkey = c.c_custkey",
        ),
    ):
        assert edge_satisfied(graph_edge(graph, *pair), config)
        result = executor.execute(
            sql_to_plan(sql, tiny_tpch.schema), analyze=True
        )
        [join] = result.trace.joins()
        assert join.moved_rows == 0
        assert join.locality == 1.0
        seen[join.case] = join
    assert "case2" in seen
    assert "case3" in seen
