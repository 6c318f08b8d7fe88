"""``Executor.execute`` prepares a plan once per store state.

The annotation of a plan (filter pushdown, the Section 2.2 rewrite,
predicate transfer) is a function of the plan and of the tables it
reads, so ``execute`` keeps it with the plan object until one of those
tables is written.  What is checked here:

* a kept annotation is the one a fresh ``annotate`` gives (the 20 TPC-H
  plans under PREF, all-hashed and patched PREF);
* every kind of write to a table the plan reads — each of the five
  places that count writes, every loader write, a dropped effective
  hash, a replaced table, a repartition — makes the next ``execute``
  annotate again, and its answer is the single-node oracle's;
* the entry is keyed by the plan's identity: plans that differ in a
  literal (and compare unequal) never share one, not even when one
  reuses the other's id;
* the entry lives as long as its plan and its executor, no longer;
* readers sharing plan objects across threads get right answers.
"""

from __future__ import annotations

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from helpers import (
    assert_same_rows,
    patched_shop_config,
    pref_chain_config,
    ref_chain_config,
    shop_database,
)

from repro.cluster import SimulatedCluster
from repro.partitioning import (
    HashScheme,
    PartitioningConfig,
    partition_database,
)
from repro.query import ExecOptions, Executor, Query
from repro.query.expressions import col, lit
from repro.query.local_executor import LocalExecutor
from repro.query.plan import AggregateSpec, Filter, Scan
from repro.storage import Database
from repro.workloads.tpch import runtime_queries

N = 4

#: lineitem JOIN orders, a pushed-down filter, grouped by customer.
JOIN = (
    Query.scan("lineitem", alias="l")
    .join(Query.scan("orders", alias="o"), on=[("l.orderkey", "o.orderkey")])
    .where(col("l.qty") > lit(2))
    .aggregate(
        ["o.custkey"],
        [("count", None, "n"), ("sum", col("l.qty"), "qty")],
    )
    .plan()
)


@pytest.fixture
def annotations(monkeypatch):
    """The plans ``Executor.annotate`` was called with, in order."""
    calls = []
    annotate = Executor.annotate

    def counted(self, plan):
        calls.append(plan)
        return annotate(self, plan)

    monkeypatch.setattr(Executor, "annotate", counted)
    return calls


def _cluster(config) -> SimulatedCluster:
    return SimulatedCluster.partition(shop_database(seed=3), config)


def _oracle(cluster, plan) -> list:
    """*plan* on one node over the logical rows the store holds."""
    database = Database(cluster.schema)
    for name in cluster.partitioned.table_names:
        database.load(
            name, list(cluster.partitioned.table(name).canonical_rows())
        )
    return LocalExecutor(database).execute(plan).rows


def _runs_right(cluster, plan) -> None:
    assert_same_rows(cluster.run(plan).rows, _oracle(cluster, plan))


# -- a kept annotation is a fresh one ------------------------------------------


@pytest.mark.parametrize("config", ["sd_pref", "all_hashed", "patched_pref"])
@pytest.mark.parametrize("predicate_transfer", [False, True])
def test_a_kept_annotation_is_the_fresh_one(
    tpch_stores, config, predicate_transfer, annotations
):
    executor = Executor(
        tpch_stores[config], ExecOptions(predicate_transfer=predicate_transfer)
    )
    plans = runtime_queries()
    assert len(plans) == 20
    for plan in plans.values():
        first = executor.execute(plan)
        kept = executor.execute(plan)
        assert kept.plan is first.plan
        assert kept.rows == first.rows
        assert kept.stats.canonical() == first.stats.canonical()
    assert len(annotations) == len(plans)
    for plan in plans.values():
        fresh = executor.annotate(plan)
        assert fresh is not executor.annotate(plan)  # annotate keeps nothing
        assert executor.execute(plan).plan.explain() == fresh.explain()
    assert len(annotations) == 3 * len(plans)


def test_each_executor_keeps_its_own_annotation(tpch_stores, annotations):
    plan = runtime_queries()["Q3"]
    pref = Executor(tpch_stores["sd_pref"])
    hashed = Executor(tpch_stores["all_hashed"])
    for _run in range(2):
        on_pref = pref.execute(plan).plan
        on_hashed = hashed.execute(plan).plan
    assert len(annotations) == 2
    assert on_pref.explain() == pref.annotate(plan).explain()
    assert on_hashed.explain() == hashed.annotate(plan).explain()
    assert on_pref.explain() != on_hashed.explain()


# -- every write makes the next execute annotate again -------------------------


def _first(table):
    return next(p for p in table.partitions if p.row_count)


#: One write through each place that counts writes, on the table the
#: plan reads: the three partition mutators and the two patch writers.
COUNTED_WRITES = {
    "extend": lambda table: _first(table).append(
        _first(table).row(0), table.allocate_source_id(), duplicate=True
    ),
    "compress": lambda table: _first(table).compress(
        [True] * (_first(table).row_count - 1) + [False]
    ),
    "set_row": lambda table: _first(table).set_row(0, _first(table).row(0)),
    "add_patch": lambda table: table.add_patch(
        1, _first(table).row(0), _first(table).source_ids[0]
    ),
    # A patch-list-only delete: no partition is written.
    "replace_patches": lambda table: table.replace_patches(
        {min(table.patches): table.patches[min(table.patches)]}
    ),
}


@pytest.mark.parametrize("write", list(COUNTED_WRITES))
def test_every_counted_write_makes_the_next_execute_annotate(
    annotations, write
):
    cluster = _cluster(patched_shop_config(N))
    orders = cluster.partitioned.table("orders")
    assert orders.patch_count
    cluster.run(JOIN)
    cluster.run(JOIN)
    assert len(annotations) == 1
    stored = [p.writes for p in orders.partitions]
    COUNTED_WRITES[write](orders)
    if write in ("add_patch", "replace_patches"):
        assert [p.writes for p in orders.partitions] == stored
    cluster.run(JOIN)
    assert len(annotations) == 2
    cluster.run(JOIN)
    assert len(annotations) == 2


def test_a_write_to_a_table_the_plan_does_not_read_keeps_it(annotations):
    cluster = _cluster(pref_chain_config(N))
    cluster.run(JOIN)
    cluster.loader.update(
        "item", lambda row: True, lambda row: (row[0], row[1] + "!")
    )
    _runs_right(cluster, JOIN)
    assert len(annotations) == 1


#: Loader writes to a table JOIN reads, under the PREF chain (stored
#: duplicates, maintained referencing tables) and under patched PREF.
LOADER_WRITES = {
    "insert": lambda loader: loader.insert(
        "orders", [(500, 3, 7.0), (501, 4, 8.0)]
    ),
    "insert_lineitem": lambda loader: loader.insert(
        "lineitem", [(900 + k, k % 5, 1, 9) for k in range(8)]
    ),
    "delete": lambda loader: loader.delete("lineitem", lambda row: row[1] % 3 == 0),
    "update": lambda loader: loader.update(
        "lineitem",
        lambda row: row[1] % 2 == 0,
        lambda row: (*row[:3], 1),
    ),
}


@pytest.mark.parametrize("config", ["pref", "patched"])
@pytest.mark.parametrize("write", list(LOADER_WRITES))
def test_every_loader_write_makes_the_next_execute_annotate(
    annotations, config, write
):
    cluster = _cluster(
        pref_chain_config(N) if config == "pref" else patched_shop_config(N)
    )
    _runs_right(cluster, JOIN)
    _runs_right(cluster, JOIN)
    assert len(annotations) == 1
    LOADER_WRITES[write](cluster.loader)
    _runs_right(cluster, JOIN)
    assert len(annotations) == 2


def test_a_dropped_effective_hash_makes_the_next_execute_annotate(annotations):
    # Without orphans the orders chain verifies as hashed on custkey.
    cluster = SimulatedCluster.partition(
        shop_database(seed=3, orphans=False), ref_chain_config(N)
    )
    orders = cluster.partitioned.table("orders")
    assert orders.effective_hash == ("custkey",)
    plan = (
        Query.scan("orders", alias="o")
        .aggregate(["o.custkey"], [("count", None, "n")])
        .plan()
    )
    local = cluster.run(plan).plan.explain()
    orders.effective_hash = None
    _runs_right(cluster, plan)
    assert len(annotations) == 2
    # The kept annotation would have been wrong to keep: without the
    # verified hash the aggregate is no longer local.
    assert cluster.run(plan).plan.explain() != local
    assert len(annotations) == 2


def _hashed(**columns: str) -> PartitioningConfig:
    """Every shop table hashed on its key, or on ``columns[table]``."""
    keys = {
        "customer": "custkey", "orders": "orderkey", "lineitem": "linekey",
        "item": "itemkey", "nation": "nationkey",
    }
    config = PartitioningConfig(N)
    for table, key in {**keys, **columns}.items():
        config.add(table, HashScheme((key,), N))
    return config


def test_a_replaced_table_makes_the_next_execute_annotate(annotations):
    """A table swapped for one with equal write counts, placed on
    another column: only the table's identity tells them apart, and the
    kept annotation (a local join) would drop matches."""
    database = shop_database(seed=3)
    config = _hashed(lineitem="orderkey")
    cluster = SimulatedCluster(
        database.schema, partition_database(database, config), config
    )
    _runs_right(cluster, JOIN)
    assert "Repartition" not in cluster.run(JOIN).plan.explain()
    swapped = partition_database(database, _hashed(orders="custkey")).table(
        "orders"
    )
    old = cluster.partitioned.table("orders")
    assert [p.writes for p in swapped.partitions] == [
        p.writes for p in old.partitions
    ]
    assert (swapped.writes, swapped.effective_hash) == (
        old.writes, old.effective_hash,
    )
    cluster.partitioned._tables["orders"] = swapped
    _runs_right(cluster, JOIN)
    assert len(annotations) == 2
    assert "Repartition" in cluster.run(JOIN).plan.explain()


def test_a_repartition_makes_the_next_run_annotate(annotations):
    cluster = _cluster(pref_chain_config(N))
    _runs_right(cluster, JOIN)
    cluster.repartition(_hashed())
    _runs_right(cluster, JOIN)
    _runs_right(cluster, JOIN)
    assert len(annotations) == 2


# -- keyed by identity ----------------------------------------------------------


def _orders_total(op: str, value: float) -> Filter:
    column = col("orders.total")
    condition = column > lit(value) if op == ">" else column < lit(value)
    return Filter(Scan("orders"), condition)


def test_plan_nodes_compare_by_identity():
    above = _orders_total(">", 1.0)
    below = _orders_total("<", 999.0)
    assert above != below
    assert above == above
    assert Scan("orders") != Scan("orders")
    assert AggregateSpec("count", None, "n") != AggregateSpec("count", None, "n")
    assert len({above, below, Scan("orders"), Scan("orders")}) == 4


def test_a_plan_differing_in_a_literal_gets_its_own_annotation(annotations):
    cluster = _cluster(pref_chain_config(N))
    totals = [row[2] for row in cluster.partitioned.table("orders").canonical_rows()]
    above = _orders_total(">", 50.0)
    below = _orders_total("<", 50.0)
    for _run in range(2):
        assert len(cluster.run(above).rows) == sum(t > 50.0 for t in totals)
        assert len(cluster.run(below).rows) == sum(t < 50.0 for t in totals)
    assert len(annotations) == 2
    assert annotations[0] is above and annotations[1] is below
    # Fresh plans, each dropped after its run, so ids are reused: every
    # one is annotated and answers for its own literal.
    for value in range(0, 100, 4):
        plan = _orders_total("<", float(value))
        assert len(cluster.run(plan).rows) == sum(t < value for t in totals)
        del plan
        gc.collect()
    assert len(annotations) == 2 + 25


# -- lifetime ---------------------------------------------------------------------


def test_a_collected_plan_takes_its_entry_along():
    cluster = _cluster(pref_chain_config(N))
    plan = (
        Query.scan("orders", alias="o")
        .join(Query.scan("customer", alias="c"), on=[("o.custkey", "c.custkey")])
        .select(["o.orderkey", "c.cname"])
        .plan()
    )
    result = cluster.run(plan)
    assert cluster.run(plan).plan is result.plan
    kept = [weakref.ref(plan), weakref.ref(result.plan)]
    del plan, result
    gc.collect()
    assert [ref() for ref in kept] == [None, None]


def test_a_kept_annotation_does_not_keep_its_executor(tpch_stores):
    plan = runtime_queries()["Q5"]
    executor = Executor(tpch_stores["sd_pref"])
    executor.execute(plan)
    executor.execute(plan)
    gone = weakref.ref(executor)
    del executor
    gc.collect()
    assert gone() is None
    # The plan still runs on a new executor, which annotates it afresh.
    fresh = Executor(tpch_stores["sd_pref"])
    assert fresh.execute(plan).plan.explain() == fresh.annotate(plan).explain()


def test_threads_sharing_plans_get_right_answers(tpch_stores):
    """Readers on several threads execute the same plan objects on one
    executor: a race on the entry may annotate twice, never answer
    wrong."""
    executor = Executor(tpch_stores["sd_pref"])
    plans = [runtime_queries()[name] for name in ("Q3", "Q5", "Q10")]
    expected = [Executor(tpch_stores["sd_pref"]).execute(plan).rows for plan in plans]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(lambda plan: executor.execute(plan).rows, plan)
                for _round in range(6)
                for plan in plans
            ]
            answers = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    assert answers == expected * 6
