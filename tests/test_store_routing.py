"""Routing is derived state the store owns.

The store keeps one routing memo per target count
(``PartitionedDatabase.router``), and a stored partition keeps the
buckets a shuffle routes it into (``Partition.buckets``) until its next
write.  A route is a pure function of the key and a partition's buckets
are a pure function of its stored columns, so keeping either may change
no answer and no count.  Pinned here:

* warm equals cold: the 22 TPC-H plans under all-hashed, SD-PREF and
  patched-PREF, on every backend — cold, warm, and after each
  ``BulkLoader`` insert, delete and update between the runs — give the
  rows and canonical stats of a fresh store with the same history, and
  every shuffle bucket equals the per-row ``stable_hash(key) % count``
  reference, and every shuffle target is its sources' buckets in source
  order;
* the memo never holds more keys than its bound, and a clear changes no
  answer;
* a repartitioned or migrated cluster starts with no memo;
* the invariant checker has teeth: it catches a mutator that skips its
  drop and a routing memo fed an impure function;
* two served sessions read through the shared memo and kept buckets
  while a writer inserts orders: every answer is a consistent snapshot.
"""

from __future__ import annotations

import sys
import threading
from itertools import count

import pytest

from helpers import (
    BACKENDS,
    all_hashed_config,
    assert_gathered_in_source_order,
    assert_same_rows,
    normalise_rows,
    patch_pref_leaves,
    pref_chain_config,
    reference_buckets,
    routed_buckets,
    run_tree,
    shop_database,
)
from repro.cluster import SimulatedCluster
from repro.design import SchemaDrivenDesigner
from repro.design.baselines import all_hashed
from repro.engine.compile import compile_plan
from repro.engine.operators import PhysicalRepartition
from repro.partitioning import (
    InvariantViolation,
    check_pref_invariants,
    partition_database,
)
from repro.partitioning.bulk_loader import BulkLoader
from repro.partitioning.invariants import check_derived_state
from repro.partitioning.scheme import KeyMemo, stable_hash
from repro.query import Executor, Query
from repro.storage import partitioned as store_module
from repro.storage.partition import Partition
from repro.storage.partitioned import ROUTING_MEMO_KEYS
from repro.workloads.tpch import ALL_QUERIES, SMALL_TABLES

# -- warm equals cold --------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_configs(tiny_tpch):
    pref = SchemaDrivenDesigner(tiny_tpch, 4).design(
        replicate=SMALL_TABLES
    ).config
    return {
        "all_hashed": all_hashed(tiny_tpch, 4),
        "sd_pref": pref,
        "patched_pref": patch_pref_leaves(pref, tiny_tpch.schema),
    }


def tpch_writes(database, config) -> list:
    """The history every store of a sweep goes through: before each run
    after the first two, one ``BulkLoader`` write — new orders with their
    lineitems, a delete from ``part`` (which no scheme references), an
    update of ``o_totalprice``."""
    orders = database.schema.table("orders")
    o_orderkey, o_totalprice = orders.positions(["o_orderkey", "o_totalprice"])
    (l_orderkey,) = database.schema.table("lineitem").positions(["l_orderkey"])
    (p_partkey,) = database.schema.table("part").positions(["p_partkey"])
    assert not config.referencing_tables("part")
    first = max(row[o_orderkey] for row in database.table("orders").rows) + 1
    sources = database.table("orders").rows[:6]
    renumbered = {row[o_orderkey]: first + n for n, row in enumerate(sources)}
    new_orders = [
        row[:o_orderkey] + (renumbered[row[o_orderkey]],) + row[o_orderkey + 1:]
        for row in sources
    ]
    new_lines = [
        row[:l_orderkey] + (renumbered[row[l_orderkey]],) + row[l_orderkey + 1:]
        for row in database.table("lineitem").rows
        if row[l_orderkey] in renumbered
    ]
    assert new_lines

    def bump(row):
        return row[:o_totalprice] + (row[o_totalprice] + 1.0,) + row[o_totalprice + 1:]

    return [
        lambda loader: loader.load({"orders": new_orders, "lineitem": new_lines}),
        lambda loader: loader.delete("part", lambda row: row[p_partkey] % 7 == 0),
        lambda loader: loader.update(
            "orders", lambda row: row[o_orderkey] % 3 == 0, bump
        ),
    ]


def run_plans(partitioned, plans, backend) -> list:
    """Each plan compiled against *partitioned* and run on *backend*:
    ``(rows, canonical stats, {op_id: routed buckets})``."""
    executor = Executor(partitioned)
    outcomes = []
    for plan in plans:
        root = compile_plan(executor.annotate(plan), partitioned)
        stats = run_tree(root, partitioned.partition_count, backend)
        shuffles = [op for op in root.walk() if isinstance(op, PhysicalRepartition)]
        for op in shuffles:
            assert_gathered_in_source_order(op)
        buckets = {op.op_id: routed_buckets(op) for op in shuffles}
        rows = root.partition_batch(0).to_rows()
        outcomes.append((rows, stats.canonical(), buckets))
    return outcomes


def fresh_outcomes(database, config, plans, writes) -> list:
    """Per stage (cold, warm, after each write) what a store with the same
    history that never ran a query answers, with the per-row reference
    buckets of each shuffle."""
    stages = []
    for written in range(1 + len(writes)):
        partitioned = partition_database(database, config)
        loader = BulkLoader(partitioned, config)
        for write in writes[:written]:
            write(loader)
        executor = Executor(partitioned)
        outcome = []
        for plan in plans:
            root = compile_plan(executor.annotate(plan), partitioned)
            stats = run_tree(root, partitioned.partition_count)
            buckets = {
                op.op_id: reference_buckets(op)
                for op in root.walk()
                if isinstance(op, PhysicalRepartition)
            }
            outcome.append(
                (root.partition_batch(0).to_rows(), stats.canonical(), buckets)
            )
        stages.append(outcome)
    return [stages[0], *stages]  # cold and warm share the fresh answer


def kept_buckets(partitioned) -> int:
    """Row indices the store's partitions keep as shuffle buckets."""
    return sum(
        sum(map(len, kept))
        for table in partitioned.tables.values()
        for partition in table.partitions
        for entry, kept in (partition.key_index or {}).items()
        if kept is not None and isinstance(entry[0], tuple)
    )


@pytest.mark.parametrize("design", ["all_hashed", "sd_pref", "patched_pref"])
def test_warm_runs_and_writes_equal_a_fresh_store(tiny_tpch, tpch_configs, design):
    plans = [build() for build in ALL_QUERIES.values()]
    config = tpch_configs[design]
    writes = tpch_writes(tiny_tpch, config)
    expected = fresh_outcomes(tiny_tpch, config, plans, writes)
    for name, make in BACKENDS.items():
        partitioned = partition_database(tiny_tpch, config)
        loader = BulkLoader(partitioned, config)
        backend = make()
        try:
            for stage, reference in enumerate(expected):
                if stage >= 2:
                    writes[stage - 2](loader)
                outcome = run_plans(partitioned, plans, backend)
                for query, got, want in zip(ALL_QUERIES, outcome, reference):
                    assert got == want, (name, stage, query)
                check_pref_invariants(partitioned, config)
        finally:
            backend.close()
        if design == "all_hashed":
            assert partitioned.routers[4] and kept_buckets(partitioned)


# -- the memo's bound --------------------------------------------------------


def test_a_bounded_memo_clears_whole_and_answers_the_same():
    calls = []

    def fn(key):
        calls.append(key)
        return key * 2

    memo = KeyMemo(fn, limit=3)
    for keys in ([1, 2, 1, 3], [4, 4, 5], [1, 6, 7, 8, 9], [9, 9, 8]):
        assert memo.map(keys) == [key * 2 for key in keys]
        assert len(memo) <= 3
    # 4 missed into a full memo and cleared it; 1 was hashed again.
    assert calls.count(1) == 2
    assert KeyMemo(fn).limit is None


def test_the_store_memo_never_exceeds_its_bound(tiny_tpch, monkeypatch):
    """A bound far below the plans' distinct keys forces clears mid-query;
    every answer, count and bucket equals a store whose memo never
    clears."""
    plans = [build() for build in ALL_QUERIES.values()]
    config = all_hashed(tiny_tpch, 4)
    roomy = partition_database(tiny_tpch, config)
    expected = run_plans(roomy, plans, None)
    assert len(roomy.routers[4]) > 200
    monkeypatch.setattr(store_module, "ROUTING_MEMO_KEYS", 50)
    tight = partition_database(tiny_tpch, config)
    for plan, want in zip(plans, expected):
        assert run_plans(tight, [plan], None) == [want]
        assert len(tight.routers[4]) <= 50
    # A clear between runs changes nothing either.
    tight.routers[4].clear()
    assert run_plans(tight, plans, None) == expected


def test_threads_share_a_bounded_router(monkeypatch):
    """More threads than cores and a tiny switch interval map through one
    store router whose bound forces clears: every answer is the per-row
    route, and a race overshoots the bound by at most one key a thread."""
    monkeypatch.setattr(store_module, "ROUTING_MEMO_KEYS", 100)
    route = store_module.PartitionedDatabase(10).router(10)
    column = [((index * 7919) % 5003, f"k{index % 7}") for index in range(6_000)]
    expected = [stable_hash(key) % 10 for key in column]
    results: list = [None] * 8
    start = threading.Barrier(len(results))

    def work(slot):
        start.wait(timeout=30)
        results[slot] = route.map(column[slot:] + column[:slot])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for slot, got in enumerate(results):
        assert got == expected[slot:] + expected[:slot]
    assert len(route) <= 100 + len(results)


def test_the_bound_is_a_measured_constant():
    assert ROUTING_MEMO_KEYS == 1 << 15
    store = store_module.PartitionedDatabase(3)
    route = store.router(3)
    assert route.limit == ROUTING_MEMO_KEYS
    assert store.router(3) is route and store.routers == {3: route}


# -- the memo lives and dies with the store -----------------------------------

JOIN_SQL = (
    "SELECT c.cname, SUM(o.total) AS spent FROM customer c "
    "JOIN orders o ON c.custkey = o.custkey GROUP BY c.cname"
)


def test_repartition_and_migrate_start_with_an_empty_memo(shop_db):
    cluster = SimulatedCluster.partition(shop_db, all_hashed_config(4))
    try:
        expected = cluster.sql(JOIN_SQL).rows
        old = cluster.partitioned
        assert old.routers[4]
        cluster.repartition(pref_chain_config(4))
        assert cluster.partitioned is not old
        assert not cluster.partitioned.routers
        assert_same_rows(cluster.sql(JOIN_SQL).rows, expected)
        with cluster.serve(max_inflight=2) as server:
            assert_same_rows(server.execute(JOIN_SQL).rows, expected)
            before = cluster.partitioned
            server.migrate(all_hashed_config(4))
            assert cluster.partitioned is not before
            assert not cluster.partitioned.routers
            assert_same_rows(server.execute(JOIN_SQL).rows, expected)
            assert cluster.partitioned.routers[4]
    finally:
        cluster.close()


# -- the checker has teeth ---------------------------------------------------

#: orders is hashed on orderkey and shuffled on custkey for this join: a
#: bare stored scan, so every orders partition keeps its buckets.
SHUFFLED_JOIN = (
    Query.scan("customer", alias="c")
    .join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
    .select(["c.cname", "o.orderkey"])
    .plan()
)


def _extend(partition: Partition) -> None:
    partition.extend([(10_000, 10_001, 1.0)], [10_000], [0], [1])


def _compress(partition: Partition) -> None:
    partition.compress([index != 0 for index in range(partition.row_count)])


def _set_row(partition: Partition) -> None:
    orderkey, custkey, total = partition.row(0)
    partition.set_row(0, (orderkey, custkey + 10_001, total))


KEY_MUTATORS = {"extend": _extend, "compress": _compress, "set_row": _set_row}


@pytest.fixture
def shuffled(shop_db):
    partitioned = partition_database(shop_db, all_hashed_config(4))
    Executor(partitioned).execute(SHUFFLED_JOIN)
    orders = partitioned.table("orders")
    assert all(
        ((1,), 4) in (partition.key_index or {}) for partition in orders.partitions
    )
    check_derived_state(partitioned)
    return partitioned


@pytest.mark.parametrize("mutator", list(KEY_MUTATORS))
def test_every_key_mutator_drops_the_buckets(shuffled, mutator):
    partition = shuffled.table("orders").partitions[0]
    KEY_MUTATORS[mutator](partition)
    assert partition.key_index is None
    check_derived_state(shuffled)


@pytest.mark.parametrize("mutator", list(KEY_MUTATORS))
def test_a_mutator_that_keeps_the_buckets_is_caught(
    shuffled, monkeypatch, mutator
):
    """Meta-teeth: the check above fails once a mutator skips the drop."""
    original = getattr(Partition, mutator)

    def keeps_entries(self, *args, **kwargs):
        kept = self.key_index
        original(self, *args, **kwargs)
        self.key_index = kept

    monkeypatch.setattr(Partition, mutator, keeps_entries)
    KEY_MUTATORS[mutator](shuffled.table("orders").partitions[0])
    with pytest.raises(InvariantViolation, match="stale shuffle buckets"):
        check_derived_state(shuffled)


def test_a_memo_fed_an_impure_function_is_caught(shop_db, monkeypatch):
    ticks = count()

    def impure_router(route_count, limit=None):
        return KeyMemo(lambda key: next(ticks) % route_count, limit)

    monkeypatch.setattr(store_module, "hash_router", impure_router)
    config = all_hashed_config(4)
    partitioned = partition_database(shop_db, config)
    Executor(partitioned).execute(SHUFFLED_JOIN)
    with pytest.raises(InvariantViolation):
        check_pref_invariants(partitioned, config)
    # The memo itself is checked, not only the buckets built through it.
    for table in partitioned.tables.values():
        for partition in table.partitions:
            partition.compress([True] * partition.row_count)  # drops entries
    with pytest.raises(InvariantViolation, match="routing memo"):
        check_pref_invariants(partitioned, config)


# -- concurrent sessions -----------------------------------------------------


def test_sessions_share_memo_and_buckets_while_a_writer_inserts():
    """Two sessions run the shuffled join (new literals, so no result-cache
    hits) while a writer inserts orders one at a time.  Every answer
    equals the join over some prefix of the inserts, and afterwards the
    store — memo and kept buckets — passes the checker."""
    database = shop_database(seed=21)
    config = all_hashed_config(4)
    inserts = [(9000 + k, k % 20, float(k)) for k in range(8)]
    cluster = SimulatedCluster.partition(database, config)
    snapshots = []
    for prefix in range(len(inserts) + 1):
        history = shop_database(seed=21)
        history.load("orders", inserts[:prefix])
        fresh = SimulatedCluster.partition(history, config)
        try:
            snapshots.append(
                normalise_rows(fresh.sql(_join_sql(-1)).rows)
            )
        finally:
            fresh.close()
    literals = count(-2, -1)
    literal_lock = threading.Lock()
    failures: list[str] = []
    answers: list = []
    finals: dict[int, object] = {}
    stop = threading.Event()
    server = cluster.serve(max_inflight=2, queue_depth=64)

    def writer():
        try:
            for row in inserts:
                server.insert("orders", [row])
        finally:
            stop.set()

    def reader(index: int):
        session = server.session(f"reader-{index}")
        while True:
            finished = stop.is_set()
            with literal_lock:
                literal = next(literals)
            try:
                rows = session.execute(_join_sql(literal), timeout=60).rows
            except Exception as error:  # noqa: BLE001 - collected
                failures.append(repr(error))
                return
            answers.append(normalise_rows(rows))
            if finished:  # asked after the last insert
                finals[index] = answers[-1]
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(index,)) for index in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        server.close()
    try:
        assert not failures, failures[:3]
        assert all(answer in snapshots for answer in answers)
        assert finals == {0: snapshots[-1], 1: snapshots[-1]}
        partitioned = cluster.partitioned
        assert kept_buckets(partitioned)
        route = partitioned.routers[4]
        assert route and all(
            target == stable_hash(key) % 4 for key, target in route.items()
        )
        check_pref_invariants(partitioned, config)
    finally:
        cluster.close()


def _join_sql(literal: int) -> str:
    """The shuffled join; *literal* makes the text new (the predicate keeps
    every row: customer keys are not negative)."""
    return (
        "SELECT c.cname, o.orderkey, o.total FROM customer c "
        f"JOIN orders o ON c.custkey = o.custkey WHERE c.custkey > {literal}"
    )
