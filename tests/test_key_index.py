"""A join's hash table is kept per stored partition and dropped by writes.

A join whose build side is a bare stored partition probes that
partition's key index (``Partition.key_index``): the table is built
compact on the second build since the last write and kept until the next
one.  It can only be right if every write drops it.  Each of the four
mutators, the bulk loader's insert/delete/update and a served write are
driven here as query, write, query: the answer must equal
``LocalExecutor`` over what is stored, and the written partitions must
hold no index.  A meta-test shows that check has teeth, a property pins
the index's shape against a naive grouping, and the TPC-H sweep shows
that probing kept indexes changes nothing: warm runs give the cold runs'
rows and canonical stats on every backend.
"""

from __future__ import annotations

import sys
from array import array
from concurrent.futures import ThreadPoolExecutor
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BACKENDS,
    assert_same_rows,
    compiled,
    patch_pref_leaves,
    shop_schema,
)
from repro.cluster import SimulatedCluster
from repro.design import SchemaDrivenDesigner
from repro.design.baselines import all_hashed
from repro.engine.context import ExecutionContext
from repro.engine.rows import ColumnBatch
from repro.partitioning import (
    HashScheme,
    InvariantViolation,
    JoinPredicate,
    PartitioningConfig,
    PatchedPrefScheme,
    PrefScheme,
    check_pref_invariants,
    partition_database,
)
from repro.query import Executor, Query
from repro.query.local_executor import LocalExecutor
from repro.sql.planner import sql_to_plan
from repro.storage import Database
from repro.storage.partition import Partition, build_key_table
from repro.workloads.tpch import ALL_QUERIES, SMALL_TABLES

N = 2
CUSTOMERS = [(10 + c, f"c{c}", 0) for c in range(4)]
#: Ten orders per customer, so every partition's custkeys repeat.
ORDERS = [(k, 10 + k % 4, float(k)) for k in range(40)]
#: customer JOIN orders on custkey: local under the PREF design below,
#: with the bare orders scan as the build side.
JOIN = (
    Query.scan("customer", alias="c")
    .join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
    .select(["c.cname", "o.orderkey", "o.total"])
    .plan()
)


def _config() -> PartitioningConfig:
    config = PartitioningConfig(N)
    config.add("orders", HashScheme(("orderkey",), N))
    config.add(
        "customer",
        PrefScheme(
            "orders",
            JoinPredicate.equi("customer", "custkey", "orders", "custkey"),
        ),
    )
    return config


@pytest.fixture
def cluster():
    database = Database(shop_schema())
    database.load("customer", CUSTOMERS)
    database.load("orders", ORDERS)
    cluster = SimulatedCluster.partition(database, _config(), backend="serial")
    yield cluster
    cluster.close()


def _oracle(cluster, plan) -> list:
    """*plan* on one node over the logical rows the store holds."""
    database = Database(cluster.schema)
    for name in cluster.partitioned.table_names:
        database.load(
            name, list(cluster.partitioned.table(name).canonical_rows())
        )
    return LocalExecutor(database).execute(plan).rows


def _keeping(table) -> set[int]:
    """Ids of the partitions of *table* that keep a key index."""
    return {
        partition.partition_id
        for partition in table.partitions
        if any(kept is not None for kept in (partition.key_index or {}).values())
    }


def _stored(partition) -> tuple:
    return (
        [list(column) for column in partition.columns],
        list(partition.source_ids),
        list(partition.dup),
        list(partition.has_partner),
    )


def write_then_read(cluster, write, read_plan=None) -> None:
    """Query until every orders partition keeps its index, *write*, query
    again: the answer equals the oracle's, and exactly the written
    partitions lost their index."""
    read_plan = read_plan or (lambda: (JOIN, cluster.run(JOIN).rows))
    orders = cluster.partitioned.table("orders")
    read_plan()
    read_plan()  # the second build since the last write keeps the index
    assert _keeping(orders) == set(range(N))
    before = [_stored(partition) for partition in orders.partitions]
    write()
    written = {
        partition.partition_id
        for partition, stored in zip(orders.partitions, before)
        if _stored(partition) != stored
    }
    assert written
    plan, rows = read_plan()
    assert_same_rows(rows, _oracle(cluster, plan))
    assert _keeping(orders) == set(range(N)) - written
    check_pref_invariants(cluster.partitioned, cluster.config)


def _orders_partition(cluster) -> Partition:
    return cluster.partitioned.table("orders").partitions[0]


def _extend(cluster) -> None:
    """A new order of a customer the partition already serves, with an
    order key that hashes to the partition."""
    orders = cluster.partitioned.table("orders")
    partition = orders.partitions[0]
    orderkey = next(
        k for k in count(1000) if orders.scheme.partition_of(k) == 0
    )
    partition.extend(
        [(orderkey, partition.columns[1][0], 1.5)],
        [orders.allocate_source_id()],
        [0],
        [partition.has_partner[0]],
    )


def _compress(cluster) -> None:
    partition = _orders_partition(cluster)
    partition.compress([index != 0 for index in range(partition.row_count)])


def _set_row(cluster) -> None:
    """Move one order to another customer the partition serves."""
    partition = _orders_partition(cluster)
    orderkey, custkey, total = partition.row(0)
    other = next(key for key in partition.columns[1] if key != custkey)
    partition.set_row(0, (orderkey, other, total))


def _set_has_partner(cluster) -> None:
    partition = _orders_partition(cluster)
    partition.set_has_partner(0, not partition.has_partner[0])


MUTATORS = {
    "extend": _extend,
    "compress": _compress,
    "set_row": _set_row,
    "set_has_partner": _set_has_partner,
}


@pytest.mark.parametrize("mutator", list(MUTATORS))
def test_every_mutator_drops_the_index(cluster, mutator):
    write_then_read(cluster, lambda: MUTATORS[mutator](cluster))


def test_the_invariant_checker_catches_a_stale_index(cluster):
    cluster.run(JOIN)
    cluster.run(JOIN)
    check_pref_invariants(cluster.partitioned, cluster.config)
    # A write past the mutators: the stored column changes, the index
    # does not.
    keys = _orders_partition(cluster).columns[1]
    keys[0] = next(key for key in keys if key != keys[0])
    with pytest.raises(InvariantViolation, match="stale key index"):
        check_pref_invariants(cluster.partitioned, cluster.config)


@pytest.mark.parametrize("mutator", list(MUTATORS))
def test_a_mutator_that_keeps_the_index_is_caught(
    cluster, monkeypatch, mutator
):
    """Meta-teeth: the check above fails once a mutator skips the drop."""
    original = getattr(Partition, mutator)

    def keeps_index(self, *args, **kwargs):
        kept = self.key_index
        original(self, *args, **kwargs)
        self.key_index = kept

    monkeypatch.setattr(Partition, mutator, keeps_index)
    # A stale index answers wrongly (or points past a compressed
    # partition's end); one that changes no answer is still there.
    with pytest.raises((AssertionError, IndexError)):
        write_then_read(cluster, lambda: MUTATORS[mutator](cluster))


def test_loader_insert_drops_the_index(cluster):
    write_then_read(
        cluster,
        lambda: cluster.loader.insert(
            "orders", [(1000, 11, 2.0), (1001, 12, 3.0), (1002, 11, 4.0)]
        ),
    )


def test_loader_delete_drops_the_index(cluster):
    write_then_read(
        cluster, lambda: cluster.loader.delete("orders", lambda row: row[0] < 3)
    )


def test_loader_update_drops_the_index(cluster):
    write_then_read(
        cluster,
        lambda: cluster.loader.update(
            "orders",
            lambda row: row[0] % 5 == 0,
            lambda row: (row[0], row[1], row[2] + 100.0),
        ),
    )


def test_served_write_drops_the_index(cluster):
    """Through ``ClusterServer``: every read is a new statement (a new
    literal on the probe side), so none is answered from the cache."""
    literals = count(-1, -1)

    with cluster.serve(max_inflight=1) as server:

        def read():
            text = (
                "SELECT c.cname, o.orderkey, o.total FROM customer c "
                "JOIN orders o ON c.custkey = o.custkey "
                f"WHERE c.custkey > {next(literals)}"
            )
            return sql_to_plan(text, cluster.schema), server.execute(text).rows

        write_then_read(
            cluster,
            lambda: server.insert("orders", [(1000, 13, 2.0), (1001, 10, 3.0)]),
            read,
        )


def test_concurrent_readers_share_the_index(cluster):
    """More reader threads than cores and a tiny switch interval: builds
    race and installs replace one another, yet every answer is right and
    whatever is kept equals a fresh build."""
    expected = _oracle(cluster, JOIN)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(lambda: cluster.run(JOIN).rows) for _ in range(48)
            ]
            answers = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for rows in answers:
        assert_same_rows(rows, expected)
    cluster.run(JOIN)  # a race may have left a marker: one more build keeps
    assert _keeping(cluster.partitioned.table("orders")) == set(range(N))
    check_pref_invariants(cluster.partitioned, cluster.config)


# -- which build sides are stored --------------------------------------------


@pytest.fixture
def patched_cluster():
    """Customer capped at one stored copy: every customer has orders in
    both partitions, so partition 1 gets all of them as deliveries."""
    config = PartitioningConfig(N)
    config.add("orders", HashScheme(("orderkey",), N))
    config.add(
        "customer",
        PatchedPrefScheme(
            "orders",
            JoinPredicate.equi("customer", "custkey", "orders", "custkey"),
            max_copies=1,
        ),
    )
    database = Database(shop_schema())
    database.load("customer", CUSTOMERS)
    database.load("orders", ORDERS)
    cluster = SimulatedCluster.partition(database, config, backend="serial")
    assert cluster.partitioned.table("customer").patches_for(1)
    yield cluster
    cluster.close()


#: orders JOIN customer: the build side is the patched customer scan.
PATCHED_JOIN = (
    Query.scan("orders", alias="o")
    .join(Query.scan("customer", alias="c"), on=[("o.custkey", "c.custkey")])
    .select(["o.orderkey", "c.cname"])
    .plan()
)


def test_a_build_side_with_deliveries_is_not_the_store(patched_cluster):
    """The stored partition lacks the delivered rows; building from it
    would drop their matches."""
    for _run in range(3):
        rows = patched_cluster.run(PATCHED_JOIN).rows
        assert_same_rows(rows, _oracle(patched_cluster, PATCHED_JOIN))


def test_a_scan_reports_only_the_partition_its_batch_aliases(patched_cluster):
    partitioned = patched_cluster.partitioned
    customer = partitioned.table("customer")
    scan = next(
        op
        for op in compiled(partitioned, PATCHED_JOIN).walk()
        if op.name == "scan" and op.table is customer
    )
    ctx = ExecutionContext(N)
    ctx.register(scan)
    for p in range(N):
        scan.run_partition(ctx, p)
    # Partition 0 is served as stored; partition 1 got deliveries
    # appended to a copy of its columns.
    assert scan.node_stored(0) is customer.partitions[0]
    assert scan.node_stored(1) is None
    # A batch whose columns are copies of the stored ones is a copy too.
    stored = scan.partition_batch(0)
    copied = ColumnBatch(
        [None if column is None else list(column) for column in stored.columns],
        stored.length,
    )
    scan.store_batch(0, copied)
    assert scan.node_stored(0) is None
    # So is the empty batch of a partition that ``allowed`` pruned.
    scan.allowed = frozenset()
    scan.run_partition(ctx, 0)
    assert scan.node_stored(0) is None


# -- the index itself --------------------------------------------------------

#: NULLs, repeats, and values that are one key: True == 1 == 1.0.
VALUES = st.sampled_from([None, 0, 1, True, 1.0, 2, False, "a", 2.5])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(VALUES, VALUES), max_size=30),
    positions=st.sampled_from([(0,), (1,), (0, 1), (1, 0)]),
)
def test_kept_index_equals_a_fresh_build(rows, positions):
    partition = Partition(0, 2)
    partition.extend(rows, range(len(rows)), [0] * len(rows), [0] * len(rows))
    groups: dict = {}
    for index, row in enumerate(rows):
        key = tuple(row[p] for p in positions)
        if None not in key:
            groups.setdefault(key[0] if len(key) == 1 else key, []).append(index)
    columns = [partition.columns[p] for p in positions]

    first, unique = partition.key_table(positions)
    if all(len(indices) == 1 for indices in groups.values()):
        assert unique
        assert first == {key: indices[0] for key, indices in groups.items()}
        assert partition.key_index is None
        return
    assert not unique
    assert first == groups  # built per query: a list per key
    assert partition.key_index == {positions: None}
    kept, unique = partition.key_table(positions)
    assert not unique
    assert kept == {
        key: indices[0] if len(indices) == 1 else array("l", indices)
        for key, indices in groups.items()
    }
    assert kept == build_key_table(columns, compact=True)[0]
    assert partition.key_index == {positions: kept}
    assert partition.key_table(positions)[0] is kept


# -- warm probes change nothing ----------------------------------------------


@pytest.fixture(scope="module")
def tpch_configs(tiny_tpch):
    pref = SchemaDrivenDesigner(tiny_tpch, 4).design(
        replicate=SMALL_TABLES
    ).config
    return {
        "sd_pref": pref,
        "all_hashed": all_hashed(tiny_tpch, 4),
        "patched_pref": patch_pref_leaves(pref, tiny_tpch.schema),
    }


@pytest.mark.parametrize("config", ["sd_pref", "all_hashed", "patched_pref"])
def test_warm_runs_equal_cold_runs(tiny_tpch, tpch_configs, config):
    """The 22 plans run three times — cold (per-query tables), keeping
    (compact builds) and warm (kept indexes) — on a fresh store per
    backend: every run of every backend gives the same rows and stats."""
    plans = [build() for build in ALL_QUERIES.values()]
    reference = None
    for backend in BACKENDS:
        partitioned = partition_database(tiny_tpch, tpch_configs[config])
        executor = Executor(partitioned, backend=BACKENDS[backend]())
        try:
            for _run in range(3):
                results = [executor.execute(plan) for plan in plans]
                outcome = [
                    (result.rows, result.stats.canonical()) for result in results
                ]
                reference = reference or outcome
                assert outcome == reference, backend
        finally:
            executor.backend.close()
        if backend == "serial" and config != "all_hashed":
            assert any(map(_keeping, partitioned.tables.values()))
