"""A shuffle copies each row once: senders route, receivers gather.

``PhysicalRepartition.prepare_partition`` leaves ``(routed batch, bucket
indices)`` and copies no rows; ``exchange()`` publishes the senders'
states; ``run_partition(p)`` builds target ``p`` with one new list per
live column, extended by one ``itemgetter`` per (source, target) in
source order.  Pinned here, on tiny hand-made stores whose shapes reach
the gather's edge cases:

* a one-row bucket (``itemgetter`` returns a bare value for one index);
* empty targets, and every row going to one target;
* every column pruned (the length comes from the bucket sizes);
* a source with governing dup bits, a replicated child, a local
  DISTINCT, and a patched-PREF scan whose batch is not the store's
  (``node_stored`` is None).

In every case each bucket equals per-row ``stable_hash`` routing, each
target equals its sources' buckets concatenated in source order, no
output column is a stored partition list, and the answer equals the
single-node evaluator on every backend.  Meta-tests show that a gather
walking its sources in reverse, and one dropping one-row buckets, fail
these checks.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import pytest

from helpers import (
    BACKENDS,
    all_hashed_config,
    assert_gathered_in_source_order,
    assert_same_rows,
    compiled,
    patched_shop_config,
    reference_buckets,
    routed_buckets,
    run_tree,
    shop_schema,
)
from repro.engine.context import ExecutionContext
from repro.engine.operators import PhysicalRepartition
from repro.partitioning import (
    HashScheme,
    JoinPredicate,
    PartitioningConfig,
    PrefScheme,
    ReplicatedScheme,
    partition_database,
)
from repro.query import Executor, LocalExecutor, Query
from repro.query.plan import JoinKind
from repro.query.relation import Method
from repro.storage import Database

# -- the stores and plans ----------------------------------------------------

NODES = 4


def shop(custkeys) -> Database:
    """A shop database with one order per entry of *custkeys* (order ``k``
    belongs to customer ``custkeys[k]``) and three lineitems per order."""
    database = Database(shop_schema())
    database.load("nation", [(i, f"nation{i}") for i in range(4)])
    database.load("customer", [(i, f"cust{i}", i % 4) for i in range(8)])
    database.load("item", [(i, f"item{i}") for i in range(4)])
    database.load(
        "orders",
        [(key, custkey, float(key)) for key, custkey in enumerate(custkeys)],
    )
    database.load(
        "lineitem",
        [
            (3 * key + n, key, n, 1 + n)
            for key in range(len(custkeys))
            for n in range(3)
        ],
    )
    return database


#: Each shop table's key, on which it is hashed unless a case says else.
KEYS = {
    "customer": "custkey",
    "orders": "orderkey",
    "lineitem": "linekey",
    "item": "itemkey",
    "nation": "nationkey",
}


def shop_config(n: int, **schemes) -> PartitioningConfig:
    """Every shop table hashed on its key, except those in *schemes*."""
    config = PartitioningConfig(n)
    for table, key in KEYS.items():
        config.add(table, schemes.get(table) or HashScheme((key,), n))
    return config


def pref_orders_config(n: int) -> PartitioningConfig:
    """orders PREF lineitem (so stored orders carry dup bits), every other
    table hashed: orders is shuffled on ``custkey`` to meet customer."""
    return shop_config(
        n,
        orders=PrefScheme(
            "lineitem",
            JoinPredicate.equi("orders", "orderkey", "lineitem", "orderkey"),
        ),
    )


def replicated_nation_config(n: int) -> PartitioningConfig:
    return shop_config(n, nation=ReplicatedScheme(n))


#: orders (hashed or PREF on orderkey) meets customer (hashed on custkey):
#: one shuffle, of orders on custkey.
ORDERS_TO_CUSTOMERS = (
    Query.scan("orders", alias="o")
    .join(Query.scan("customer", alias="c"), on=[("o.custkey", "c.custkey")])
    .select(["o.orderkey", "o.custkey", "c.cname"])
    .plan()
)

#: The replicated side is preserved, so the join cannot run per node:
#: nation (replicated) and customer are both shuffled on nationkey.
NATIONS_LEFT_OUTER = (
    Query.scan("nation", alias="n")
    .join(
        Query.scan("customer", alias="c"),
        on=[("n.nationkey", "c.nationkey")],
        kind=JoinKind.LEFT_OUTER,
    )
    .select(["n.nname", "c.cname"])
    .plan()
)

#: SELECT DISTINCT over hashed orders: a shuffle on custkey, then a
#: DISTINCT per target.
DISTINCT_CUSTOMERS = (
    Query.scan("orders", alias="o").select(["o.custkey"], distinct=True).plan()
)


def bucket_sizes(op) -> list[list[int]]:
    """``[source][target]`` -> rows routed."""
    return [
        [len(bucket) for bucket in op.prepared[source][1]]
        for source in range(op.prepare_count)
    ]


def gathered_sources(op, target: int) -> int:
    """How many sources send rows to *target*."""
    return sum(1 for sizes in bucket_sizes(op) if sizes[target])


def has_one_row_bucket(op, _partitioned) -> bool:
    return any(1 in sizes for sizes in bucket_sizes(op))


def has_empty_target(op, _partitioned) -> bool:
    return any(
        not op.partition_batch(t).length for t in range(op.output_count)
    )


def one_target_from_many_sources(op, _partitioned) -> bool:
    full = [t for t in range(op.output_count) if op.partition_batch(t).length]
    return len(full) == 1 and gathered_sources(op, full[0]) > 1


def gathers_many_sources(op, _partitioned) -> bool:
    return any(
        gathered_sources(op, t) > 2 for t in range(op.output_count)
    )


def drops_dup_copies(op, _partitioned) -> bool:
    routed = sum(sum(sizes) for sizes in bucket_sizes(op))
    return bool(op.governing) and routed < op.inputs[0].total_rows()


def over_replicated(op, _partitioned) -> bool:
    return op.child_method is Method.REPLICATED


def distinct_drops_rows(op, _partitioned) -> bool:
    routed = sum(sum(sizes) for sizes in bucket_sizes(op))
    return op.local_distinct and op.total_rows() < routed


def over_patched_deliveries(op, partitioned) -> bool:
    scan = op.inputs[0]
    orders = partitioned.table("orders")
    return orders.patch_count > 0 and scan.name == "scan" and any(
        scan.node_stored(p) is None and orders.partitions[p].row_count
        for p in range(scan.output_count)
    )


class Case(NamedTuple):
    database: Callable[[], Database]
    config: Callable[[int], PartitioningConfig]
    plan: object
    #: True for the shuffle this case is about (some shuffle must match).
    shape: Callable[[PhysicalRepartition, object], bool]


CASES = {
    "one_row_bucket": Case(
        lambda: shop(range(8)), all_hashed_config, ORDERS_TO_CUSTOMERS,
        has_one_row_bucket,
    ),
    "many_sources": Case(
        lambda: shop([k % 8 for k in range(60)]), all_hashed_config,
        ORDERS_TO_CUSTOMERS, gathers_many_sources,
    ),
    "empty_targets": Case(
        lambda: shop([0, 1, 0]), all_hashed_config, ORDERS_TO_CUSTOMERS,
        has_empty_target,
    ),
    "one_target": Case(
        lambda: shop([5] * 40), all_hashed_config, ORDERS_TO_CUSTOMERS,
        one_target_from_many_sources,
    ),
    "governing_dup_bits": Case(
        lambda: shop([k % 8 for k in range(30)]), pref_orders_config,
        ORDERS_TO_CUSTOMERS, drops_dup_copies,
    ),
    "replicated_child": Case(
        lambda: shop(range(8)), replicated_nation_config, NATIONS_LEFT_OUTER,
        over_replicated,
    ),
    "local_distinct": Case(
        lambda: shop([k % 5 for k in range(30)]), all_hashed_config,
        DISTINCT_CUSTOMERS, distinct_drops_rows,
    ),
    "patched_pref_scan": Case(
        lambda: shop([k % 8 for k in range(30)]),
        lambda n: patched_shop_config(n, max_copies=1),
        ORDERS_TO_CUSTOMERS, over_patched_deliveries,
    ),
}


# -- the checks ---------------------------------------------------------------


def stored_lists(partitioned) -> set[int]:
    """The identities of every list a partition of *partitioned* stores."""
    return {
        id(stored)
        for table in partitioned.tables.values()
        for partition in table.partitions
        for stored in (
            *partition.columns,
            partition.dup,
            partition.has_partner,
            partition.source_ids,
        )
    }


def assert_targets(op, stored: set[int]) -> None:
    """Each target holds exactly the live columns, as new lists, and as
    many rows as its buckets route to it (before a local DISTINCT)."""
    sizes = bucket_sizes(op)
    for target in range(op.output_count):
        batch = op.partition_batch(target)
        assert batch.width == op.width
        assert batch.present() == op.live, (op.label, target)
        routed = sum(per_source[target] for per_source in sizes)
        if op.local_distinct:
            assert batch.length <= routed
        else:
            assert batch.length == routed
        for column in batch.columns:
            assert column is None or len(column) == batch.length
            assert id(column) not in stored, "a gather aliased the store"


def check_case(name: str, backends=("serial",)) -> None:
    """Run case *name* on each of *backends* and hold every shuffle of it
    to the checks above; raises AssertionError on the first failure."""
    case = CASES[name]
    database = case.database()
    partitioned = partition_database(database, case.config(NODES))
    expected = LocalExecutor(database).execute(case.plan).rows
    stored = stored_lists(partitioned)
    reference = None
    for backend_name in backends:
        backend = BACKENDS[backend_name]()
        try:
            root = compiled(partitioned, case.plan)
            run_tree(root, partitioned.partition_count, backend)
            answer = Executor(partitioned, backend=backend).execute(case.plan)
        finally:
            backend.close()
        assert_same_rows(answer.rows, expected)
        shuffles = [
            op for op in root.walk() if isinstance(op, PhysicalRepartition)
        ]
        if reference is None:  # serial runs first: the inputs are at hand
            reference = [reference_buckets(op) for op in shuffles]
            assert any(case.shape(op, partitioned) for op in shuffles), (
                f"{name}: no shuffle has the shape this case is about"
            )
        assert [routed_buckets(op) for op in shuffles] == reference
        for op in shuffles:
            assert_gathered_in_source_order(op)
            assert_targets(op, stored)


@pytest.mark.parametrize("name", list(CASES))
def test_gather_edge_cases(name):
    check_case(name, backends=tuple(BACKENDS))


def test_every_column_pruned_keeps_the_row_count():
    """With no live column the targets are all-absent batches whose
    lengths are the bucket sizes — nothing else says how many rows."""
    case = CASES["many_sources"]
    partitioned = partition_database(case.database(), case.config(NODES))
    root = compiled(partitioned, case.plan)
    run_tree(root, partitioned.partition_count)
    op = next(op for op in root.walk() if isinstance(op, PhysicalRepartition))
    full = [op.partition_batch(t).length for t in range(op.output_count)]
    op.live = frozenset()
    ctx = ExecutionContext(partitioned.partition_count)
    ctx.register(op)
    for p in range(op.prepare_count):
        op.prepare_partition(ctx, p)
    op.exchange(ctx)
    for p in range(op.output_count):
        op.run_partition(ctx, p)
    sizes = bucket_sizes(op)
    for target in range(op.output_count):
        batch = op.partition_batch(target)
        assert batch.columns == [None] * op.width
        assert batch.length == full[target]
        assert batch.length == sum(per_source[target] for per_source in sizes)
    assert sum(full) == op.inputs[0].total_rows() > 0


# -- teeth --------------------------------------------------------------------


def walks_sources_in_reverse(run_partition):
    def broken(self, ctx, p):
        senders = self.exchanged
        self.exchanged = senders[::-1]
        try:
            run_partition(self, ctx, p)
        finally:
            self.exchanged = senders

    return broken


def drops_one_row_buckets(run_partition):
    def broken(self, ctx, p):
        senders = self.exchanged
        self.exchanged = [
            (routed, [bucket if len(bucket) != 1 else [] for bucket in buckets])
            for routed, buckets in senders
        ]
        try:
            run_partition(self, ctx, p)
        finally:
            self.exchanged = senders

    return broken


@pytest.mark.parametrize(
    "mutant, caught_by",
    [
        (walks_sources_in_reverse, {"many_sources", "one_target"}),
        (drops_one_row_buckets, {"one_row_bucket"}),
    ],
)
def test_a_broken_gather_fails_the_suite(monkeypatch, mutant, caught_by):
    monkeypatch.setattr(
        PhysicalRepartition,
        "run_partition",
        mutant(PhysicalRepartition.run_partition),
    )
    failed = set()
    for name in CASES:
        try:
            check_case(name)
        except AssertionError:
            failed.add(name)
    assert caught_by <= failed, failed
