"""Shared test helpers: databases, configurations, result comparison."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from operator import itemgetter

from repro.catalog import DatabaseSchema, DataType
from repro.engine.backends import SerialBackend, ThreadPoolBackend
from repro.engine.compile import compile_plan
from repro.engine.context import ExecutionContext
from repro.partitioning import (
    HashScheme,
    JoinPredicate,
    PartitioningConfig,
    PatchedPrefScheme,
    PrefScheme,
    ReplicatedScheme,
)
from repro.partitioning.scheme import stable_hash
from repro.query import Executor
from repro.storage import Database


#: One factory per execution backend, for backend-equivalence tests.
BACKENDS = {
    "serial": SerialBackend,
    "thread": lambda: ThreadPoolBackend(max_workers=4),
}


def compiled(partitioned, plan, options=None):
    """*plan* rewritten and lowered to its physical operator tree."""
    executor = Executor(partitioned, options)
    return compile_plan(executor.annotate(plan), partitioned)


def run_tree(root, partition_count, backend=None):
    """Run an already-compiled operator tree to completion."""
    ctx = ExecutionContext(partition_count)
    for op in root.walk():
        ctx.register(op)
    (backend or SerialBackend()).run(root, ctx)
    return ctx.finish()


def reference_buckets(op) -> list[list[list[tuple]]]:
    """A shuffle's buckets as one ``stable_hash`` per row computes them:
    ``[source][target]`` -> live-column rows in source order, for the
    ``PhysicalRepartition`` *op* after a run (the per-row reference of
    ``test_routing_kernel.py`` and ``test_store_routing.py``)."""
    child = op.inputs[0]
    live = sorted(op.live)
    count = op.output_count
    out = []
    for p in range(op.prepare_count):
        batch = child.partition_batch(p)
        keys = batch.key_values(op.key_positions)
        rows = batch.select(live).to_rows()
        dup_bits = [batch.column(q) for q in op.governing]
        buckets: list[list[tuple]] = [[] for _ in range(count)]
        for index, key in enumerate(keys):
            if any(bits[index] for bits in dup_bits):
                continue
            buckets[stable_hash(key) % count].append(rows[index])
        out.append(buckets)
    return out


def routed_buckets(op) -> list[list[list[tuple]]]:
    """What *op*'s prepare tasks routed, in :func:`reference_buckets`' shape:
    each source's state is ``(routed batch, bucket indices)``."""
    live = sorted(op.live)
    out = []
    for source in range(op.prepare_count):
        routed, buckets = op.prepared[source]
        rows = routed.select(live).to_rows()
        out.append([[rows[index] for index in bucket] for bucket in buckets])
    return out


def assert_gathered_in_source_order(op) -> None:
    """Every output partition of the ``PhysicalRepartition`` *op* holds
    its sources' buckets (:func:`routed_buckets`) concatenated in source
    order (first occurrences only, under a local DISTINCT)."""
    live = sorted(op.live)
    routed = routed_buckets(op)
    for target in range(op.output_count):
        expected = [row for buckets in routed for row in buckets[target]]
        got = op.partition_batch(target).select(live).to_rows()
        if op.local_distinct:
            expected = list(dict.fromkeys(expected))
        assert got == expected, (op.label, target)


def normalise_rows(rows, places: int = 6) -> Counter:
    """Multiset of rows with floats rounded (summation order varies)."""
    return Counter(
        tuple(
            round(value, places) if isinstance(value, float) else value
            for value in row
        )
        for row in rows
    )


def assert_same_rows(actual, expected, places: int = 6) -> None:
    """Assert two row collections are equal as multisets (float-tolerant)."""
    left = normalise_rows(actual, places)
    right = normalise_rows(expected, places)
    if left != right:
        missing = list((right - left).items())[:5]
        extra = list((left - right).items())[:5]
        raise AssertionError(
            f"row multisets differ; missing={missing} extra={extra}"
        )


def store_state(partitioned) -> dict:
    """Everything placement decides, per table: every partition's columns,
    source ids, ``dup`` and ``hasS`` bits in stored order, and the patch
    lists (a source id occurs once per destination, so it orders them)."""
    return {
        name: (
            [
                (
                    partition.partition_id,
                    [list(column) for column in partition.columns],
                    list(partition.source_ids),
                    list(partition.dup),
                    list(partition.has_partner),
                )
                for partition in table.partitions
            ],
            {
                partition_id: sorted(entries, key=itemgetter(1))
                for partition_id, entries in sorted(table.patches.items())
            },
        )
        for name, table in sorted(partitioned.tables.items())
    }


def store_fingerprint(partitioned) -> str:
    """sha256 over :func:`store_state` (see ``tests/fixtures/README.md``)."""
    return hashlib.sha256(repr(store_state(partitioned)).encode()).hexdigest()


def shop_schema() -> DatabaseSchema:
    """A small orders/customers/items schema used across tests."""
    schema = DatabaseSchema()
    schema.create_table(
        "customer",
        [
            ("custkey", DataType.INTEGER),
            ("cname", DataType.VARCHAR),
            ("nationkey", DataType.INTEGER),
        ],
        primary_key=["custkey"],
    )
    schema.create_table(
        "orders",
        [
            ("orderkey", DataType.INTEGER),
            ("custkey", DataType.INTEGER),
            ("total", DataType.FLOAT),
        ],
        primary_key=["orderkey"],
    )
    schema.create_table(
        "lineitem",
        [
            ("linekey", DataType.INTEGER),
            ("orderkey", DataType.INTEGER),
            ("itemkey", DataType.INTEGER),
            ("qty", DataType.INTEGER),
        ],
        primary_key=["linekey"],
    )
    schema.create_table(
        "item",
        [("itemkey", DataType.INTEGER), ("iname", DataType.VARCHAR)],
        primary_key=["itemkey"],
    )
    schema.create_table(
        "nation",
        [("nationkey", DataType.INTEGER), ("nname", DataType.VARCHAR)],
        primary_key=["nationkey"],
    )
    schema.add_foreign_key("fk_o_c", "orders", ["custkey"], "customer", ["custkey"])
    schema.add_foreign_key("fk_l_o", "lineitem", ["orderkey"], "orders", ["orderkey"])
    schema.add_foreign_key("fk_l_i", "lineitem", ["itemkey"], "item", ["itemkey"])
    schema.add_foreign_key(
        "fk_c_n", "customer", ["nationkey"], "nation", ["nationkey"]
    )
    return schema


def shop_database(
    seed: int = 0,
    customers: int = 20,
    orders: int = 60,
    lineitems: int = 200,
    items: int = 15,
    nations: int = 4,
    orphans: bool = True,
) -> Database:
    """A populated shop database with orphans and skew knobs."""
    rng = random.Random(seed)
    database = Database(shop_schema())
    database.load("nation", [(i, f"nation{i}") for i in range(nations)])
    database.load(
        "customer",
        [(i, f"cust{i}", rng.randrange(nations)) for i in range(customers)],
    )
    database.load("item", [(i, f"item{i}") for i in range(items)])
    # With orphans=True some orders/lineitems reference keys that do not
    # exist, exercising the PREF round-robin path.
    customer_domain = int(customers * 1.2) if orphans else customers
    order_domain = int(orders * 1.1) if orphans else orders
    database.load(
        "orders",
        [
            (i, rng.randrange(customer_domain), float(rng.randrange(100)))
            for i in range(orders)
        ],
    )
    database.load(
        "lineitem",
        [
            (
                i,
                rng.randrange(order_domain),
                rng.randrange(items),
                1 + rng.randrange(9),
            )
            for i in range(lineitems)
        ],
    )
    return database


def pref_chain_config(n: int) -> PartitioningConfig:
    """lineitem seed; orders PREF lineitem; customer PREF orders; rest."""
    config = PartitioningConfig(n)
    config.add("lineitem", HashScheme(("linekey",), n))
    config.add(
        "orders",
        PrefScheme(
            "lineitem", JoinPredicate.equi("orders", "orderkey", "lineitem", "orderkey")
        ),
    )
    config.add(
        "customer",
        PrefScheme(
            "orders", JoinPredicate.equi("customer", "custkey", "orders", "custkey")
        ),
    )
    config.add(
        "item",
        PrefScheme(
            "lineitem", JoinPredicate.equi("item", "itemkey", "lineitem", "itemkey")
        ),
    )
    config.add("nation", ReplicatedScheme(n))
    return config


def ref_chain_config(n: int) -> PartitioningConfig:
    """customer seed; orders PREF customer; lineitem PREF orders (REF-like)."""
    config = PartitioningConfig(n)
    config.add("customer", HashScheme(("custkey",), n))
    config.add(
        "orders",
        PrefScheme(
            "customer", JoinPredicate.equi("orders", "custkey", "customer", "custkey")
        ),
    )
    config.add(
        "lineitem",
        PrefScheme(
            "orders", JoinPredicate.equi("lineitem", "orderkey", "orders", "orderkey")
        ),
    )
    config.add("item", ReplicatedScheme(n))
    config.add("nation", ReplicatedScheme(n))
    return config


def buggy_left_outer_local_join():
    """The pre-fix ``Rewriter._local_join``, for bug-resurrection tests.

    Re-introduces the historical LEFT OUTER defect: the join keys were
    merged into the equivalence groups even though padded rows NULL the
    right-side key, so a downstream GROUP BY on the right key was treated
    as partition-local and emitted one NULL group per partition.  Install
    with ``monkeypatch.setattr(Rewriter, "_local_join", ...)``.
    """
    from dataclasses import replace as _replace

    from repro.query.plan import JoinKind
    from repro.query.rewrite import Annotated, Rewriter, _merge_equivalences

    original = Rewriter._local_join

    def buggy(self, node, left, right, case, referenced_side):
        result = original(self, node, left, right, case, referenced_side)
        if node.kind is not JoinKind.LEFT_OUTER:
            return result
        pairs = [
            (
                left.props.columns[left.props.position(l)],
                right.props.columns[right.props.position(r)],
            )
            for l, r in node.on
        ]
        merged = _merge_equivalences(
            left.props.equivalences + right.props.equivalences, pairs
        )
        props = _replace(result.props, equivalences=merged)
        return Annotated(
            result.node,
            props,
            result.inputs,
            pristine=result.pristine,
            extra=result.extra,
        )

    return buggy


def all_hashed_config(n: int) -> PartitioningConfig:
    """Every table hash-partitioned on its primary key."""
    config = PartitioningConfig(n)
    config.add("customer", HashScheme(("custkey",), n))
    config.add("orders", HashScheme(("orderkey",), n))
    config.add("lineitem", HashScheme(("linekey",), n))
    config.add("item", HashScheme(("itemkey",), n))
    config.add("nation", HashScheme(("nationkey",), n))
    return config


def patched_shop_config(n: int = 4, max_copies: int = 1) -> PartitioningConfig:
    config = PartitioningConfig(n)
    config.add("lineitem", HashScheme(("linekey",), n))
    config.add(
        "orders",
        PatchedPrefScheme(
            "lineitem",
            JoinPredicate.equi("orders", "orderkey", "lineitem", "orderkey"),
            max_copies=max_copies,
        ),
    )
    config.add("customer", HashScheme(("custkey",), n))
    config.add("item", HashScheme(("itemkey",), n))
    config.add("nation", ReplicatedScheme(n))
    return config


def patch_pref_leaves(config: PartitioningConfig, schema) -> PartitioningConfig:
    """*config* with every un-referenced PREF table capped at one copy."""
    referenced = {
        scheme.referenced_table
        for _table, scheme in config
        if isinstance(scheme, PrefScheme)
    }
    patched = PartitioningConfig(config.partition_count)
    for table, scheme in config:
        if isinstance(scheme, PrefScheme) and table not in referenced:
            scheme = PatchedPrefScheme(
                scheme.referenced_table, scheme.predicate, max_copies=1
            )
        patched.add(table, scheme)
    patched.validate(schema)
    return patched
