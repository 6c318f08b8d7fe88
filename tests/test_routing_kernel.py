"""The routing kernel: each distinct key is hashed once.

``partitioning.scheme.KeyMemo`` stands behind the shuffle
(``PhysicalRepartition``), the aggregate exchange and the Bloom probe.
Its contract is exactness: whatever it answers equals the per-row call
it replaced, for every key type a column can hold.  The per-row
references live here, in the tests.  Pinned:

* kernel output == ``[stable_hash(k) % count for k in keys]`` over mixed
  key columns — which needs equal keys to hash equal (``True``/``1``/
  ``1.0``), the bug fixed alongside; a composite key is folded part by
  part over the router's memo of parts, to the same answer;
* ``BloomFilter.probe_many`` == per-key ``might_contain``, the bit words
  do not move, and probing leaves nothing on the filter (the memo is the
  call's, or the transfer pass's);
* every shuffle bucket, every aggregate-exchange target and every
  Bloom-probe survivor of the 22 TPC-H plans under three designs on
  three backends equals the per-row reference (for the probes, the whole
  transfer pass redone a row and a key at a time);
* a BOOLEAN column joined to an INTEGER one across a shuffle, and
  pruning ``WHERE flag = 1`` on a table hashed on ``flag``.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BACKENDS,
    assert_gathered_in_source_order,
    reference_buckets,
    routed_buckets,
    run_tree,
)
from repro.catalog.column import Column, DataType
from repro.catalog.schema import DatabaseSchema
from repro.engine.bloom import TRANSFER_FPR, BloomFilter
from repro.engine.compile import compile_plan
from repro.engine.context import ExecutionContext
from repro.engine.operators import (
    PhysicalAggregate,
    PhysicalBloomProbe,
    PhysicalRepartition,
)
from repro.partitioning import PartitioningConfig, partition_database
from repro.partitioning.scheme import (
    HashScheme,
    KeyMemo,
    hash_router,
    key_has_null,
    stable_hash,
)
from repro.query import ExecOptions, Executor, Query
from repro.query.expressions import col, lit
from repro.query.local_executor import LocalExecutor
from repro.storage.table import Database
from repro.workloads.tpch import ALL_QUERIES

# -- key columns ------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.integers(),  # negatives and values past 2**64
    st.integers(min_value=2**64, max_value=2**70),
    st.integers(min_value=-3, max_value=3).map(float),  # 1.0 == 1 == True
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
keys = st.one_of(scalars, st.tuples(scalars, scalars))
key_columns = st.lists(keys, max_size=60)


@given(column=key_columns, count=st.integers(min_value=1, max_value=17))
def test_router_equals_per_row_hashing(column, count):
    expected = [stable_hash(key) % count for key in column]
    route = hash_router(count)
    assert route.map(column) == expected
    # A filled memo answers the same, in either order.
    assert route.map(column[::-1]) == expected[::-1]


@pytest.mark.parametrize(
    "column",
    [
        [True, 1, 1.0],
        [1.0, True, 1],
        [1, 1.0, True],
        [False, 0, 0.0, -0.0],
        [(True, "x"), (1, "x"), (1.0, "x")],
        [(1, None), (True, None)],
    ],
)
def test_equal_keys_route_together_in_either_order(column):
    # A dict holds ``True`` and ``1`` under one entry, so while
    # ``stable_hash`` told them apart (1 against the splitmix of 1: targets
    # 1 and 4 of 5) the memo answered the second with the first's value.
    for count in (5, 7, 10):
        targets = hash_router(count).map(column)
        assert targets == [stable_hash(key) % count for key in column]
        assert len(set(targets)) == 1


composite_keys = st.recursive(
    scalars,
    lambda parts: st.lists(parts, max_size=4).map(tuple),
    max_leaves=8,
).filter(lambda key: isinstance(key, tuple))


@given(
    column=st.lists(composite_keys, max_size=30),
    count=st.integers(min_value=1, max_value=17),
)
def test_router_folds_composite_keys_as_stable_hash_does(column, count):
    """The router hashes a tuple part by part over its own memo of parts:
    the answer is still ``stable_hash(key) % count`` — nested and empty
    tuples, ``None`` parts and ``True``/``1``/``1.0`` parts included."""
    route = hash_router(count)
    expected = [stable_hash(key) % count for key in column]
    assert route.map(column) == expected
    assert route.map(column[::-1]) == expected[::-1]


def test_router_hashes_a_recurring_part_once(monkeypatch):
    """One customer name in ten group keys is one ``stable_hash`` call."""
    from repro.partitioning import scheme

    calls = []

    def counting(key):
        calls.append(key)
        return stable_hash(key)

    column = [(f"Customer#{index % 3}", index % 3, index) for index in range(30)]
    bare = ["Customer#0", 3, None]
    expected = [stable_hash(key) % 10 for key in column + bare]
    monkeypatch.setattr(scheme, "stable_hash", counting)
    route = hash_router(10)
    assert route.map(column) == expected[:30]
    assert sorted(calls, key=repr) == sorted(
        {part for key in column for part in key}, key=repr
    )
    calls.clear()
    assert route.map(bare) == expected[30:]
    assert calls == bare  # a bare key is the outer memo's miss


def test_memo_computes_each_distinct_key_once():
    calls = []

    def fn(key):
        calls.append(key)
        return key * 2

    memo = KeyMemo(fn)
    assert memo.map([3, 1, 3, 3, 1]) == [6, 2, 6, 6, 2]
    assert memo.map(iter([1, 4])) == [2, 8]
    assert calls == [3, 1, 4]
    assert memo.map([]) == []


def test_shared_router_under_thread_races():
    """The thread backend's ``prepare_partition`` tasks share one memo
    unlocked: a race stores the same value twice, never a different one."""
    column = [(index * 7919) % 5003 for index in range(20_000)]
    expected = [stable_hash(key) % 10 for key in column]
    route = hash_router(10)
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
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for slot, got in enumerate(results):
        assert got == expected[slot:] + expected[:slot]
    assert len(route) == len(set(column))


# -- Bloom probe ------------------------------------------------------------


@settings(deadline=None)
@given(inserted=key_columns, probed=key_columns)
def test_probe_many_equals_per_key_might_contain(inserted, probed):
    bloom = BloomFilter.sized(max(1, len(inserted)), 0.05)
    bloom.add_many(inserted)
    column = probed + inserted
    expected = [bloom.might_contain(key) for key in column]
    assert bloom.probe_many(column) == expected
    # A memo held across batches, as ``PhysicalBloomProbe`` holds one.
    answers = KeyMemo(bloom.might_contain)
    assert answers.map(column) == expected
    assert answers.map(column[::-1]) == expected[::-1]


@given(column=key_columns)
def test_add_many_with_repeats_sets_the_per_key_bits(column):
    one_by_one = BloomFilter.sized(max(1, len(column)), 0.05)
    for key in column:
        one_by_one.add(key)
    bulk = BloomFilter.sized(max(1, len(column)), 0.05)
    repeated = column + column[::-1]
    non_null = [key for key in repeated if not key_has_null(key)]
    assert bulk.add_many(repeated) == len(non_null)
    assert bulk.words() == one_by_one.words()
    before = bulk.words()
    bulk.probe_many(repeated)
    assert bulk.words() == before


@pytest.mark.parametrize("insert", ["add", "add_many"])
def test_probe_after_insert_sees_the_new_key(insert):
    bloom = BloomFilter.sized(64, 0.01)
    bloom.add_many(range(100, 120))
    key = next(k for k in range(10_000) if not bloom.might_contain(k))
    assert bloom.probe_many([key, 100, key]) == [False, True, False]
    if insert == "add":
        bloom.add(key)
    else:
        bloom.add_many([key])
    assert bloom.probe_many([key, 100, key]) == [True, True, True]


def test_probing_leaves_nothing_on_the_filter():
    """The filter is its bits: a plan cache that keeps one keeps no probed
    key with it, and a worker receives no memo."""
    bloom = BloomFilter.sized(500, 0.01)
    bloom.add_many(range(500))
    unprobed = pickle.dumps(bloom)
    probes = list(range(400, 3000))
    expected = bloom.probe_many(probes)
    assert pickle.dumps(bloom) == unprobed
    clone = pickle.loads(unprobed)
    assert clone == bloom and clone.words() == bloom.words()
    assert clone.probe_many(probes) == expected


# -- every bucket of every TPC-H plan ---------------------------------------


def assert_exchange_targets(op: PhysicalAggregate) -> None:
    """Every merged group sits on the node its key hashes to, per row."""
    width = len(op.group_positions)
    for target, staged in enumerate(op.exchanged):
        for row in staged.to_rows():
            key = row[0] if width == 1 else row[:width]
            assert stable_hash(key) % op.count == target, op.label


@pytest.mark.parametrize("config", ["all_hashed", "sd_pref", "patched_pref"])
def test_every_tpch_bucket_equals_per_row_routing(tpch_stores, config):
    partitioned = tpch_stores[config]
    executor = Executor(partitioned)
    backends = {name: make() for name, make in BACKENDS.items()}
    shuffles = exchanges = 0
    try:
        for query, build in ALL_QUERIES.items():
            annotated = executor.annotate(build())
            reference = None
            for name, backend in backends.items():
                root = compile_plan(annotated, partitioned)
                run_tree(root, partitioned.partition_count, backend)
                ops = list(root.walk())
                if reference is None:  # serial: inputs are at hand
                    reference = {
                        op.op_id: reference_buckets(op)
                        for op in ops
                        if isinstance(op, PhysicalRepartition)
                    }
                    shuffles += len(reference)
                for op in ops:
                    if isinstance(op, PhysicalRepartition):
                        assert routed_buckets(op) == reference[op.op_id], (
                            query, name, op.label,
                        )
                        assert_gathered_in_source_order(op)
                    elif (
                        isinstance(op, PhysicalAggregate)
                        and op.strategy == "two_phase"
                        and not op.scalar
                    ):
                        assert_exchange_targets(op)
                        exchanges += 1
    finally:
        for backend in backends.values():
            backend.close()
    assert shuffles and exchanges


def test_aggregate_exchange_charges_the_per_state_sum(tpch_stores):
    """The exchange charges the fixed-width part of every shipped state
    with one multiplication; the reference is the per-state sum it
    replaced, COUNT(DISTINCT)'s data-sized sets included."""
    partitioned = tpch_stores["all_hashed"]
    plan = (
        Query.scan("lineitem", alias="l")
        .aggregate(
            group_by=["l.l_suppkey", "l.l_returnflag"],
            aggregates=[
                ("sum", col("l.l_quantity"), "s"),
                ("avg", col("l.l_discount"), "a"),
                ("count_distinct", col("l.l_partkey"), "d"),
                ("count", None, "n"),
                ("min", col("l.l_shipdate"), "lo"),
            ],
        )
        .plan()
    )
    root = compile_plan(Executor(partitioned).annotate(plan), partitioned)
    ctx = ExecutionContext(partitioned.partition_count)
    for op in root.walk():
        ctx.register(op)
    BACKENDS["serial"]().run(root, ctx)
    (op,) = [o for o in root.walk() if isinstance(o, PhysicalAggregate)]
    assert op.strategy == "two_phase" and op.data_sized
    # Per source partition and group: the distinct part keys its state
    # ships, from the rows the aggregate read.
    suppkey, returnflag, partkey = op.inputs[0].props.positions(
        ["l.l_suppkey", "l.l_returnflag", "l.l_partkey"]
    )
    fixed = 8 * 2 + 8 + 16 + 8 + 8  # key, sum, avg (total, count), count, min
    shipped_bytes = shipped_states = 0
    for source in range(op.prepare_count):
        batch = op.inputs[0].partition_batch(source)
        parts: dict[tuple, set] = {}
        for key, part in zip(
            batch.key_tuples([suppkey, returnflag]), batch.column(partkey)
        ):
            parts.setdefault(key, set()).add(part)
        for key, distinct in parts.items():
            if stable_hash(key) % op.count != source:
                shipped_bytes += fixed + 8 * max(1, len(distinct))
                shipped_states += 1
    record = ctx.record(op)
    assert shipped_states
    assert (record.network_bytes, record.rows_shipped) == (
        shipped_bytes, shipped_states,
    )


def reference_transfer(probes: list[PhysicalBloomProbe]) -> dict[str, tuple]:
    """The transfer pass one row and one key at a time, from the probes'
    inputs alone: ``site -> (surviving (partition, row) pairs, kept
    filters)``.  Each filter is rebuilt with ``BloomFilter.add`` from the
    source site's surviving rows and probed with ``might_contain``."""
    inputs = {
        op.site: [
            op.inputs[0].partition_batch(p) for p in range(op.output_count)
        ]
        for op in probes
    }
    alive = {
        site: [(p, i) for p, batch in enumerate(parts) for i in range(batch.length)]
        for site, parts in inputs.items()
    }

    def keys(site, positions):
        columns = [
            batch.key_values(positions) for batch in inputs[site]
        ]
        return [columns[p][i] for p, i in alive[site]]

    ranked = sorted(alive, key=lambda site: (len(alive[site]), site))
    rank = {site: position for position, site in enumerate(ranked)}
    edges = [edge for op in probes for edge in op.edges]
    forward = sorted(
        (e for e in edges if rank[e.source] < rank[e.target]),
        key=lambda e: (rank[e.target], rank[e.source], e),
    )
    backward = sorted(
        (e for e in edges if rank[e.source] > rank[e.target]),
        key=lambda e: (-rank[e.target], -rank[e.source], e),
    )
    kept = dict.fromkeys(alive, 0)
    for edge in forward + backward:
        built = {
            key for key in keys(edge.source, edge.source_positions)
            if key is not None
        }
        bloom = BloomFilter.sized(max(1, len(built)), TRANSFER_FPR)
        for key in built:
            bloom.add(key)
        survivors = [
            where
            for where, key in zip(
                alive[edge.target], keys(edge.target, edge.positions)
            )
            if bloom.might_contain(key)
        ]
        if len(survivors) < len(alive[edge.target]):
            alive[edge.target] = survivors
            kept[edge.target] += 1
    return {site: (alive[site], kept[site]) for site in alive}


@pytest.mark.parametrize("config", ["all_hashed", "sd_pref", "patched_pref"])
def test_every_tpch_bloom_probe_equals_per_row_probing(tpch_stores, config):
    """On every backend the probes' inputs and outputs end up on the
    coordinator (the pass runs in an exchange), so the per-row reference
    is rebuilt from each run's own inputs and compared with its outputs;
    the cost-model totals must agree across the backends as well."""
    partitioned = tpch_stores[config]
    executor = Executor(partitioned, ExecOptions(predicate_transfer=True))
    backends = {name: make() for name, make in BACKENDS.items()}
    probes = filters = 0
    try:
        for query, build in ALL_QUERIES.items():
            annotated = executor.annotate(build())
            serial_stats = None
            for name, backend in backends.items():
                root = compile_plan(annotated, partitioned)
                stats = run_tree(root, partitioned.partition_count, backend)
                serial_stats = serial_stats or stats
                assert stats.canonical() == serial_stats.canonical(), (
                    query, name,
                )
                ops = [
                    op for op in root.walk()
                    if isinstance(op, PhysicalBloomProbe)
                ]
                reference = reference_transfer(ops)
                for op in ops:
                    where = (query, name, op.label, op.site)
                    survivors, kept = reference[op.site]
                    assert op.exchanged.filters == kept, where
                    live = sorted(op.live)
                    for p in range(op.output_count):
                        rows = op.inputs[0].partition_batch(p).select(live).to_rows()
                        assert op.partition_batch(p).select(live).to_rows() == [
                            rows[i] for q, i in survivors if q == p
                        ], where
                    probes += 1
                    filters += kept
    finally:
        for backend in backends.values():
            backend.close()
    assert filters and probes > filters  # some probes keep no filter


# -- the bug the memo's key semantics turned up -----------------------------


def flag_database() -> Database:
    schema = DatabaseSchema()
    schema.create_table(
        "a",
        [Column("id", DataType.INTEGER), Column("flag", DataType.BOOLEAN)],
        ("id",),
    )
    schema.create_table(
        "b",
        [Column("id", DataType.INTEGER), Column("bit", DataType.INTEGER)],
        ("id",),
    )
    database = Database(schema)
    database.load("a", [(index, index % 2 == 0) for index in range(20)])
    database.load("b", [(index, index % 2) for index in range(6)])
    return database


def flag_store(database: Database, a_columns: tuple[str, ...]):
    # Five partitions: stable_hash(True) % 5 was 1, stable_hash(1) % 5 is 4.
    config = PartitioningConfig(5)
    config.add("a", HashScheme(a_columns, 5))
    config.add("b", HashScheme(("id",), 5))
    return partition_database(database, config)


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_boolean_joins_integer_across_a_shuffle(backend):
    database = flag_database()
    plan = (
        Query.scan("a", alias="a")
        .join(Query.scan("b", alias="b"), on=[("a.flag", "b.bit")])
        .plan()
    )
    reference = LocalExecutor(database).execute(plan)
    assert len(reference.rows) == 60
    made = BACKENDS[backend]()
    try:
        result = Executor(
            flag_store(database, ("id",)), backend=made
        ).execute(plan)
    finally:
        made.close()
    assert sorted(result.rows) == sorted(reference.rows)


@pytest.mark.parametrize("literal", [1, True, 1.0, 0, False])
def test_pruning_a_boolean_hash_key_by_an_equal_literal(literal):
    database = flag_database()
    plan = (
        Query.scan("a", alias="a").where(col("a.flag") == lit(literal)).plan()
    )
    reference = LocalExecutor(database).execute(plan)
    assert len(reference.rows) == 10
    result = Executor(flag_store(database, ("flag",))).execute(plan)
    assert sorted(result.rows) == sorted(reference.rows)
    assert result.stats.partitions_scanned == 1  # pruned, and to the right one
