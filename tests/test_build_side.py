"""The first join after a write builds its smaller input.

An INNER equi-join whose right input is a stored partition probes the
partition's kept key table (``Partition.key_table``).  On the first ask
since a write no table is kept, and building one over the whole stored
side is most of the join's cost.  When the left input is shorter and
unique on its keys, the join builds the left keys' table instead,
probes the stored right keys and puts the pairs back in the join's
order: left row, then its right rows ascending.  These tests hold it to
that:

* a property over random key columns (repeats, NULLs, composite keys,
  rows without a partner on either side) gives exactly the rows, row
  order and canonical stats of the right build, under three placements;
* a spy on ``Partition.key_table`` shows the first ask since a write
  does not call it, the second builds and keeps the compact table, and
  a right key that covers the primary key never takes the left build.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_rows, shop_schema
from repro.catalog import DatabaseSchema, DataType
from repro.cluster import SimulatedCluster
from repro.engine import operators
from repro.engine.operators import PhysicalHashJoin
from repro.partitioning import (
    HashScheme,
    JoinPredicate,
    PartitioningConfig,
    PrefScheme,
    ReplicatedScheme,
    partition_database,
)
from repro.query import Executor, Query
from repro.query.expressions import col, lit
from repro.query.local_executor import LocalExecutor
from repro.storage import Database
from repro.storage.partition import Partition, build_key_table

NODES = 2

#: ``p`` (probe) and ``s`` (stored) rows: two key columns and an id.
#: Neither table declares a primary key, so ``s``'s keys may repeat.
KEY = st.one_of(st.none(), st.integers(0, 4))
ROWS = st.lists(st.tuples(KEY, KEY), max_size=12)

#: Placement -> (probe hashed, stored hashed); hashed tables on ``a``.
PLACEMENTS = {
    "replicated": (False, False),
    "hashed": (True, True),
    "replicated_right": (True, False),
}


def _database(left: list, right: list) -> Database:
    schema = DatabaseSchema()
    for name in ("p", "s"):
        schema.create_table(
            name,
            [
                ("a", DataType.INTEGER),
                ("b", DataType.INTEGER),
                ("id", DataType.INTEGER),
            ],
        )
    database = Database(schema)
    database.load("p", [(a, b, i) for i, (a, b) in enumerate(left)])
    database.load("s", [(a, b, i) for i, (a, b) in enumerate(right)])
    return database


def _config(placement: str) -> PartitioningConfig:
    config = PartitioningConfig(NODES)
    for name, hashed in zip(("p", "s"), PLACEMENTS[placement]):
        config.add(
            name,
            HashScheme(("a",), NODES) if hashed else ReplicatedScheme(NODES),
        )
    return config


def _join(keys: tuple[str, ...]):
    return (
        Query.scan("p", alias="p")
        .join(
            Query.scan("s", alias="s"),
            on=[(f"p.{key}", f"s.{key}") for key in keys],
        )
        .select(["p.id", "s.id", "p.a", "s.b"])
        .plan()
    )


@contextmanager
def left_builds():
    """Counts the joins answered by a build of their left input."""
    calls = []
    original = PhysicalHashJoin._probe_stored

    def spy(self, left_batch, table, right_batch):
        calls.append(left_batch.length)
        return original(self, left_batch, table, right_batch)

    with mock.patch.object(PhysicalHashJoin, "_probe_stored", spy):
        yield calls


def _key(row: tuple, keys: tuple[str, ...]) -> tuple:
    return tuple(row["ab".index(key)] for key in keys)


def _unique_keys(rows: list, keys: tuple[str, ...]) -> bool:
    """Whether no NULL-free key of *rows* over *keys* repeats."""
    picked = [_key(row, keys) for row in rows]
    picked = [key for key in picked if None not in key]
    return len(set(picked)) == len(picked)


@pytest.mark.parametrize("placement", list(PLACEMENTS))
@settings(max_examples=60, deadline=None)
@given(
    left=ROWS,
    right=ROWS,
    keys=st.sampled_from([("a",), ("a", "b"), ("b", "a")]),
    dedupe=st.booleans(),
)
def test_the_left_build_gives_the_right_builds_rows_in_order(
    placement, left, right, keys, dedupe
):
    if dedupe:  # the first row of each key, NULL-bearing keys too
        first = {}
        for row in left:
            first.setdefault(_key(row, keys), row)
        left = list(first.values())
    database = _database(left, right)
    plan = _join(keys)
    with left_builds() as calls:
        executor = Executor(partition_database(database, _config(placement)))
        runs = [executor.execute(plan) for _run in range(3)]
    with mock.patch.object(operators, "_keys_may_repeat", lambda *_: False):
        executor = Executor(partition_database(database, _config(placement)))
        today = executor.execute(plan)
    for run in runs:
        assert run.rows == today.rows
        assert run.stats.canonical() == today.stats.canonical()
    assert_same_rows(today.rows, LocalExecutor(database).execute(plan).rows)
    if placement == "replicated":  # one join task over the whole store
        expected = len(left) < len(right) and _unique_keys(left, keys)
        assert calls == ([len(left)] if expected else [])


# -- the spy on the stored side's key table ----------------------------------

CUSTOMERS = [(10 + c, f"c{c}", 0) for c in range(4)]
#: Ten orders per customer, so every partition's custkeys repeat.
ORDERS = [(k, 10 + k % 4, float(k)) for k in range(40)]
#: customer JOIN orders on custkey, local under the PREF design below
#: with the bare orders scan as the stored right input.
JOIN = (
    Query.scan("customer", alias="c")
    .join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
    .select(["c.cname", "o.orderkey", "o.total"])
    .plan()
)
CUSTKEY = (1,)


@pytest.fixture
def cluster():
    config = PartitioningConfig(NODES)
    config.add("orders", HashScheme(("orderkey",), NODES))
    config.add(
        "customer",
        PrefScheme(
            "orders",
            JoinPredicate.equi("customer", "custkey", "orders", "custkey"),
        ),
    )
    database = Database(shop_schema())
    database.load("customer", CUSTOMERS)
    database.load("orders", ORDERS)
    cluster = SimulatedCluster.partition(database, config, backend="serial")
    yield cluster
    cluster.close()


@pytest.fixture
def key_tables(monkeypatch):
    """The partitions each ``Partition.key_table`` call was made on."""
    asked = []
    original = Partition.key_table

    def spy(self, positions, try_unique=True):
        asked.append(self)
        return original(self, positions, try_unique)

    monkeypatch.setattr(Partition, "key_table", spy)
    return asked


def _oracle(cluster, plan) -> list:
    database = Database(cluster.schema)
    for name in cluster.partitioned.table_names:
        database.load(
            name, list(cluster.partitioned.table(name).canonical_rows())
        )
    return LocalExecutor(database).execute(plan).rows


def test_first_ask_since_a_write_builds_the_left_input(cluster, key_tables):
    orders = cluster.partitioned.table("orders").partitions
    with left_builds() as calls:
        first = cluster.run(JOIN).rows
    assert len(calls) == NODES
    assert not set(map(id, key_tables)) & set(map(id, orders))
    # The ask is noted, so the next one builds and keeps the table.
    assert [partition.key_index for partition in orders] == [{CUSTKEY: None}] * NODES

    assert cluster.run(JOIN).rows == first
    assert {id(partition) for partition in key_tables} >= set(map(id, orders))
    for partition in orders:
        kept = partition.key_index[CUSTKEY]
        assert kept is not None
        assert kept == build_key_table([partition.columns[1]], compact=True)[0]
    assert cluster.run(JOIN).rows == first

    cluster.loader.insert("orders", [(1000, 11, 2.0), (1001, 12, 3.0)])
    written = [p for p in orders if CUSTKEY not in (p.key_index or {})]
    assert written
    key_tables.clear()
    with left_builds() as calls:
        rows = cluster.run(JOIN).rows
    assert len(calls) == len(written)
    assert not set(map(id, key_tables)) & set(map(id, written))
    assert_same_rows(rows, _oracle(cluster, JOIN))


#: One order (a left input shorter than any customer partition) joined
#: to customer on custkey, the primary key: the stored keys are unique.
BY_PRIMARY_KEY = (
    Query.scan("orders", alias="o")
    .where(col("o.orderkey") == lit(5))
    .join(Query.scan("customer", alias="c"), on=[("o.custkey", "c.custkey")])
    .select(["o.orderkey", "c.cname"])
    .plan()
)


def test_a_unique_right_key_never_takes_the_left_build(cluster, key_tables):
    customers = cluster.partitioned.table("customer").partitions
    with left_builds() as calls:
        for _run in range(3):
            rows = cluster.run(BY_PRIMARY_KEY).rows
    assert calls == []
    assert {id(partition) for partition in key_tables} & set(map(id, customers))
    assert_same_rows(rows, _oracle(cluster, BY_PRIMARY_KEY))
    # Teeth: were the keys thought to repeat, the same join would (a
    # unique table is never noted, so every ask is a first one).
    with mock.patch.object(operators, "_keys_may_repeat", lambda *_: True):
        with left_builds() as calls:
            assert_same_rows(cluster.run(BY_PRIMARY_KEY).rows, rows)
    assert calls
