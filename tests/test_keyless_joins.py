"""Keyless (cross and theta) joins run the hash-join kernel.

A join without equi-join keys keys every row to ``()``, so the keyed
kernel pairs every left row with every right row and the residual is its
batch kernel.  Every keyless join kind, with and without a residual,
runs against right inputs of 0, 1 and many rows under three placements:

* both inputs hashed: the join broadcasts;
* both replicated: the join runs once, and its build side is a stored
  partition with no key positions to index;
* a hashed left against a replicated right: the join runs locally on
  every node.

Each runs whole and in probe-row chunks of a few pairs (the engine
bounds the candidate pairs a keyless join materialises at once).
Answers equal ``LocalExecutor`` on every backend, and every read of the
compiled plan is live.  A SEMI/ANTI join with a residual stops scoring a
probe row at its first partner: a row counter on the residual holds it
to one chunk of build rows per probe row decided by its first one.
"""

from __future__ import annotations

import pytest

from helpers import BACKENDS, assert_same_rows, compiled, run_tree
from repro.catalog import DatabaseSchema, DataType
from repro.engine import operators
from repro.engine.operators import PhysicalHashJoin
from repro.partitioning import (
    HashScheme,
    PartitioningConfig,
    ReplicatedScheme,
    partition_database,
)
from repro.query import Executor, Query
from repro.query.expressions import col, lit
from repro.query.local_executor import LocalExecutor
from repro.query.plan import Join, JoinKind
from repro.storage import Database
from test_live_columns import check_reads_are_live

NODES = 3

#: ``l.v`` and ``rn.w`` hold NULLs, which the residual compares: the
#: pair's verdict is unknown, so it is no match (a LEFT OUTER row with no
#: other match is padded, an ANTI row kept).
LEFT_ROWS = [
    (i, v) for i, v in enumerate([1, 4, None, 7, 3, 9, None, 5, 2, 6, 0, 8])
]
RIGHT_ROWS = {
    "r0": [],
    "r1": [(1, 5)],
    "rn": [(2, 3), (3, None), (4, 7), (5, 3), (6, 10), (7, 0)],
}

KINDS = [
    JoinKind.CROSS,
    JoinKind.INNER,
    JoinKind.LEFT_OUTER,
    JoinKind.SEMI,
    JoinKind.ANTI,
]

PLACEMENTS = {
    "hashed": (True, True),
    "replicated": (False, False),
    "replicated_right": (True, False),
}


def keyless_plan(kind: JoinKind, right: str, residual: bool):
    """``l`` joined to *right* with no keys, projected narrower than the
    join so that the residual's columns are read but not output.

    A keyless join other than CROSS must have a residual; "without" one
    it gets a residual that reads no column and is always true.
    """
    if residual:
        condition = col("l.v") < col("r.w")
    elif kind is JoinKind.CROSS:
        condition = None
    else:
        condition = lit(1) == lit(1)
    join = Join(
        Query.scan("l", alias="l").plan(),
        Query.scan(right, alias="r").plan(),
        (),
        kind,
        condition,
    )
    outputs = ["l.id"]
    if kind not in (JoinKind.SEMI, JoinKind.ANTI):
        outputs.append(("rid", col("r.id")))
    return Query(join).select(outputs).plan()


@pytest.fixture(scope="module")
def database():
    schema = DatabaseSchema()
    for name in ("l", *RIGHT_ROWS):
        value = "v" if name == "l" else "w"
        schema.create_table(
            name,
            [("id", DataType.INTEGER), (value, DataType.INTEGER)],
            primary_key=["id"],
        )
    database = Database(schema)
    database.load("l", LEFT_ROWS)
    for name, rows in RIGHT_ROWS.items():
        database.load(name, rows)
    return database


@pytest.fixture(scope="module")
def stores(database):
    out = {}
    for placement, (left_hashed, right_hashed) in PLACEMENTS.items():
        config = PartitioningConfig(NODES)
        for name in ("l", *RIGHT_ROWS):
            hashed = left_hashed if name == "l" else right_hashed
            config.add(
                name,
                HashScheme(("id",), NODES) if hashed else ReplicatedScheme(NODES),
            )
        out[placement] = partition_database(database, config)
    return out


@pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
@pytest.mark.parametrize("placement", list(PLACEMENTS))
@pytest.mark.parametrize("right", list(RIGHT_ROWS))
@pytest.mark.parametrize("residual", [True, False], ids=["residual", "none"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_keyless_join_equals_the_oracle(
    database, stores, monkeypatch, kind, residual, right, placement, chunked
):
    if chunked:
        # One probe row a chunk against the many-row input, five against
        # the others.
        monkeypatch.setattr(operators, "KEYLESS_PAIRS", 5)
    plan = keyless_plan(kind, right, residual)
    partitioned = stores[placement]
    check_reads_are_live(compiled(partitioned, plan))
    expected = LocalExecutor(database).execute(plan)
    for make in BACKENDS.values():
        backend = make()
        try:
            result = Executor(partitioned, backend=backend).execute(plan)
        finally:
            backend.close()
        assert result.columns == expected.columns
        assert_same_rows(result.rows, expected.rows)


def test_both_replicated_build_side_is_a_stored_partition(stores):
    """The replicated placement reaches the join's stored-build path: the
    right input hands the join a stored partition, which a keyless build
    must not ask for a key index."""
    partitioned = stores["replicated"]
    root = compiled(partitioned, keyless_plan(JoinKind.CROSS, "rn", True))
    [join] = [op for op in root.walk() if isinstance(op, PhysicalHashJoin)]
    run_tree(root, partitioned.partition_count)
    assert join.single and not join.right_positions
    assert join.inputs[1].node_stored(0) is not None


@pytest.mark.parametrize("placement", ["hashed", "replicated"])
@pytest.mark.parametrize(
    "kind", [JoinKind.SEMI, JoinKind.ANTI], ids=lambda kind: kind.value
)
def test_a_decided_probe_row_scores_no_more_build_rows(
    monkeypatch, kind, placement
):
    """A SEMI/ANTI join with a residual scores the build rows in chunks
    and stops scoring a probe row once it has a partner.  Here each of the
    200 build rows partners every probe row, so each probe row is decided
    by its first build row and the residual (wrapped in a row counter)
    sees at most one chunk per probe row, not 200 rows."""
    schema = DatabaseSchema()
    for name, value in (("p", "v"), ("b", "w")):
        schema.create_table(
            name,
            [("id", DataType.INTEGER), (value, DataType.INTEGER)],
            primary_key=["id"],
        )
    database = Database(schema)
    database.load("p", [(i, i) for i in range(40)])
    database.load("b", [(i, 1_000) for i in range(200)])
    config = PartitioningConfig(NODES)
    for name in ("p", "b"):
        config.add(
            name,
            HashScheme(("id",), NODES)
            if placement == "hashed"
            else ReplicatedScheme(NODES),
        )
    partitioned = partition_database(database, config)
    plan = (
        Query(
            Join(
                Query.scan("p", alias="p").plan(),
                Query.scan("b", alias="b").plan(),
                (),
                kind,
                col("p.v") < col("b.w"),
            )
        )
        .select(["p.id"])
        .plan()
    )
    scored: list[int] = []
    build = PhysicalHashJoin.__init__

    def counting(self, *args):
        build(self, *args)
        residual = self.residual

        def counted(batch):
            scored.append(batch.length)
            return residual(batch)

        self.residual = counted

    monkeypatch.setattr(PhysicalHashJoin, "__init__", counting)
    result = Executor(partitioned).execute(plan)
    expected = LocalExecutor(database).execute(plan)
    assert_same_rows(result.rows, expected.rows)
    assert len(result.rows) == (40 if kind is JoinKind.SEMI else 0)
    assert 0 < sum(scored) <= operators.SEMI_CHUNK * 40
