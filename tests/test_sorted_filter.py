"""A filter over a stored partition may answer from its sorted columns.

``PhysicalFilter`` over a scan that serves a partition as stored reads
what the partition keeps (``Partition.sorted_column``,
``Partition.holds_null``): the sargable conjuncts of the column with the
fewest candidates are answered by bisection, and only those rows, in
stored order, meet the rest of the condition.  That is an access path,
not a semantics: the answer must be the full kernel's, row order
included.  The property below runs random conjunctions over random
stored columns (NULLs, repeats, int/float/bool mixes, strings, columns
with no order) both ways, on a hashed store, a replicated one, one
pruned by the partitioning key and a patched-PREF one whose second
partition gets deliveries — the last two keep the full path on the
partitions a scan does not serve as stored.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.catalog import DatabaseSchema, DataType
from repro.engine import operators
from repro.engine.operators import PhysicalFilter
from repro.obs.explain import render_analyze
from repro.partitioning import (
    HashScheme,
    JoinPredicate,
    PartitioningConfig,
    PatchedPrefScheme,
    ReplicatedScheme,
    check_pref_invariants,
    partition_database,
)
from repro.query import Executor, Query
from repro.query.expressions import (
    InList,
    IsNull,
    and_,
    col,
    lit,
    not_,
    or_,
)
from repro.storage import Database
from repro.storage.partition import (
    SORT_ON_CALL,
    UNORDERED,
    Partition,
    build_sorted_column,
)

N = 2
COLUMNS = ("a", "b", "c")
#: Row keys of ``t``; ``s`` holds ten rows per key for the patched store.
KEYS = 40

#: Per column kind, the stored values (NULL among them) and the literals
#: its ordering comparisons take.  ``mixed`` has no order: it is compared
#: only by equality and membership, which never raise.
KINDS = {
    "int": (st.integers(-3, 6), st.integers(-4, 7)),
    "number": (
        st.one_of(st.integers(-3, 6), st.sampled_from([-1.5, 0.0, 2.5, 3.0]),
                  st.booleans()),
        st.one_of(st.integers(-4, 7), st.sampled_from([-0.5, 2.0, 2.5, True])),
    ),
    "nan": (
        st.sampled_from([0.5, 1.0, 2.0, math.nan, -1.0]),
        st.sampled_from([0.5, 1.0, 1.5, 3]),
    ),
    "str": (st.sampled_from(["a", "b", "bb", "c", ""]),
            st.sampled_from(["a", "b", "ba", "d"])),
    "mixed": (st.sampled_from([1, 2, "a", "b", 2.0]),
              st.sampled_from([1, "a", 2, "z"])),
}


def schema() -> DatabaseSchema:
    schema = DatabaseSchema()
    schema.create_table(
        "s", [("sk", DataType.INTEGER), ("k", DataType.INTEGER)],
        primary_key=["sk"],
    )
    schema.create_table(
        "t",
        [("k", DataType.INTEGER), *((name, DataType.FLOAT) for name in COLUMNS)],
        primary_key=["k"],
    )
    return schema


def config(layout: str) -> PartitioningConfig:
    config = PartitioningConfig(N)
    config.add("s", HashScheme(("sk",), N))
    if layout == "replicated":
        config.add("t", ReplicatedScheme(N))
    elif layout == "patched":
        # One stored copy of each t row; every key has s rows in both
        # partitions, so the other partition gets it as a delivery.
        config.add(
            "t",
            PatchedPrefScheme(
                "s", JoinPredicate.equi("t", "k", "s", "k"), max_copies=1
            ),
        )
    else:
        config.add("t", HashScheme(("k",), N))
    return config


def store(layout: str, values: list[tuple]):
    database = Database(schema())
    database.load("s", [(sk, sk // 10) for sk in range(10 * KEYS)])
    database.load("t", [(k, *row) for k, row in enumerate(values)])
    return partition_database(database, config(layout))


@st.composite
def comparison(draw, name, kind):
    literals = KINDS[kind][1]
    ops = ["=", "!="] if kind == "mixed" else ["=", "<", "<=", ">", ">=", "!="]
    op = draw(st.sampled_from(ops))
    literal = lit(draw(literals))
    column = col(f"t.{name}")
    if draw(st.booleans()):
        return getattr(literal, _DUNDER[_FLIP[op]])(column)
    return getattr(column, _DUNDER[op])(literal)


_DUNDER = {
    "=": "__eq__", "!=": "__ne__", "<": "__lt__", "<=": "__le__",
    ">": "__gt__", ">=": "__ge__",
}
_FLIP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@st.composite
def conjunct(draw, kinds):
    name = draw(st.sampled_from(COLUMNS))
    kind = kinds[name]
    values, literals = KINDS[kind]
    column = col(f"t.{name}")
    shape = draw(st.sampled_from(
        ["compare"] * 6 + ["in"] * 2
        + ["in_null", "not_in", "not", "or", "is_null", "arith"]
    ))
    if shape == "compare":
        return draw(comparison(name, kind))
    if shape in ("in", "in_null", "not_in"):
        members = draw(st.lists(st.one_of(values, literals), max_size=4))
        if shape == "in_null":
            members.append(None)
        return InList(column, tuple(members), negated=shape == "not_in")
    if shape == "not":
        return not_(draw(comparison(name, kind)))
    if shape == "or":
        return or_(draw(comparison(name, kind)), draw(comparison(name, kind)))
    if shape == "is_null":
        return IsNull(column, negated=draw(st.booleans()))
    if kind in ("int", "number", "nan"):
        return column + lit(1) > draw(literals)
    return draw(comparison(name, kind))


@st.composite
def cases(draw):
    kinds = {name: draw(st.sampled_from(list(KINDS))) for name in COLUMNS}
    rows = draw(
        st.lists(
            st.tuples(
                *(
                    st.one_of(st.none(), KINDS[kinds[name]][0])
                    for name in COLUMNS
                )
            ),
            max_size=KEYS,
        )
    )
    condition = and_(*draw(st.lists(conjunct(kinds), min_size=1, max_size=4)))
    output = draw(st.sets(st.sampled_from(COLUMNS)))
    return rows, condition, sorted(output)


def plan(condition, output, key=None):
    if key is not None:  # pins one partition of the hashed store
        condition = and_(col("t.k") == lit(key), condition)
    query = Query.scan("t", alias="t").where(condition)
    if output:
        query = query.select([f"t.{name}" for name in output])
    return query.plan()


def answers(partitioned, query, share: float | None) -> tuple[str, int, set]:
    """``(repr of the rows, candidates examined, columns whose sorted
    entries were read)`` with the sorted-column path allowed up to
    *share* of a partition of any size (None: never, not even noting a
    column)."""
    executor = Executor(partitioned)
    if share is None:
        patch = mock.patch.object(
            PhysicalFilter, "_candidates", lambda self, stored, length: None
        )
    else:
        patch = mock.patch.multiple(
            operators, SORTED_SHARE=share, SORTED_MIN_ROWS=0
        )
    with patch:
        result = executor.execute(query, analyze=True)
    spans = list(result.trace.spans())
    return (
        repr(result.rows),
        sum(span.examined for span in spans),
        {column for span in spans for column in span.examined_on},
    )


@pytest.mark.parametrize("layout", ["hashed", "replicated", "pruned", "patched"])
@settings(max_examples=120, deadline=None)
@given(case=cases(), key=st.integers(0, KEYS - 1))
def test_sorted_columns_answer_as_the_full_kernel(layout, case, key):
    rows, condition, output = case
    partitioned = store(layout, rows)
    query = plan(condition, output, key if layout == "pruned" else None)
    full, examined, read_from = answers(partitioned, query, None)
    assert (examined, read_from) == (0, set())
    # The runs before SORT_ON_CALL count; that one sorts and reads the
    # columns, the next reads them as kept.
    for _run in range(SORT_ON_CALL - 1):
        assert answers(partitioned, query, 1.0)[1:] == (0, set())
    for _run in range(2):
        rows, _examined, read_from = answers(partitioned, query, 1.0)
        assert rows == full
    event(f"sorted path: {bool(read_from)}")
    check_pref_invariants(partitioned, config(layout))


@pytest.mark.parametrize("layout", ["hashed", "replicated", "pruned", "patched"])
def test_each_layout_takes_the_sorted_path_where_the_scan_is_stored(layout):
    values = [(float(k % 7), "x" if k % 2 else "y", None) for k in range(KEYS)]
    partitioned = store(layout, values)
    key = 3 if layout == "pruned" else None
    query = plan(col("t.a") < lit(2.0), ["a", "b"], key)
    full = answers(partitioned, query, None)
    for _run in range(SORT_ON_CALL - 1):
        answers(partitioned, query, 1.0)
    rows, examined, read_from = answers(partitioned, query, 1.0)
    assert rows == full[0]
    t = partitioned.table("t")
    if layout == "pruned":
        # Only the key's partition is scanned, and its sorted key column
        # has the fewest candidates: the one row.
        assert (examined, read_from) == (1, {"t.k"})
        return
    assert read_from == {"t.a"}
    # Replicated: one copy.  Patched: partition 1 appends deliveries to a
    # copy of its columns, so only partition 0 is read as stored.
    served = [0, 1] if layout == "hashed" else [0]
    if layout == "patched":
        assert t.patches_for(1) and not t.patches_for(0)
    expected = sum(
        sum(value < 2.0 for value in t.partitions[p].columns[1]) for p in served
    )
    assert examined == expected > 0


def test_a_filter_that_keeps_most_rows_takes_the_full_pass():
    values = [(float(k), "x", None) for k in range(KEYS)]
    partitioned = store("hashed", values)
    query = plan(col("t.a") >= lit(2.0), ["a"])
    for _run in range(SORT_ON_CALL):
        _rows, examined, _on = answers(partitioned, query, operators.SORTED_SHARE)
    assert examined == 0
    assert answers(partitioned, query, 0.05)[1] == 0
    assert answers(partitioned, query, 1.0)[1] == KEYS - 2


def test_explain_analyze_names_the_column_and_its_candidates():
    """The access path shows in the trace and stays out of its canonical
    form: a cold and a warm run of one query compare equal."""
    partitioned = store("hashed", [(float(k), "x", None) for k in range(KEYS)])
    executor = Executor(partitioned)
    query = plan(col("t.a") < lit(4.0), ["a"])
    with mock.patch.object(operators, "SORTED_MIN_ROWS", 0):
        cold = executor.execute(query, analyze=True)
        assert "examined" not in render_analyze(cold.trace)
        for _run in range(SORT_ON_CALL - 2):
            executor.execute(query)
        warm = executor.execute(query, analyze=True)
    assert "rows=40->4  examined=4  entry=t.a" in render_analyze(warm.trace)
    assert warm.trace.metrics.counter("engine.access.examined") == 4
    assert warm.trace.canonical() == cold.trace.canonical()


def test_a_partition_below_the_row_floor_runs_the_full_kernel():
    """Partitions of fewer than ``SORTED_MIN_ROWS`` rows never ask for a
    sorted column, even where every other rule would read one."""
    values = [(float(k % 7), "x", None) for k in range(KEYS)]
    partitioned = store("hashed", values)
    t = partitioned.table("t")
    assert 0 < max(map(len, t.partitions)) < operators.SORTED_MIN_ROWS
    query = plan(col("t.a") < lit(2.0), ["a", "b"])
    full = answers(partitioned, query, None)[0]
    asks = []
    sorted_column = Partition.sorted_column

    def counted(self, position):
        asks.append(position)
        return sorted_column(self, position)

    with mock.patch.object(Partition, "sorted_column", counted):
        for _run in range(SORT_ON_CALL + 1):
            result = Executor(partitioned).execute(query, analyze=True)
            assert repr(result.rows) == full
            assert sum(span.examined for span in result.trace.spans()) == 0
    assert asks == []
    # With the floor at 0 the same store takes the sorted path.
    for _run in range(SORT_ON_CALL):
        rows, examined, _on = answers(partitioned, query, operators.SORTED_SHARE)
    assert rows == full and examined > 0


def test_a_column_with_no_order_is_marked_and_never_raises():
    for column in ([1, "a", None, 2], [0.5, math.nan, None, 1.0], [math.nan]):
        assert build_sorted_column(column) is UNORDERED
        partition = Partition(0, 1)
        partition.extend(
            [(value,) for value in column], range(len(column)),
            [0] * len(column), [0] * len(column),
        )
        for _call in range(SORT_ON_CALL - 1):
            assert partition.sorted_column(0) is None  # counted
        assert partition.key_index == {("sorted", 0): SORT_ON_CALL - 1}
        assert partition.sorted_column(0) is None  # marked
        assert partition.key_index == {("sorted", 0): UNORDERED}
    # Rows in order of value, NULL left out, equal values (1.0 == True)
    # in stored order.
    assert build_sorted_column([3, None, 1.0, True, 3, 2]).tolist() == [
        2, 3, 5, 0, 4,
    ]


def test_the_null_flag_is_kept_until_a_write():
    partition = Partition(0, 2)
    partition.extend([(1, None), (2, 3)], [0, 1], [0, 0], [0, 0])
    assert partition.holds_null(1) and not partition.holds_null(0)
    assert partition.key_index == {("null", 1): True, ("null", 0): False}
    partition.set_row(0, (1, 4))
    # The overwrite may have removed column 1's last NULL: its flag goes,
    # and column 0's False flag stays.
    assert partition.key_index == {("null", 0): False}
    assert not partition.holds_null(1)
