"""ColumnBatch round-trips and sort-key totality."""

from __future__ import annotations

import pickle
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_hashed_config, shop_schema
from repro.engine.rows import ColumnBatch, _sort_key, row_sort_key
from repro.errors import ExecutionError
from repro.partitioning import partition_database
from repro.query import Executor, LocalExecutor, Query
from repro.storage import Database

# -- round trip: rows -> columns -> rows ------------------------------------

sql_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
)


@st.composite
def row_sets(draw):
    """A rectangular list of rows (possibly zero rows and/or columns)."""
    width = draw(st.integers(min_value=0, max_value=4))
    count = draw(st.integers(min_value=0, max_value=12))
    rows = [
        tuple(draw(sql_values) for _ in range(width)) for _ in range(count)
    ]
    return rows, width


@given(row_sets())
@settings(max_examples=200, deadline=None)
def test_round_trip_is_lossless(case):
    rows, width = case
    batch = ColumnBatch.from_rows(rows, width)
    assert batch.length == len(rows)
    assert batch.width == width
    assert batch.to_rows() == rows
    assert list(batch.iter_rows()) == rows
    for index in range(width):
        assert batch.has_nulls(index) == any(
            row[index] is None for row in rows
        )
    clone = pickle.loads(pickle.dumps(batch))
    assert clone == batch
    assert clone.to_rows() == rows


def test_round_trip_hidden_dup_bits():
    # PREF scans attach the dup/hasS bitmaps as trailing 0/1 int columns;
    # they must survive the transposes bit-for-bit (0 stays int 0, never
    # None or False).
    rows = [("a", 1, 0, 1), ("b", None, 1, 1), ("c", 3, 0, 0)]
    batch = ColumnBatch.from_rows(rows, 4)
    assert batch.to_rows() == rows
    assert batch.columns[2] == [0, 1, 0]
    assert all(type(bit) is int for bit in batch.columns[2])


def test_empty_and_zero_column_batches():
    empty = ColumnBatch.empty(3)
    assert empty.length == 0 and empty.width == 3
    assert empty.to_rows() == []
    assert ColumnBatch.from_rows([], 3).to_rows() == []
    # Zero-column batches still know their cardinality (scalar aggregate
    # inputs project away every column but must keep the row count).
    no_cols = ColumnBatch([], 5)
    assert no_cols.length == 5
    assert no_cols.to_rows() == [()] * 5
    assert no_cols.key_tuples(()) == [()] * 5
    assert pickle.loads(pickle.dumps(no_cols)).length == 5


def test_transform_sanity():
    rows = [(i, f"s{i % 3}", None if i % 4 == 0 else i * 0.5) for i in range(10)]
    batch = ColumnBatch.from_rows(rows, 3)
    assert batch.select([2, 0]).to_rows() == [(r[2], r[0]) for r in rows]
    mask = [i % 2 for i in range(10)]
    assert batch.compress(mask).to_rows() == rows[1::2]
    assert batch.take([3, 3, 0]).to_rows() == [rows[3], rows[3], rows[0]]


@pytest.mark.parametrize(
    "transform",
    [
        lambda batch: batch.take([3, 3, 0]),
        lambda batch: batch.compress([i % 2 for i in range(10)]),
        lambda batch: ColumnBatch.concat(
            [
                batch.take(range(0, 4)),
                ColumnBatch.empty(4),
                batch.take(range(4, 10)),
            ],
            4,
        ),
    ],
    ids=["take", "compress", "concat"],
)
def test_transforms_carry_pruned_columns_through(transform):
    """A pruned column stays an absent slot at its position; the present
    ones transform exactly as they do in the complete batch."""
    rows = [(i, f"s{i % 3}", None if i % 4 == 0 else i * 0.5, -i) for i in range(10)]
    complete = ColumnBatch.from_rows(rows, 4)
    pruned = complete.prune({0, 2})
    assert pruned.columns[0] is complete.columns[0]  # aliased, not copied
    assert pruned.present() == {0, 2} and pruned.width == 4
    expected = transform(complete)
    result = transform(pruned)
    assert result.length == expected.length
    assert result.width == 4 and result.present() == {0, 2}
    assert result.select([0, 2]) == expected.select([0, 2])
    # With every column pruned the row count is all that is left.
    hollow = transform(complete.prune(()))
    assert hollow.present() == frozenset()
    assert hollow.length == expected.length


@pytest.mark.parametrize(
    "indices",
    [[], [2], [2, 0], [3, 3, 0, 3], list(range(9, -1, -1)) * 3, range(4, 10), (1,)],
    ids=["none", "one", "two", "repeated", "many", "range", "tuple_of_one"],
)
def test_take_gathers_every_length(indices):
    """``take`` gathers with ``itemgetter(*indices)``, which raises on no
    index and returns a bare value for one: every length must still give
    lists of ``len(indices)`` values, pruned slots carried through."""
    rows = [(i, f"s{i % 3}", None if i % 4 == 0 else i * 0.5) for i in range(10)]
    batch = ColumnBatch.from_rows(rows, 3)
    taken = batch.take(indices)
    assert taken.length == len(indices)
    assert all(type(column) is list for column in taken.columns)
    assert taken.to_rows() == [rows[i] for i in indices]
    pruned = batch.prune({1}).take(indices)
    assert pruned.length == len(indices) and pruned.present() == {1}
    assert pruned.column(1) == [rows[i][1] for i in indices]
    # A one-row batch whose only value is itself a tuple stays a row.
    nested = ColumnBatch([[(1, 2), (3, 4)]], 2)
    assert nested.take([1]).columns == [[(3, 4)]]


@pytest.mark.parametrize("mask", [[True, True], [True] * 5, []])
def test_compress_refuses_a_mask_of_the_wrong_length(mask):
    """``itertools.compress`` stops at the shorter input, and a fully
    pruned batch takes its length from the mask alone: a kernel that
    returned a short mask used to lose rows without a word."""
    batch = ColumnBatch([[1, 2, 3, 4], [5, 6, 7, 8]], 4)
    for view in (batch, batch.prune({1}), batch.prune(())):
        with pytest.raises(ExecutionError, match=f"mask of {len(mask)} entries"):
            view.compress(mask)
    assert batch.compress([1, None, 0, True]).to_rows() == [(1, 5), (4, 8)]


def test_fully_pruned_compress_counts_the_truthy_entries():
    """With every column pruned, the kept row count is the mask's truthy
    entries: ``True`` and ``1`` count, ``False``, ``None`` and ``0`` do
    not."""
    mask = [True, False, None, 0, 1, True, None, 1, False, 0]
    batch = ColumnBatch([list(range(10)), list(range(10, 20))], 10)
    complete = batch.compress(mask)
    hollow = batch.prune(()).compress(mask)
    assert complete.length == hollow.length == 4
    assert hollow.present() == frozenset()
    assert ColumnBatch([None], 3).compress([None, 0, False]).length == 0


# -- _sort_key: total order over mixed-type columns --------------------------


def test_sort_key_is_total_over_mixed_types():
    values = [None, True, -7, 3, 2.5, float("nan"), "", "a", "z", b"x", (1, 2)]
    ranked = sorted(values, key=_sort_key)  # must not raise TypeError
    assert ranked[0] is None
    nan_pos = next(i for i, v in enumerate(ranked) if v != v)
    number_positions = [
        i
        for i, v in enumerate(ranked)
        if isinstance(v, (int, float, bool)) and v == v
    ]
    string_positions = [i for i, v in enumerate(ranked) if isinstance(v, str)]
    assert max(number_positions) < nan_pos < min(string_positions)
    # Keys are distinct here, so every permutation must sort identically
    # (antisymmetry: 3 < "a" and "a" < 3 cannot both hold).
    import random

    rng = random.Random(11)
    for _ in range(20):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert sorted(shuffled, key=_sort_key) == ranked


def test_order_by_mixed_int_string_column():
    # Regression: ORDER BY over a column holding both ints and strings
    # used to raise TypeError inside sorted(); _sort_key ranks by type.
    database = Database(shop_schema())
    mixed = [3, "apple", None, 7, "zed", 1, "apple"]
    database.load(
        "nation", [(i, value) for i, value in enumerate(mixed)]
    )
    partitioned = partition_database(database, all_hashed_config(3))
    plan = (
        Query.scan("nation", alias="n")
        .select(["n.nname"])
        .order_by(["nname"])
        .plan()
    )
    result = Executor(partitioned).execute(plan)
    expected = [(value,) for value in sorted(mixed, key=_sort_key)]
    assert result.rows == expected
    assert LocalExecutor(database).execute(plan).rows == expected


# -- row_sort_key: bare values where they order as _sort_key does -----------

#: Per column, the values one draws from: homogeneous kinds (bare-value
#: keys) beside mixes with NULL, NaN and strings (the _sort_key key).
sort_columns = st.sampled_from(
    [
        st.integers(-3, 3),
        st.one_of(st.integers(-3, 3), st.booleans(), st.sampled_from([-0.5, 1.0, 2.5])),
        st.sampled_from(["", "a", "ab", "b", "B"]),
        st.one_of(st.none(), st.integers(-3, 3)),
        st.one_of(st.integers(-3, 3), st.just(float("nan")), st.floats(-4, 4)),
        st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(-2, 2),
                  st.just(float("nan")), st.sampled_from(["a", "b"])),
        st.one_of(st.integers(-2, 2), st.sampled_from(["a", "1"])),
    ]
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_row_sort_key_orders_rows_as_sort_key_does(data):
    kinds = data.draw(st.lists(sort_columns, min_size=1, max_size=3))
    rows = data.draw(
        st.lists(st.tuples(*kinds), max_size=30).map(
            # The last field tells rows apart, so order is compared exactly.
            lambda rows: [(*row, index) for index, row in enumerate(rows)]
        )
    )
    keys = data.draw(
        st.lists(st.tuples(st.integers(0, len(kinds) - 1), st.booleans()),
                 min_size=1, max_size=3)
    )
    batch = ColumnBatch.from_rows(rows, len(kinds) + 1)
    fast, reference = list(rows), list(rows)
    for position, ascending in reversed(keys):
        fast.sort(
            key=row_sort_key(batch.column(position), position),
            reverse=not ascending,
        )
        reference.sort(
            key=lambda row: _sort_key(row[position]), reverse=not ascending
        )
    assert [row[-1] for row in fast] == [row[-1] for row in reference]


def test_row_sort_key_takes_bare_values_only_where_safe():
    for column in ([3, True, 2.5], ["b", "a"], []):
        assert isinstance(row_sort_key(column, 0), itemgetter)
    for column in ([1, None], [1.0, float("nan")], [1, "a"], [b"x"]):
        assert not isinstance(row_sort_key(column, 0), itemgetter)
