"""SQL three-valued logic: unit contracts plus sqlite3 differencing.

The unit tests pin the NULL contract documented in
``repro.query.expressions``; the property tests evaluate randomly
generated predicates both through the engine's expression language and
through sqlite3, which serves as the independent ground truth.
"""

import random
import sqlite3

from repro.engine.rows import ColumnBatch
from repro.fuzz.generator import _gen_pred
from repro.fuzz.ir import expr_from_ir
from repro.fuzz.sqlite_oracle import _expr_sql
from repro.query.expressions import (
    InList,
    IsNull,
    and_,
    col,
    lit,
    not_,
    or_,
)

COLUMNS = ("t.i", "t.f", "t.s", "t.b")


def ev(expression, row):
    """Evaluate through the scalar kernel AND the batch kernel,
    asserting the two agree before returning the value — every unit case
    below therefore pins both evaluation paths at once."""
    scalar = expression.bind(COLUMNS)(row)
    batch = ColumnBatch.from_rows([row], len(COLUMNS))
    (value,) = expression.bind_batch(COLUMNS)(batch)
    if scalar is None:
        assert value is None
    else:
        assert value is not None and value == scalar
    return scalar


class TestComparisons:
    def test_null_equals_null_is_unknown(self):
        assert ev(col("t.i") == col("t.f"), (None, None, "x", True)) is None

    def test_null_against_value_is_unknown(self):
        assert ev(col("t.i") == lit(1), (None, 0.0, "x", True)) is None
        assert ev(col("t.i") < lit(1), (None, 0.0, "x", True)) is None
        assert ev(lit(None) >= col("t.i"), (3, 0.0, "x", True)) is None

    def test_null_against_string_is_no_type_error(self):
        # Python would raise TypeError on None < "x"; SQL says unknown.
        assert ev(col("t.s") < lit("x"), (1, 0.0, None, True)) is None

    def test_non_null_comparison_still_two_valued(self):
        assert ev(col("t.i") == lit(1), (1, 0.0, "x", True)) is True
        assert ev(col("t.i") == lit(2), (1, 0.0, "x", True)) is False


class TestArithmetic:
    def test_null_propagates(self):
        assert ev(col("t.i") + lit(1), (None, 0.0, "x", True)) is None
        assert ev(lit(2) * col("t.f"), (1, None, "x", True)) is None

    def test_division_by_zero_is_null(self):
        # sqlite (the differential oracle) yields NULL, not an error.
        assert ev(col("t.i") / lit(0), (7, 0.0, "x", True)) is None
        assert ev(col("t.f") / col("t.i"), (0, 4.0, "x", True)) is None


class TestKleeneLogic:
    UNKNOWN = col("t.i") == lit(1)  # t.i is NULL in every row below
    ROW = (None, 0.0, "x", True)

    def test_and(self):
        assert ev(and_(self.UNKNOWN, lit(False) == lit(True)), self.ROW) is False
        assert ev(and_(self.UNKNOWN, lit(1) == lit(1)), self.ROW) is None

    def test_or(self):
        assert ev(or_(self.UNKNOWN, lit(1) == lit(1)), self.ROW) is True
        assert ev(or_(self.UNKNOWN, lit(1) == lit(2)), self.ROW) is None

    def test_not(self):
        assert ev(not_(self.UNKNOWN), self.ROW) is None
        assert ev(not_(lit(1) == lit(2)), self.ROW) is True


class TestInList:
    def test_null_needle_is_unknown(self):
        assert ev(InList(col("t.i"), (1, 2)), (None, 0.0, "x", True)) is None

    def test_null_needle_empty_list_is_false(self):
        assert ev(InList(col("t.i"), ()), (None, 0.0, "x", True)) is False
        assert (
            ev(InList(col("t.i"), (), negated=True), (None, 0.0, "x", True))
            is True
        )

    def test_hit_beats_null_in_list(self):
        assert ev(InList(col("t.i"), (1, None)), (1, 0.0, "x", True)) is True

    def test_miss_with_null_in_list_is_unknown(self):
        assert ev(InList(col("t.i"), (1, None)), (3, 0.0, "x", True)) is None

    def test_not_in_with_null_is_never_true(self):
        row_hit = (1, 0.0, "x", True)
        row_miss = (3, 0.0, "x", True)
        assert ev(InList(col("t.i"), (1, None), negated=True), row_hit) is False
        assert ev(InList(col("t.i"), (1, None), negated=True), row_miss) is None


class TestIsNull:
    def test_always_two_valued(self):
        assert ev(IsNull(col("t.i")), (None, 0.0, "x", True)) is True
        assert ev(IsNull(col("t.i")), (1, 0.0, "x", True)) is False
        assert ev(IsNull(col("t.i"), negated=True), (None, 0.0, "x", True)) is False


# -- property tests: random predicates differenced against sqlite3 ---------

ENV = [
    ("p.i", "integer"),
    ("p.j", "integer"),
    ("p.f", "float"),
    ("p.s", "varchar"),
    ("p.b", "boolean"),
]
_VALUE_POOLS = {
    "integer": (None, 0, 1, 2, 13, -5),
    "float": (None, 0.0, 0.5, -3.75, 2.25),
    "varchar": (None, "", "a", "ab", "zz"),
    "boolean": (None, True, False),
}


def _random_rows(rng, count, nulls=True):
    return [
        tuple(rng.choice(_VALUE_POOLS[dtype][not nulls:]) for _, dtype in ENV)
        for _ in range(count)
    ]


def _sqlite_eval(predicate_sql, rows):
    connection = sqlite3.connect(":memory:")
    affinities = {
        "integer": "INTEGER",
        "float": "REAL",
        "varchar": "TEXT",
        "boolean": "INTEGER",
    }
    columns_sql = ", ".join(
        f'"{name}" {affinities[dtype]}' for name, dtype in ENV
    )
    connection.execute(f"CREATE TABLE p ({columns_sql})")
    placeholders = ", ".join("?" for _ in ENV)
    connection.executemany(f"INSERT INTO p VALUES ({placeholders})", rows)
    return [
        value
        for (value,) in connection.execute(
            f"SELECT {predicate_sql} FROM p ORDER BY rowid"
        )
    ]


def _same_verdict(engine_value, sqlite_value):
    if engine_value is None or sqlite_value is None:
        return engine_value is None and sqlite_value is None
    return bool(engine_value) == bool(sqlite_value)


def test_random_predicates_match_sqlite():
    """NULL-bearing rows run the row closure under ``bind_batch``,
    NULL-free rows the generated kernel: sqlite judges both."""
    rng = random.Random("3vl-sqlite-differencing")
    names = tuple(name for name, _ in ENV)
    for nulls in (True, False):
        rows = _random_rows(rng, 12, nulls)
        batch = ColumnBatch.from_rows(rows, len(names))
        for iteration in range(300):
            predicate_ir = _gen_pred(rng, ENV)
            expression = expr_from_ir(predicate_ir)
            bound = expression.bind(names)
            engine = [bound(row) for row in rows]
            # The batch kernel must agree with the row closure exactly:
            # predicates yield the True/False/None singletons.
            vectorized = expression.bind_batch(names)(batch)
            assert len(vectorized) == len(engine)
            for scalar_value, batch_value in zip(engine, vectorized):
                assert batch_value is scalar_value, predicate_ir
            via_sqlite = _sqlite_eval(_expr_sql(predicate_ir), rows)
            for position, (ours, theirs) in enumerate(zip(engine, via_sqlite)):
                assert _same_verdict(ours, theirs), (
                    f"iteration {iteration}, row {position}: engine={ours!r} "
                    f"sqlite={theirs!r} for {predicate_ir!r}"
                )
