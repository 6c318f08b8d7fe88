"""A small expression language for filters, projections and aggregates.

Expressions are bound against a relation's column list once, yielding a
plain ``row -> value`` callable, so per-row evaluation involves no name
lookups.  Column references may be fully qualified (``orders.custkey``) or
abbreviated (``custkey``); abbreviations must resolve uniquely.

NULL semantics (the contract the differential fuzzer enforces):

* ``None`` is SQL NULL.  Bound predicates return ``True``, ``False`` or
  ``None`` — three-valued logic with ``None`` standing for *unknown*.
* :class:`Comparison` yields unknown when either operand is NULL, so
  ``NULL = NULL`` is not true and ``col < NULL`` is not an error.
* :class:`Arithmetic` propagates NULL, and division by zero yields NULL
  (matching SQLite, our differential oracle).
* :class:`BooleanOp` and :class:`Negation` follow Kleene logic:
  ``unknown AND false`` is false, ``unknown OR true`` is true, everything
  else involving unknown stays unknown; ``NOT unknown`` is unknown.
* :class:`InList` treats the list as a chain of ``OR``-ed equalities:
  ``x IN (...)`` is unknown when ``x`` is NULL (and the list is non-empty),
  and ``x NOT IN (list containing NULL)`` is never true — at best unknown.
* :class:`IsNull` is the only predicate that is always two-valued.

Filters and join residuals accept a row only when the predicate is *truly*
true; ``None`` is falsy in Python, so call sites that test truthiness
reject unknown rows for free.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import PlanningError

if TYPE_CHECKING:
    from repro.engine.rows import ColumnBatch

Row = tuple
RowFn = Callable[[Row], object]
#: A compiled batch kernel: ColumnBatch -> list of per-row values.
BatchFn = Callable[["ColumnBatch"], list]

_COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC: dict[str, Callable[[object, object], object]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


class Expression:
    """Base class for all expressions."""

    def bind(self, columns: Sequence[str]) -> RowFn:
        """Compile this expression against *columns*, returning row -> value."""
        raise NotImplementedError

    def bind_batch(self, columns: Sequence[str]) -> BatchFn:
        """Compile a vectorized kernel: ColumnBatch -> list of values.

        Semantically equivalent to mapping the scalar :meth:`bind`
        callable over the batch's rows (that is also the default
        implementation); subclasses override with columnar kernels.
        """
        scalar = self.bind(columns)

        def evaluate(batch: "ColumnBatch") -> list:
            return [scalar(row) for row in batch.iter_rows()]

        return evaluate

    def referenced_columns(self) -> tuple[str, ...]:
        """Column names referenced by this expression (possibly abbreviated)."""
        return ()

    # Operator sugar so plans read naturally: col("a") == 3, col("x") + 1 ...
    def __eq__(self, other: object):  # type: ignore[override]
        return Comparison("=", self, _wrap(other))

    def __ne__(self, other: object):  # type: ignore[override]
        return Comparison("!=", self, _wrap(other))

    def __lt__(self, other: object):
        return Comparison("<", self, _wrap(other))

    def __le__(self, other: object):
        return Comparison("<=", self, _wrap(other))

    def __gt__(self, other: object):
        return Comparison(">", self, _wrap(other))

    def __ge__(self, other: object):
        return Comparison(">=", self, _wrap(other))

    def __add__(self, other: object):
        return Arithmetic("+", self, _wrap(other))

    def __radd__(self, other: object):
        return Arithmetic("+", _wrap(other), self)

    def __sub__(self, other: object):
        return Arithmetic("-", self, _wrap(other))

    def __rsub__(self, other: object):
        return Arithmetic("-", _wrap(other), self)

    def __mul__(self, other: object):
        return Arithmetic("*", self, _wrap(other))

    def __rmul__(self, other: object):
        return Arithmetic("*", _wrap(other), self)

    def __truediv__(self, other: object):
        return Arithmetic("/", self, _wrap(other))

    def __hash__(self):
        return id(self)


def _wrap(value: object) -> "Expression":
    if isinstance(value, Expression):
        return value
    return Literal(value)


@dataclass(eq=False)
class ColumnRef(Expression):
    """Reference to a column by (possibly qualified) name."""

    name: str

    def bind(self, columns: Sequence[str]) -> RowFn:
        position = resolve_column(self.name, columns)
        return lambda row: row[position]

    def bind_batch(self, columns: Sequence[str]) -> BatchFn:
        position = resolve_column(self.name, columns)
        return lambda batch: batch.column(position)

    def referenced_columns(self) -> tuple[str, ...]:
        return (self.name,)

    def __repr__(self) -> str:
        return f"col({self.name!r})"


@dataclass(eq=False)
class Literal(Expression):
    """A constant value."""

    value: object

    def bind(self, columns: Sequence[str]) -> RowFn:
        value = self.value
        return lambda row: value

    def bind_batch(self, columns: Sequence[str]) -> BatchFn:
        value = self.value
        return lambda batch: [value] * batch.length

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


@dataclass(eq=False)
class Comparison(Expression):
    """Binary comparison producing a boolean."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise PlanningError(f"unknown comparison operator {self.op!r}")

    def bind(self, columns: Sequence[str]) -> RowFn:
        compare = _COMPARATORS[self.op]
        left = self.left.bind(columns)
        right = self.right.bind(columns)

        def evaluate(row: Row) -> object:
            lhs = left(row)
            if lhs is None:
                return None
            rhs = right(row)
            if rhs is None:
                return None
            return compare(lhs, rhs)

        return evaluate

    def bind_batch(self, columns: Sequence[str]) -> BatchFn:
        compare = _COMPARATORS[self.op]
        left = self.left.bind_batch(columns)
        right = self.right.bind_batch(columns)

        def evaluate(batch: "ColumnBatch") -> list:
            lhs = left(batch)
            rhs = right(batch)
            if None in lhs or None in rhs:
                return [
                    None if (a is None or b is None) else compare(a, b)
                    for a, b in zip(lhs, rhs)
                ]
            return list(map(compare, lhs, rhs))

        return evaluate

    def referenced_columns(self) -> tuple[str, ...]:
        return self.left.referenced_columns() + self.right.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(eq=False)
class Arithmetic(Expression):
    """Binary arithmetic over numeric values."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise PlanningError(f"unknown arithmetic operator {self.op!r}")

    def bind(self, columns: Sequence[str]) -> RowFn:
        apply = _ARITHMETIC[self.op]
        left = self.left.bind(columns)
        right = self.right.bind(columns)

        def evaluate(row: Row) -> object:
            lhs = left(row)
            if lhs is None:
                return None
            rhs = right(row)
            if rhs is None:
                return None
            try:
                return apply(lhs, rhs)
            except ZeroDivisionError:
                return None

        return evaluate

    def bind_batch(self, columns: Sequence[str]) -> BatchFn:
        apply = _ARITHMETIC[self.op]
        left = self.left.bind_batch(columns)
        right = self.right.bind_batch(columns)
        # Only division can raise (ZeroDivisionError -> NULL).
        division = self.op == "/"

        def evaluate(batch: "ColumnBatch") -> list:
            lhs = left(batch)
            rhs = right(batch)
            if division or None in lhs or None in rhs:
                out = []
                for a, b in zip(lhs, rhs):
                    if a is None or b is None:
                        out.append(None)
                    else:
                        try:
                            out.append(apply(a, b))
                        except ZeroDivisionError:
                            out.append(None)
                return out
            return list(map(apply, lhs, rhs))

        return evaluate

    def referenced_columns(self) -> tuple[str, ...]:
        return self.left.referenced_columns() + self.right.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(eq=False)
class BooleanOp(Expression):
    """AND / OR over boolean sub-expressions."""

    op: str  # "and" | "or"
    operands: tuple[Expression, ...]

    def bind(self, columns: Sequence[str]) -> RowFn:
        bound = [operand.bind(columns) for operand in self.operands]
        if self.op == "and":

            def conjunction(row: Row) -> object:
                unknown = False
                for fn in bound:
                    value = fn(row)
                    if value is None:
                        unknown = True
                    elif not value:
                        return False
                return None if unknown else True

            return conjunction
        if self.op == "or":

            def disjunction(row: Row) -> object:
                unknown = False
                for fn in bound:
                    value = fn(row)
                    if value is None:
                        unknown = True
                    elif value:
                        return True
                return None if unknown else False

            return disjunction
        raise PlanningError(f"unknown boolean operator {self.op!r}")

    def bind_batch(self, columns: Sequence[str]) -> BatchFn:
        bound = [operand.bind_batch(columns) for operand in self.operands]
        if self.op == "and":

            def conjunction(batch: "ColumnBatch") -> list:
                operand_values = [fn(batch) for fn in bound]
                if not any(None in values for values in operand_values):
                    # Two-valued fast path: plain all() per row.
                    return [all(values) for values in zip(*operand_values)]
                out = []
                for values in zip(*operand_values):
                    unknown = False
                    result: object = True
                    for value in values:
                        if value is None:
                            unknown = True
                        elif not value:
                            result = False
                            break
                    if result:
                        result = None if unknown else True
                    out.append(result)
                return out

            return conjunction
        if self.op == "or":

            def disjunction(batch: "ColumnBatch") -> list:
                operand_values = [fn(batch) for fn in bound]
                if not any(None in values for values in operand_values):
                    # Two-valued fast path: plain any() per row.
                    return [any(values) for values in zip(*operand_values)]
                out = []
                for values in zip(*operand_values):
                    unknown = False
                    result: object = False
                    for value in values:
                        if value is None:
                            unknown = True
                        elif value:
                            result = True
                            break
                    if not result:
                        result = None if unknown else False
                    out.append(result)
                return out

            return disjunction
        raise PlanningError(f"unknown boolean operator {self.op!r}")

    def referenced_columns(self) -> tuple[str, ...]:
        names: tuple[str, ...] = ()
        for operand in self.operands:
            names += operand.referenced_columns()
        return names

    def __repr__(self) -> str:
        joiner = f" {self.op.upper()} "
        return "(" + joiner.join(repr(op) for op in self.operands) + ")"


@dataclass(eq=False)
class Negation(Expression):
    """Logical NOT."""

    operand: Expression

    def bind(self, columns: Sequence[str]) -> RowFn:
        bound = self.operand.bind(columns)

        def evaluate(row: Row) -> object:
            value = bound(row)
            if value is None:
                return None
            return not value

        return evaluate

    def bind_batch(self, columns: Sequence[str]) -> BatchFn:
        bound = self.operand.bind_batch(columns)

        def evaluate(batch: "ColumnBatch") -> list:
            return [
                None if value is None else not value for value in bound(batch)
            ]

        return evaluate

    def referenced_columns(self) -> tuple[str, ...]:
        return self.operand.referenced_columns()

    def __repr__(self) -> str:
        return f"NOT {self.operand!r}"


@dataclass(eq=False)
class IsNull(Expression):
    """NULL test (``IS NULL`` / ``IS NOT NULL``)."""

    operand: Expression
    negated: bool = False

    def bind(self, columns: Sequence[str]) -> RowFn:
        bound = self.operand.bind(columns)
        if self.negated:
            return lambda row: bound(row) is not None
        return lambda row: bound(row) is None

    def bind_batch(self, columns: Sequence[str]) -> BatchFn:
        bound = self.operand.bind_batch(columns)
        if self.negated:
            return lambda batch: [v is not None for v in bound(batch)]
        return lambda batch: [v is None for v in bound(batch)]

    def referenced_columns(self) -> tuple[str, ...]:
        return self.operand.referenced_columns()


@dataclass(eq=False)
class InList(Expression):
    """Membership test against a literal list."""

    operand: Expression
    values: tuple
    negated: bool = False

    def bind(self, columns: Sequence[str]) -> RowFn:
        bound = self.operand.bind(columns)
        values = frozenset(v for v in self.values if v is not None)
        has_null = any(v is None for v in self.values)

        def membership(row: Row) -> object:
            value = bound(row)
            if value is None:
                # x IN () is vacuously false even for NULL x; otherwise a
                # NULL operand makes every equality unknown.
                return None if (values or has_null) else False
            if value in values:
                return True
            return None if has_null else False

        if self.negated:

            def negated_membership(row: Row) -> object:
                result = membership(row)
                if result is None:
                    return None
                return not result

            return negated_membership
        return membership

    def bind_batch(self, columns: Sequence[str]) -> BatchFn:
        bound = self.operand.bind_batch(columns)
        values = frozenset(v for v in self.values if v is not None)
        null_result = None if (values or any(v is None for v in self.values)) else False
        miss_result = None if any(v is None for v in self.values) else False
        negated = self.negated

        def membership(batch: "ColumnBatch") -> list:
            out = []
            for value in bound(batch):
                if value is None:
                    result = null_result
                elif value in values:
                    result = True
                else:
                    result = miss_result
                if negated and result is not None:
                    result = not result
                out.append(result)
            return out

        return membership

    def referenced_columns(self) -> tuple[str, ...]:
        return self.operand.referenced_columns()


def col(name: str) -> ColumnRef:
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)


def lit(value: object) -> Literal:
    """Shorthand constructor for a literal."""
    return Literal(value)


def and_(*operands: Expression) -> Expression:
    """Conjunction of one or more boolean expressions."""
    if len(operands) == 1:
        return operands[0]
    return BooleanOp("and", tuple(operands))


def or_(*operands: Expression) -> Expression:
    """Disjunction of one or more boolean expressions."""
    if len(operands) == 1:
        return operands[0]
    return BooleanOp("or", tuple(operands))


def not_(operand: Expression) -> Negation:
    """Logical negation."""
    return Negation(operand)


def referenced_positions(
    expressions: Iterable[Expression | None], columns: Sequence[str]
) -> frozenset[int]:
    """The positions in *columns* that *expressions* reference."""
    return frozenset(
        resolve_column(name, columns)
        for expression in expressions
        if expression is not None
        for name in expression.referenced_columns()
    )


def resolve_column(name: str, columns: Sequence[str]) -> int:
    """Resolve a (possibly abbreviated) column name to a position.

    Exact matches win; otherwise ``name`` matches a single column whose
    qualified name ends with ``.name``.

    Raises:
        PlanningError: If the name is unknown or ambiguous.
    """
    try:
        if not isinstance(columns, list):
            columns = list(columns)
        return columns.index(name)
    except ValueError:
        pass
    suffix = "." + name
    matches = [
        position
        for position, column in enumerate(columns)
        if column.endswith(suffix)
    ]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise PlanningError(
            f"unknown column {name!r}; available: {list(columns)}"
        )
    raise PlanningError(
        f"ambiguous column {name!r} matches "
        f"{[columns[m] for m in matches]}"
    )
