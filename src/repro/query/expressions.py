"""A small expression language for filters, projections and aggregates.

Expressions are bound against a relation's column list once, yielding a
plain ``row -> value`` callable (``bind``) or a ``ColumnBatch -> list``
kernel (``bind_batch``), so evaluation involves no name lookups.  Column
references may be fully qualified (``orders.custkey``) or abbreviated
(``custkey``); abbreviations must resolve uniquely.

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

The row closures are this contract's one implementation: the batch kernel
generated from ``source`` is two-valued and runs only where that is exact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import PlanningError

if TYPE_CHECKING:
    from repro.engine.rows import ColumnBatch

Row = tuple
RowFn = Callable[[Row], object]
#: A compiled batch kernel: ColumnBatch -> list of per-row values (see
#: :meth:`Expression.bind_batch` for its ``null_free`` flag).
BatchFn = Callable[..., list]

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

#: Operator -> the Python token generated source holds for it (``/`` has
#: none: division by zero is NULL, which no two-valued token says).
_TOKENS = {
    "=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "+": "+", "-": "-", "*": "*",
}


class Expression:
    """Base class for all expressions."""

    def bind(self, columns: Sequence[str]) -> RowFn:
        """Compile this expression against *columns*, returning row -> value."""
        raise NotImplementedError

    def bind_batch(self, columns: Sequence[str]) -> BatchFn:
        """Compile a batch kernel: ColumnBatch -> list of values, equal
        element for element to mapping :meth:`bind` over the rows.

        It reads only the referenced columns.  When none of them holds a
        NULL in the batch in hand and :meth:`source` could state the tree
        in two-valued Python, it is one generated comprehension
        (:func:`kernel_source`); otherwise the row closure zipped over them.
        A caller that knows the columns hold no NULL (a filter over a
        stored partition's kept flags) says so with ``null_free=True``,
        and the kernel skips its ``None in column`` scan.
        """
        positions = sorted(referenced_positions([self], columns))
        narrow = [columns[p] for p in positions]
        scalar = self.bind(narrow)
        generated = kernel_source(self, narrow)
        fused = generated and _compile_factory(generated[0])(*generated[1])

        def evaluate(batch: "ColumnBatch", null_free: bool = False) -> list:
            cols = [batch.column(p) for p in positions]
            if fused and (null_free or not any(None in c for c in cols)):
                return fused(*cols)
            rows = zip(*cols) if cols else [()] * batch.length
            return list(map(scalar, rows))

        return evaluate

    #: True when the row closure yields only ``True``/``False``/``None``,
    #: so Python's ``and``/``or`` over this node's source return a bool.
    boolean = False

    def source(self, names: "_Names") -> str:
        """This node as a parenthesised, two-valued Python expression
        over *names*, equal to the row closure wherever no operand is
        NULL; raises :class:`_ThreeValued` when no such source exists."""
        raise _ThreeValued

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
        return lambda batch, null_free=False: batch.column(position)

    def source(self, names: "_Names") -> str:
        return names.column(self.name)

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
        return lambda batch, null_free=False: [value] * batch.length

    def source(self, names: "_Names") -> str:
        if self.value is None:
            raise _ThreeValued
        return names.constant(self.value)

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


@dataclass(eq=False, repr=False)
class _Infix(Expression):
    """``left op right``: what comparison and arithmetic share."""

    op: str
    left: Expression
    right: Expression

    def source(self, names: "_Names") -> str:
        if self.op not in _TOKENS:
            raise _ThreeValued
        left, right = self.left.source(names), self.right.source(names)
        return f"({left} {_TOKENS[self.op]} {right})"

    def referenced_columns(self) -> tuple[str, ...]:
        return self.left.referenced_columns() + self.right.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(eq=False, repr=False)
class Comparison(_Infix):
    """Binary comparison producing a boolean."""

    boolean = True

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


@dataclass(eq=False, repr=False)
class Arithmetic(_Infix):
    """Binary arithmetic over numeric values."""

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


@dataclass(eq=False)
class BooleanOp(Expression):
    """AND / OR over boolean sub-expressions."""

    op: str  # "and" | "or"
    operands: tuple[Expression, ...]
    boolean = True

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

    def source(self, names: "_Names") -> str:
        # and/or return one of their operands, so each must yield a bool.
        booleans = self.operands and all(o.boolean for o in self.operands)
        if self.op not in ("and", "or") or not booleans:
            raise _ThreeValued
        joiner = f" {self.op} "
        return "(" + joiner.join(o.source(names) for o in self.operands) + ")"

    def referenced_columns(self) -> tuple[str, ...]:
        names: tuple[str, ...] = ()
        for operand in self.operands:
            names += operand.referenced_columns()
        return names

    def __repr__(self) -> str:
        joiner = f" {self.op.upper()} "
        return "(" + joiner.join(repr(op) for op in self.operands) + ")"


@dataclass(eq=False, repr=False)
class _Unary(Expression):
    """A boolean-valued node over one operand."""

    operand: Expression
    boolean = True

    def referenced_columns(self) -> tuple[str, ...]:
        return self.operand.referenced_columns()


@dataclass(eq=False, repr=False)
class Negation(_Unary):
    """Logical NOT."""

    def bind(self, columns: Sequence[str]) -> RowFn:
        bound = self.operand.bind(columns)

        def evaluate(row: Row) -> object:
            value = bound(row)
            if value is None:
                return None
            return not value

        return evaluate

    def source(self, names: "_Names") -> str:
        return f"(not {self.operand.source(names)})"

    def __repr__(self) -> str:
        return f"NOT {self.operand!r}"


@dataclass(eq=False)
class IsNull(_Unary):
    """NULL test (``IS NULL`` / ``IS NOT NULL``)."""

    negated: bool = False

    def bind(self, columns: Sequence[str]) -> RowFn:
        bound = self.operand.bind(columns)
        if self.negated:
            return lambda row: bound(row) is not None
        return lambda row: bound(row) is None

    def source(self, names: "_Names") -> str:
        token = "is not" if self.negated else "is"
        return f"({self.operand.source(names)} {token} None)"


@dataclass(eq=False)
class InList(_Unary):
    """Membership test against a literal list."""

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

    def source(self, names: "_Names") -> str:
        if None in self.values:  # a miss is unknown, not false
            raise _ThreeValued
        token = "not in" if self.negated else "in"
        values = names.constant(frozenset(self.values))
        return f"({self.operand.source(names)} {token} {values})"


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


class _ThreeValued(Exception):
    """Raised by ``source``: two-valued code would not equal the row
    closure (a NULL literal, a NULL in an IN-list, a division, a
    boolean operator over a non-boolean operand, an unknown node)."""


class _Names:
    """The only identifiers generated source may contain: ``v<i>`` for a
    value of the i-th column, ``k<i>`` for a bound constant.  Column
    names and literal values never reach the source text."""

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = columns
        self.constants: list[object] = []

    def column(self, name: str) -> str:
        return f"v{resolve_column(name, self.columns)}"

    def constant(self, value: object) -> str:
        self.constants.append(value)
        return f"k{len(self.constants) - 1}"


def kernel_source(
    expression: Expression, columns: Sequence[str]
) -> tuple[str, list[object]] | None:
    """``(source, constants)`` of *expression*'s fused kernel, or None.

    The source defines ``factory(k0, ...)`` returning ``kernel(c0, ...)``
    over *columns* (exactly the referenced ones): one comprehension that
    evaluates the whole tree per row, ``and``/``or`` short-circuiting as
    the row closure does.  Trees differing only in constants yield the
    same text, so :func:`_compile_factory` compiles it once.
    """
    if not columns:  # nothing to iterate: a constant has no batch length
        return None
    names = _Names(columns)
    try:
        body = expression.source(names)
    except _ThreeValued:
        return None
    cols = ", ".join(f"c{i}" for i in range(len(columns)))
    values = ", ".join(f"v{i}" for i in range(len(columns)))
    feed = cols if len(columns) == 1 else f"zip({cols})"
    constants = ", ".join(f"k{i}" for i in range(len(names.constants)))
    source = (
        f"def factory({constants}):\n"
        f"    def kernel({cols}):\n"
        f"        return [{body} for {values} in {feed}]\n"
        f"    return kernel\n"
    )
    return source, names.constants


@lru_cache(maxsize=512)
def _compile_factory(source: str) -> Callable[..., Callable[..., list]]:
    """The one place source text becomes code (a test counts the sites);
    that code sees ``zip`` and no other builtin."""
    namespace: dict[str, object] = {"__builtins__": {}, "zip": zip}
    exec(source, namespace)
    return namespace["factory"]  # type: ignore[return-value]


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
