"""Filter pushdown: one logical pass that runs before the rewriter.

The hand-built plans filter above their joins, so a join used to ship
and probe rows that the filter above it then threw away.  This pass
splits every :class:`~repro.query.plan.Filter` condition on AND and
carries each conjunct down towards the scan it reads:

* through INNER and CROSS joins, into the side whose columns cover it;
* through LEFT OUTER joins only into the preserved (left) side — a
  conjunct on the NULL-supplying side must see the padded rows;
* through SEMI and ANTI joins only into the left side, whose rows are
  the output.

It stops at :class:`Aggregate`, :class:`Project` and :class:`OrderBy`.
A conjunct reading both sides of a join stays at the lowest join that
covers it.  When such a conjunct is an OR and every disjunct has
conjuncts on one side, the OR of those conjuncts is pushed to that side
as well and the original stays: the original implies the pushed one in
three-valued logic (a true disjunct makes its own conjuncts true), so
the pushed copy removes only rows the original would remove.

**The guard.** Moving a filter below a join is not free on a PREF-local
join: the filter then runs over every stored row of the scan, and a join
whose build side was a bare scan loses the key index kept in the
partition.  The conjuncts that would land on one scan after crossing a
join therefore move only when their AND keeps at most
:data:`PUSHDOWN_SELECTIVITY` of a stride sample of the scan's stored
rows (:func:`estimate_selectivity`); otherwise they stay just above the
lowest join they crossed, and a pushed OR copy is dropped.

A subtree in which nothing moves is returned as the same object, so a
plan that already filters at its scans is a fixed point.
"""

from __future__ import annotations

from dataclasses import replace
from operator import truth
from typing import Sequence

from repro.engine.rows import ColumnBatch
from repro.errors import PlanningError, UnknownObjectError
from repro.query.expressions import (
    BooleanOp,
    Expression,
    and_,
    or_,
    referenced_positions,
    resolve_column,
)
from repro.query.plan import (
    Aggregate,
    Filter,
    Join,
    JoinKind,
    OrderBy,
    PlanNode,
    Project,
    Scan,
)
from repro.storage.partitioned import PartitionedDatabase, PartitionedTable

#: Largest share of a scan's sampled rows that the conjuncts pushed onto
#: it may keep.  Measured on TPC-H under the PREF design and all-hashed
#: (EXPERIMENTS "Filters below joins"): 0.25 takes every gain measured;
#: 0.1 leaves Q2's, Q5's, Q8's and Q16's 15–20 % filters above their
#: joins, and 0.5 and 1.0 let Q3's and Q10's half-selective date and
#: flag filters below PREF-local joins, which they slow 1.2–3.7×.
PUSHDOWN_SELECTIVITY = 0.25

#: Stored rows the guard samples per estimate, by a fixed stride over the
#: partitions in order.  512 rows put the estimate of a 25 % filter
#: within about ±2 points (one standard error) at well under a
#: millisecond per estimate.
SELECTIVITY_SAMPLE = 512

#: The join kinds whose right side a conjunct may enter.
_RIGHT_OPEN = (JoinKind.INNER, JoinKind.CROSS)


def push_filters(plan: PlanNode, partitioned: PartitionedDatabase) -> PlanNode:
    """*plan* with its filter conjuncts moved below joins where the guard
    says it pays (module docstring); *plan* itself when nothing moves."""
    return _Pushdown(partitioned).push(plan, ())[0]


def estimate_selectivity(
    table: PartitionedTable, alias: str, conjuncts: Sequence[Expression]
) -> float:
    """The share of a stride sample of *table*'s stored rows (at most
    :data:`SELECTIVITY_SAMPLE`, PREF copies included) on which every
    conjunct is true, reading only the columns they reference.  An empty
    table, or a conjunct that cannot be evaluated on the stored values,
    estimates 1.0 (keep everything: nothing moves)."""
    names = [f"{alias}.{column.name}" for column in table.schema.columns]
    condition = and_(*conjuncts)
    positions = sorted(referenced_positions([condition], names))
    total = table.total_rows
    if not total or not positions:
        return 1.0
    stride = -(-total // SELECTIVITY_SAMPLE)
    sample: list[list] = [[] for _ in positions]
    start = 0  # index in the next partition of its first sampled row
    for partition in table.partitions:
        for values, position in zip(sample, positions):
            values.extend(partition.columns[position][start::stride])
        start = (start - len(partition)) % stride
    kernel = condition.bind_batch([names[p] for p in positions])
    try:
        kept = sum(map(truth, kernel(ColumnBatch(sample))))
    except TypeError:  # e.g. a comparison across types
        return 1.0
    return kept / len(sample[0])


class _Conjunct:
    """One conjunct on its way down.  ``crossed``: it has passed a join
    (the guard applies where it lands); ``derived``: the pushed copy of
    an OR that stays above, dropped rather than kept if it cannot land.
    Compared by identity: a filter recognises its own conjuncts."""

    __slots__ = ("expr", "crossed", "derived")

    def __init__(
        self, expr: Expression, crossed: bool = False, derived: bool = False
    ) -> None:
        self.expr = expr
        self.crossed = crossed
        self.derived = derived


class _Pushdown:
    """One run of the pass over one plan against one store."""

    def __init__(self, partitioned: PartitionedDatabase) -> None:
        self.partitioned = partitioned
        self._columns: dict[int, tuple[str, ...]] = {}

    def push(
        self, node: PlanNode, pending: tuple[_Conjunct, ...]
    ) -> tuple[PlanNode, tuple[_Conjunct, ...]]:
        """``(node', rejected)``: *node* with *pending* (conjuncts meant
        to filter its output) placed in or below it, except *rejected*,
        which the caller places above it."""
        if isinstance(node, Filter):
            return self._filter(node, pending)
        if isinstance(node, Join):
            return self._join(node, pending), ()
        if isinstance(node, (Aggregate, Project, OrderBy)):
            child = self.push(node.child, ())[0]
            if child is not node.child:
                node = replace(node, child=child)
        return self._land(node, pending)

    def _filter(
        self, node: Filter, pending: tuple[_Conjunct, ...]
    ) -> tuple[PlanNode, tuple[_Conjunct, ...]]:
        own = tuple(_Conjunct(expr) for expr in _conjuncts(node.condition))
        child, rejected = self.push(node.child, own + pending)
        mine = tuple(c for c in rejected if c in own)
        result = _place(child, mine)
        if _same_filter(result, node):
            result = node
        return result, tuple(c for c in rejected if c not in own)

    def _land(
        self, node: PlanNode, pending: tuple[_Conjunct, ...]
    ) -> tuple[PlanNode, tuple[_Conjunct, ...]]:
        """Place *pending* on a scan or a blocker in one filter if any of
        it crossed a join (and, on a scan, passes the guard); else hand
        it all back, less the pushed OR copies."""
        crossed = [c.expr for c in pending if c.crossed]
        if crossed and (
            not isinstance(node, Scan) or self._selective(node, crossed)
        ):
            return _place(node, pending), ()
        return node, tuple(c for c in pending if not c.derived)

    def _selective(self, scan: Scan, conjuncts: list[Expression]) -> bool:
        table = self.partitioned.table(scan.table)
        share = estimate_selectivity(table, scan.name, conjuncts)
        return share <= PUSHDOWN_SELECTIVITY

    def _join(self, node: Join, pending: tuple[_Conjunct, ...]) -> PlanNode:
        sides_open = ("left", "right") if node.kind in _RIGHT_OPEN else ("left",)
        routed: dict[str, list[_Conjunct]] = {"left": [], "right": []}
        origin: dict[_Conjunct, _Conjunct] = {}  # routed copy -> pending
        stay: list[_Conjunct] = []
        for conjunct in pending:
            sides = self._sides(node, conjunct.expr)
            if len(sides) == 1 and sides <= set(sides_open):
                copy = _Conjunct(conjunct.expr, True, conjunct.derived)
                routed[next(iter(sides))].append(copy)
                origin[copy] = conjunct
                continue
            stay.append(conjunct)
            if len(sides) == 2:
                for side in sides_open:
                    implied = self._implied(node, conjunct.expr, side)
                    if implied is not None:
                        routed[side].append(_Conjunct(implied, True, True))
        left, left_back = self.push(node.left, tuple(routed["left"]))
        right, right_back = self.push(node.right, tuple(routed["right"]))
        if left is not node.left or right is not node.right:
            node = replace(node, left=left, right=right)
        back = {origin[c] for c in left_back + right_back}
        return _place(node, [c for c in pending if c in back or c in stay])

    def _sides(self, node: Join, expr: Expression) -> set[str]:
        """Which inputs of *node* the columns of *expr* come from; empty
        when it reads no column or does not resolve (it then stays)."""
        names = expr.referenced_columns()
        if not names:
            return set()
        try:
            left = self.columns(node.left)
            right = () if node.kind in (JoinKind.SEMI, JoinKind.ANTI) else (
                self.columns(node.right)
            )
            positions = [resolve_column(n, left + right) for n in names]
        except (PlanningError, UnknownObjectError):
            return set()
        return {"left" if p < len(left) else "right" for p in positions}

    def _implied(self, node: Join, expr: Expression, side: str) -> Expression | None:
        """For an OR over both sides: the OR, over its disjuncts, of each
        disjunct's conjuncts that read *side* only — or None when some
        disjunct has none (nothing is implied for that side)."""
        if not (isinstance(expr, BooleanOp) and expr.op == "or"):
            return None
        disjuncts = []
        for disjunct in expr.operands:
            mine = [
                c for c in _conjuncts(disjunct) if self._sides(node, c) == {side}
            ]
            if not mine:
                return None
            disjuncts.append(and_(*mine))
        return or_(*disjuncts)

    def columns(self, node: PlanNode) -> tuple[str, ...]:
        """The output columns of a logical *node* (memoised per run)."""
        key = id(node)
        if key not in self._columns:
            self._columns[key] = self._output(node)
        return self._columns[key]

    def _output(self, node: PlanNode) -> tuple[str, ...]:
        if isinstance(node, Scan):
            schema = self.partitioned.table(node.table).schema
            return tuple(f"{node.name}.{c.name}" for c in schema.columns)
        if isinstance(node, (Filter, OrderBy)):
            return self.columns(node.child)
        if isinstance(node, Project):
            return tuple(name for name, _expr in node.outputs)
        if isinstance(node, Join):
            left = self.columns(node.left)
            if node.kind in (JoinKind.SEMI, JoinKind.ANTI):
                return left
            return left + self.columns(node.right)
        if isinstance(node, Aggregate):
            child = self.columns(node.child)
            groups = tuple(child[resolve_column(g, child)] for g in node.group_by)
            return groups + tuple(spec.name for spec in node.aggregates)
        raise PlanningError(f"cannot push filters through {node!r}")


def _conjuncts(expr: Expression) -> list[Expression]:
    """*expr* split on AND, nested ANDs flattened, in order."""
    if isinstance(expr, BooleanOp) and expr.op == "and":
        return [c for operand in expr.operands for c in _conjuncts(operand)]
    return [expr]


def _place(node: PlanNode, conjuncts: Sequence[_Conjunct]) -> PlanNode:
    """*node* under one filter of *conjuncts* (none: *node* itself)."""
    if not conjuncts:
        return node
    return Filter(node, and_(*(c.expr for c in conjuncts)))


def _same_filter(result: PlanNode, node: Filter) -> bool:
    """Is *result* the filter *node* again (same child, same conjuncts)?"""
    if not isinstance(result, Filter) or result.child is not node.child:
        return False
    new, old = _conjuncts(result.condition), _conjuncts(node.condition)
    return len(new) == len(old) and all(a is b for a, b in zip(new, old))

