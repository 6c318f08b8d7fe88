"""Logical SPJA plan nodes (Selection, Projection, Join, Aggregation).

Plans are trees of immutable nodes.  The rewrite engine
(:mod:`repro.query.rewrite`) turns a logical plan into a physical plan by
inserting re-partitioning and PREF-duplicate-elimination operators per
paper Section 2.2; those physical operators live here too so both plan
flavours share one representation.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator

from repro.errors import PlanningError
from repro.query.expressions import Expression


class JoinKind(enum.Enum):
    """Join flavours supported by the engine."""

    INNER = "inner"
    LEFT_OUTER = "left_outer"
    SEMI = "semi"
    ANTI = "anti"
    CROSS = "cross"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate function application.

    Attributes:
        func: One of ``sum``, ``count``, ``avg``, ``min``, ``max``,
            ``count_distinct``.  ``count`` with ``expr=None`` is COUNT(*).
        expr: Input expression (None only for COUNT(*)).
        name: Output column name.
    """

    func: str
    expr: Expression | None
    name: str

    _FUNCS = frozenset({"sum", "count", "avg", "min", "max", "count_distinct"})

    def __post_init__(self) -> None:
        if self.func not in self._FUNCS:
            raise PlanningError(f"unknown aggregate function {self.func!r}")
        if self.expr is None and self.func != "count":
            raise PlanningError(f"{self.func} requires an input expression")


class PlanNode:
    """Base class for plan nodes."""

    def children(self) -> tuple["PlanNode", ...]:
        """Child nodes, left to right."""
        return ()

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the plan tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def explain(self, indent: int = 0) -> str:
        """A readable multi-line rendering of the plan tree."""
        line = "  " * indent + self._label()
        lines = [line]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Scan(PlanNode):
    """Read a base table, optionally under an alias.

    Columns are exposed qualified as ``<alias>.<column>`` (alias defaults to
    the table name).
    """

    table: str
    alias: str | None = None

    @property
    def name(self) -> str:
        """The alias under which columns are qualified."""
        return self.alias or self.table

    def _label(self) -> str:
        alias = f" AS {self.alias}" if self.alias else ""
        return f"Scan({self.table}{alias})"


@dataclass(frozen=True)
class Filter(PlanNode):
    """Select rows satisfying a boolean expression."""

    child: PlanNode
    condition: Expression

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"Filter({self.condition!r})"


@dataclass(frozen=True)
class Project(PlanNode):
    """Compute output columns; optionally SQL-DISTINCT over them.

    Attributes:
        outputs: ``(name, expression)`` pairs defining the output columns.
        distinct: If True, applies SQL DISTINCT over the output values
            (value-based, distinct from PREF duplicate elimination).
    """

    child: PlanNode
    outputs: tuple[tuple[str, Expression], ...]
    distinct: bool = False

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _label(self) -> str:
        names = ", ".join(name for name, _expr in self.outputs)
        prefix = "ProjectDistinct" if self.distinct else "Project"
        return f"{prefix}({names})"


@dataclass(frozen=True)
class Join(PlanNode):
    """Join two inputs.

    Equi-joins list aligned key column pairs in ``on``; a cross join has an
    empty ``on``.  ``residual`` is an extra non-equi condition applied to
    matched pairs (making the join a theta join when ``on`` is empty).
    """

    left: PlanNode
    right: PlanNode
    on: tuple[tuple[str, str], ...] = ()
    kind: JoinKind = JoinKind.INNER
    residual: Expression | None = None

    def __post_init__(self) -> None:
        if self.kind is JoinKind.CROSS and self.on:
            raise PlanningError("cross join must not have equi-join keys")
        if self.kind is not JoinKind.CROSS and not self.on and self.residual is None:
            raise PlanningError(
                "non-cross join needs equi-join keys or a residual condition"
            )

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    @property
    def left_keys(self) -> tuple[str, ...]:
        """Join key columns on the left input."""
        return tuple(left for left, _right in self.on)

    @property
    def right_keys(self) -> tuple[str, ...]:
        """Join key columns on the right input."""
        return tuple(right for _left, right in self.on)

    def _label(self) -> str:
        keys = ", ".join(f"{l}={r}" for l, r in self.on)
        return f"Join[{self.kind.value}]({keys})"


@dataclass(frozen=True)
class Aggregate(PlanNode):
    """Group-by aggregation (scalar aggregation when ``group_by`` is empty)."""

    child: PlanNode
    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]

    def __post_init__(self) -> None:
        if not self.aggregates and not self.group_by:
            raise PlanningError("aggregate needs group keys or functions")
        names = [spec.name for spec in self.aggregates] + list(self.group_by)
        if len(names) != len(set(names)):
            raise PlanningError("duplicate output names in aggregate")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _label(self) -> str:
        aggs = ", ".join(f"{s.func}->{s.name}" for s in self.aggregates)
        return f"Aggregate(by=[{', '.join(self.group_by)}]; {aggs})"


@dataclass(frozen=True)
class OrderBy(PlanNode):
    """Order (and optionally limit) the final result on the coordinator."""

    child: PlanNode
    keys: tuple[tuple[str, bool], ...]  # (column, ascending)
    limit: int | None = None

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _label(self) -> str:
        keys = ", ".join(f"{c} {'ASC' if a else 'DESC'}" for c, a in self.keys)
        limit = f" LIMIT {self.limit}" if self.limit is not None else ""
        return f"OrderBy({keys}){limit}"


# --- physical-only operators (inserted by the rewriter) -----------------------


@dataclass(frozen=True)
class Repartition(PlanNode):
    """Shuffle rows by hash of *keys* into *count* partitions.

    Eliminates PREF duplicates before shipping when ``dedup`` is set
    (paper: "the re-partitioning operator also eliminates duplicates").
    """

    child: PlanNode
    keys: tuple[str, ...]
    count: int
    dedup: bool

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _label(self) -> str:
        dedup = ", dedup" if self.dedup else ""
        return f"Repartition(by=[{', '.join(self.keys)}], n={self.count}{dedup})"


@dataclass(frozen=True)
class Broadcast(PlanNode):
    """Replicate the child's full (deduplicated) output to every node."""

    child: PlanNode
    count: int

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"Broadcast(n={self.count})"


@dataclass(frozen=True)
class DedupFilter(PlanNode):
    """Locally drop PREF duplicates (rows whose governing dup bits != 0)."""

    child: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass(frozen=True)
class PartnerFilter(PlanNode):
    """Filter a PREF scan by its ``hasS`` bitmap (semi-/anti-join rewrite).

    ``expect=True`` keeps partnered tuples (semi join), ``expect=False``
    keeps partner-less tuples (anti join).
    """

    child: PlanNode
    table: str
    expect: bool

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"PartnerFilter({self.table}, hasS={int(self.expect)})"


@dataclass(frozen=True)
class BloomProbe(PlanNode):
    """Prune rows whose join keys cannot find a partner (predicate transfer).

    Inserted over a scan (or its adjacent filters) by the predicate-transfer
    scheduler; the candidate transfer edges travel in the annotation's
    ``extra["bloom"]`` as data-free descriptors, keeping the plan node
    itself immutable and hashable — the filters are built at run time.
    ``columns`` names the probed key columns and ``sources`` the scan
    aliases whose keys may build a filter (for EXPLAIN output); both are
    empty over a scan that only builds filters for others.
    """

    child: PlanNode
    columns: tuple[str, ...]
    sources: tuple[str, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _label(self) -> str:
        if not self.sources:
            return "BloomProbe(build only)"
        return (
            f"BloomProbe([{', '.join(self.columns)}] "
            f"<- {', '.join(self.sources)})"
        )


_COUNTER = itertools.count()


def fresh_name(prefix: str) -> str:
    """Generate a unique column/operator name (for rewriter internals)."""
    return f"{prefix}#{next(_COUNTER)}"


def referenced_tables(plan: PlanNode) -> frozenset[str]:
    """Base-table names a plan reads, from its :class:`Scan` leaves.

    The serving layer keys cache-invalidation dependencies on this set:
    a cached plan or result is stale once any of these tables' epochs
    move.  :class:`BloomProbe` sources are already covered — a probe's
    filter is built from tables that appear as scans elsewhere in the
    same plan."""
    return frozenset(
        node.table for node in plan.walk() if isinstance(node, Scan)
    )
