"""Partition pruning (the paper's "future work" extension).

A filter with equality predicates directly over a base-table scan can skip
partitions that provably contain no matching rows:

* **hash-partitioned tables** — equality on all hash columns pins the single
  partition ``hash(key) % n``;
* **PREF tables with verified effective-hash placement** — same, through the
  derived chain columns;
* **PREF tables filtered on their partitioning-predicate columns** — the
  partition-index lookup bulk loading uses (paper Section 2.3) maps the
  key to exactly the partitions holding copies, including round-robin
  orphans (it reads the table's own stored key columns).

The rewriter attaches a :class:`PruneInfo` to the scan; the executor skips
the excluded partitions entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import PlanningError
from repro.partitioning.scheme import (
    HashScheme,
    PrefScheme,
    SchemeKind,
    stable_hash,
)
from repro.query.expressions import (
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
)
from repro.storage.partitioned import PartitionedTable


@dataclass(frozen=True)
class PruneInfo:
    """How the executor restricts a scan to a subset of partitions.

    Attributes:
        kind: ``hash`` (compute the partition from the key),
            ``effective_hash`` (same, via derived chain columns), or
            ``partition_index`` (the partitions storing the key, read
            from the stored key columns).
        columns: Unqualified column names forming the pruning key, in the
            order the partitioning scheme expects.
        values: The literal key values, aligned with ``columns``.
    """

    kind: str
    columns: tuple[str, ...]
    values: tuple

    def partitions(self, table: PartitionedTable) -> frozenset[int]:
        """Partitions that may contain matching rows."""
        key = self.values[0] if len(self.values) == 1 else self.values
        if self.kind == "hash":
            scheme = table.scheme
            assert isinstance(scheme, HashScheme)
            return frozenset((scheme.partition_of(key),))
        if self.kind == "effective_hash":
            return frozenset(
                (stable_hash(key) % table.partition_count,)
            )
        if self.kind == "partition_index":
            holding = table.partitions_holding(self.columns, {key})
            return frozenset(holding.get(key, ()))
        raise PlanningError(f"unknown prune kind {self.kind!r}")


def equality_bindings(condition: Expression) -> dict[str, object]:
    """Extract ``column == literal`` conjuncts from a filter condition."""
    bindings: dict[str, object] = {}

    def walk(expression: Expression) -> None:
        if isinstance(expression, BooleanOp) and expression.op == "and":
            for operand in expression.operands:
                walk(operand)
            return
        if isinstance(expression, Comparison) and expression.op == "=":
            left, right = expression.left, expression.right
            # ``col = NULL`` is never true under three-valued logic, so a
            # NULL literal pins nothing (and must not shadow a real
            # binding on the same column).
            if (
                isinstance(left, ColumnRef)
                and isinstance(right, Literal)
                and right.value is not None
            ):
                bindings[left.name] = right.value
            elif (
                isinstance(right, ColumnRef)
                and isinstance(left, Literal)
                and left.value is not None
            ):
                bindings[right.name] = left.value

    walk(condition)
    return bindings


def derive_prune_info(
    table: PartitionedTable,
    alias: str,
    condition: Expression,
) -> PruneInfo | None:
    """Pruning opportunity for *condition* applied directly to a scan.

    Returns None when the condition does not pin all columns of any usable
    placement key.
    """
    bindings = equality_bindings(condition)
    if not bindings:
        return None

    def lookup(column: str) -> object | None:
        for qualifier in (f"{alias}.{column}", column):
            if qualifier in bindings:
                return bindings[qualifier]
        return None

    def bound(columns: Sequence[str]) -> tuple | None:
        values = tuple(lookup(column) for column in columns)
        if any(value is None for value in values):
            return None
        return values

    scheme = table.scheme
    if isinstance(scheme, HashScheme):
        values = bound(scheme.columns)
        if values is not None:
            return PruneInfo("hash", tuple(scheme.columns), values)
        return None
    if scheme.kind is SchemeKind.PREF:
        assert isinstance(scheme, PrefScheme)
        if table.patch_count:
            # Patched tables need every partition's residual deliveries to
            # happen; pruning to the stored-copy partitions would skip the
            # patch-list copies joins in overflow partitions rely on.
            return None
        if table.effective_hash is not None:
            values = bound(table.effective_hash)
            if values is not None:
                return PruneInfo(
                    "effective_hash", tuple(table.effective_hash), values
                )
        referencing = scheme.referencing_columns(table.name)
        values = bound(referencing)
        if values is not None:
            return PruneInfo("partition_index", tuple(referencing), values)
    return None
