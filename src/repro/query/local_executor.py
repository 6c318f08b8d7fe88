"""Reference single-node executor over the unpartitioned database.

Runs the *logical* plan directly — no partitioning, no rewrites — and is
used by the test suite to cross-check every distributed result.  Any
disagreement between this executor and :class:`repro.query.executor.Executor`
is a correctness bug in partitioning or the rewrite rules.
"""

from __future__ import annotations

from repro.engine.rows import _sort_key
from repro.errors import ExecutionError
from repro.query.aggregates import make_accumulator
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
from repro.storage.table import Database

Row = tuple


class LocalResult:
    """Rows plus column names from the reference executor."""

    def __init__(self, columns: tuple[str, ...], rows: list[Row]) -> None:
        self.columns = columns
        self.rows = rows


class LocalExecutor:
    """Evaluates logical plans against an unpartitioned database."""

    def __init__(self, database: Database) -> None:
        self.database = database

    def execute(self, plan: PlanNode) -> LocalResult:
        """Run *plan* and return its rows."""
        columns, rows = self._exec(plan)
        return LocalResult(columns, rows)

    def _exec(self, node: PlanNode) -> tuple[tuple[str, ...], list[Row]]:
        if isinstance(node, Scan):
            table = self.database.table(node.table)
            columns = tuple(
                f"{node.name}.{c.name}" for c in table.schema.columns
            )
            return columns, list(table.rows)
        if isinstance(node, Filter):
            columns, rows = self._exec(node.child)
            predicate = node.condition.bind(columns)
            return columns, [row for row in rows if predicate(row)]
        if isinstance(node, Project):
            columns, rows = self._exec(node.child)
            fns = [expr.bind(columns) for _name, expr in node.outputs]
            projected = [tuple(fn(row) for fn in fns) for row in rows]
            if node.distinct:
                projected = list(dict.fromkeys(projected))
            return tuple(name for name, _ in node.outputs), projected
        if isinstance(node, Join):
            return self._join(node)
        if isinstance(node, Aggregate):
            return self._aggregate(node)
        if isinstance(node, OrderBy):
            columns, rows = self._exec(node.child)
            for column, ascending in reversed(node.keys):
                position = _position(columns, column)
                rows.sort(
                    key=lambda row: _sort_key(row[position]),
                    reverse=not ascending,
                )
            if node.limit is not None:
                rows = rows[: node.limit]
            return columns, rows
        raise ExecutionError(f"cannot execute node {node!r}")

    def _join(self, node: Join) -> tuple[tuple[str, ...], list[Row]]:
        left_columns, left_rows = self._exec(node.left)
        right_columns, right_rows = self._exec(node.right)
        combined_columns = left_columns + right_columns
        residual = (
            node.residual.bind(combined_columns)
            if node.residual is not None
            else None
        )
        if not node.on:
            out = []
            if node.kind in (JoinKind.SEMI, JoinKind.ANTI):
                expect = node.kind is JoinKind.SEMI
                return left_columns, [
                    row
                    for row in left_rows
                    if any(
                        residual is None or residual(row + other)
                        for other in right_rows
                    )
                    == expect
                ]
            for row in left_rows:
                emitted = False
                for other in right_rows:
                    pair = row + other
                    if residual is None or residual(pair):
                        out.append(pair)
                        emitted = True
                if node.kind is JoinKind.LEFT_OUTER and not emitted:
                    out.append(row + (None,) * len(right_columns))
            return combined_columns, out
        left_positions = [_position(left_columns, l) for l, _ in node.on]
        right_positions = [_position(right_columns, r) for _, r in node.on]

        def lkey(row: Row) -> tuple:
            return tuple(row[p] for p in left_positions)

        def rkey(row: Row) -> tuple:
            return tuple(row[p] for p in right_positions)

        if node.kind in (JoinKind.SEMI, JoinKind.ANTI):
            expect = node.kind is JoinKind.SEMI
            if residual is None:
                keys = {
                    key for row in right_rows if _null_free(key := rkey(row))
                }
                return left_columns, [
                    row
                    for row in left_rows
                    if (_null_free(key := lkey(row)) and key in keys) == expect
                ]
            # Key-equal right rows only count as partners if the residual
            # also holds on the combined row.
            partners: dict[tuple, list[Row]] = {}
            for row in right_rows:
                if _null_free(key := rkey(row)):
                    partners.setdefault(key, []).append(row)
            return left_columns, [
                row
                for row in left_rows
                if any(
                    residual(row + other)
                    for other in partners.get(lkey(row), ())
                )
                == expect
            ]
        table: dict[tuple, list[Row]] = {}
        for row in right_rows:
            if _null_free(key := rkey(row)):
                table.setdefault(key, []).append(row)
        out = []
        for row in left_rows:
            emitted = False
            for match in table.get(lkey(row), ()):
                pair = row + match
                if residual is None or residual(pair):
                    out.append(pair)
                    emitted = True
            if node.kind is JoinKind.LEFT_OUTER and not emitted:
                out.append(row + (None,) * len(right_columns))
        return combined_columns, out

    def _aggregate(self, node: Aggregate) -> tuple[tuple[str, ...], list[Row]]:
        columns, rows = self._exec(node.child)
        group_positions = [_position(columns, g) for g in node.group_by]
        agg_fns = [
            (spec, spec.expr.bind(columns) if spec.expr else None)
            for spec in node.aggregates
        ]
        groups: dict[tuple, list] = {}
        for row in rows:
            key = tuple(row[p] for p in group_positions)
            accs = groups.get(key)
            if accs is None:
                accs = [make_accumulator(spec.func) for spec, _ in agg_fns]
                groups[key] = accs
            for acc, (spec, fn) in zip(accs, agg_fns):
                acc.add(fn(row) if fn is not None else 1)
        if not groups and not node.group_by:
            groups[()] = [make_accumulator(spec.func) for spec, _ in agg_fns]
        out_columns = tuple(
            columns[p] for p in group_positions
        ) + tuple(spec.name for spec in node.aggregates)
        out_rows = [
            key + tuple(acc.result() for acc in accs)
            for key, accs in groups.items()
        ]
        return out_columns, out_rows


def _null_free(key: tuple) -> bool:
    """SQL equality: a join key containing NULL never matches anything."""
    return all(value is not None for value in key)


def _position(columns: tuple[str, ...], name: str) -> int:
    from repro.query.expressions import resolve_column

    return resolve_column(name, columns)
