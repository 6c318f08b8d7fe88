"""The independent reference: translate the case IR to SQL for sqlite3.

:class:`~repro.query.local_executor.LocalExecutor` is the fuzzer's
single-node answer, but it shares the engine's plan nodes and
expressions.  The stdlib ``sqlite3`` engine shares no code with either
and has had its NULL semantics battle-tested for decades, so the runner
checks every ``LocalExecutor`` answer against it — a misunderstanding of
three-valued logic common to the engine and ``LocalExecutor`` shows up
here.

Translation notes (where sqlite differs from naive Python evaluation):

* ``/`` is integer division in sqlite for two integers, so every IR
  division is emitted as ``CAST(l AS REAL) / r`` to match Python's
  ``truediv``; division by zero then yields NULL on both sides.
* Booleans are stored as 1/0; the differ compares ``True == 1``.
* Semi/anti joins become correlated ``EXISTS`` / ``NOT EXISTS``.
* Column names are globally unique per query (alias-qualified), so the
  generated SQL never needs range variables — every reference is a
  double-quoted name like ``"a0.fk_t1"``.
"""

from __future__ import annotations

import sqlite3

from repro.catalog.column import DataType
from repro.catalog.schema import DatabaseSchema
from repro.errors import UnknownObjectError
from repro.storage.table import Database

Row = tuple

_TYPE_AFFINITY = {
    DataType.INTEGER: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.VARCHAR: "TEXT",
    DataType.BOOLEAN: "INTEGER",
}

_AGG_SQL = {
    "sum": "SUM",
    "avg": "AVG",
    "min": "MIN",
    "max": "MAX",
}


class SqlTranslationError(Exception):
    """The query IR has no faithful SQL rendering."""


def run_sqlite(database: Database, query: dict) -> list[Row]:
    """Evaluate *query* over *database*'s current rows in in-memory sqlite.

    Returns the result rows (order unspecified).
    """
    sql = query_sql(query, database.schema)
    connection = sqlite3.connect(":memory:")
    try:
        for name, table in database.tables.items():
            columns = table.schema.columns
            decls = ", ".join(
                f"{_quote(column.name)} {_TYPE_AFFINITY[column.dtype]}"
                for column in columns
            )
            connection.execute(f"CREATE TABLE {_quote(name)} ({decls})")
            if table.rows:
                marks = ", ".join("?" * len(columns))
                connection.executemany(
                    f"INSERT INTO {_quote(name)} VALUES ({marks})", table.rows
                )
        return [tuple(row) for row in connection.execute(sql)]
    finally:
        connection.close()


# -- query translation -----------------------------------------------------


def query_sql(node: dict, schema: DatabaseSchema) -> str:
    """Render query IR *node* as a single sqlite SELECT statement."""
    op = node["op"]
    if op == "scan":
        alias = node.get("alias") or node["table"]
        try:
            columns = schema.table(node["table"]).column_names
        except UnknownObjectError:
            raise SqlTranslationError(
                f"unknown table {node['table']!r}"
            ) from None
        qualified = ", ".join(
            f"{_quote(col)} AS {_quote(f'{alias}.{col}')}" for col in columns
        )
        return f"SELECT {qualified} FROM {_quote(node['table'])}"
    if op == "filter":
        return (
            f"SELECT * FROM ({query_sql(node['input'], schema)}) "
            f"WHERE {_expr_sql(node['pred'])}"
        )
    if op == "project":
        distinct = "DISTINCT " if node.get("distinct") else ""
        outputs = ", ".join(
            f"{_expr_sql(expr)} AS {_quote(name)}"
            for name, expr in node["outputs"]
        )
        return (
            f"SELECT {distinct}{outputs} "
            f"FROM ({query_sql(node['input'], schema)})"
        )
    if op == "join":
        return _join_sql(node, schema)
    if op == "aggregate":
        return _aggregate_sql(node, schema)
    if op == "order_by":
        # No LIMIT is ever generated; ordering is invisible to the
        # multiset comparison, so the node is a pass-through.
        return f"SELECT * FROM ({query_sql(node['input'], schema)})"
    raise SqlTranslationError(f"unknown query IR op {op!r}")


def _join_sql(node: dict, schema: DatabaseSchema) -> str:
    left = query_sql(node["left"], schema)
    right = query_sql(node["right"], schema)
    conds = [
        f"{_quote(l)} = {_quote(r)}" for l, r in node.get("on", ())
    ]
    if node.get("residual") is not None:
        conds.append(_expr_sql(node["residual"]))
    cond = " AND ".join(conds) if conds else "1"
    kind = node["kind"]
    if kind in ("inner", "cross"):
        return f"SELECT * FROM ({left}) JOIN ({right}) ON {cond}"
    if kind == "left_outer":
        return f"SELECT * FROM ({left}) LEFT JOIN ({right}) ON {cond}"
    if kind in ("semi", "anti"):
        exists = "EXISTS" if kind == "semi" else "NOT EXISTS"
        return (
            f"SELECT * FROM ({left}) WHERE {exists} "
            f"(SELECT 1 FROM ({right}) WHERE {cond})"
        )
    raise SqlTranslationError(f"unknown join kind {kind!r}")


def _aggregate_sql(node: dict, schema: DatabaseSchema) -> str:
    group_by = list(node.get("group_by", ()))
    selects = [_quote(name) for name in group_by]
    for func, expr, name in node["aggs"]:
        if func == "count" and expr is None:
            selects.append(f"COUNT(*) AS {_quote(name)}")
        elif func == "count":
            selects.append(f"COUNT({_expr_sql(expr)}) AS {_quote(name)}")
        elif func == "count_distinct":
            selects.append(
                f"COUNT(DISTINCT {_expr_sql(expr)}) AS {_quote(name)}"
            )
        elif func in _AGG_SQL:
            selects.append(
                f"{_AGG_SQL[func]}({_expr_sql(expr)}) AS {_quote(name)}"
            )
        else:
            raise SqlTranslationError(f"unknown aggregate {func!r}")
    sql = (
        f"SELECT {', '.join(selects)} "
        f"FROM ({query_sql(node['input'], schema)})"
    )
    if group_by:
        sql += " GROUP BY " + ", ".join(_quote(name) for name in group_by)
    return sql


# -- expression translation ------------------------------------------------


def _expr_sql(node: dict) -> str:
    kind = node["t"]
    if kind == "col":
        return _quote(node["name"])
    if kind == "lit":
        return _literal_sql(node["v"])
    if kind == "cmp":
        return f"({_expr_sql(node['l'])} {node['op']} {_expr_sql(node['r'])})"
    if kind == "arith":
        lhs, rhs, op = _expr_sql(node["l"]), _expr_sql(node["r"]), node["op"]
        if op == "/":
            # Match Python truediv; sqlite divides integers integrally.
            return f"(CAST({lhs} AS REAL) / {rhs})"
        return f"({lhs} {op} {rhs})"
    if kind in ("and", "or"):
        joiner = f" {kind.upper()} "
        return "(" + joiner.join(_expr_sql(a) for a in node["args"]) + ")"
    if kind == "not":
        return f"(NOT {_expr_sql(node['arg'])})"
    if kind == "isnull":
        test = "IS NOT NULL" if node.get("neg") else "IS NULL"
        return f"({_expr_sql(node['arg'])} {test})"
    if kind == "inlist":
        vals = node["vals"]
        if not vals:
            return "(1)" if node.get("neg") else "(0)"
        rendered = ", ".join(_literal_sql(v) for v in vals)
        test = "NOT IN" if node.get("neg") else "IN"
        return f"({_expr_sql(node['arg'])} {test} ({rendered}))"
    raise SqlTranslationError(f"unknown expression IR node {kind!r}")


def _literal_sql(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise SqlTranslationError(f"untranslatable literal {value!r}")


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'
