"""The fuzzer's case IR: a JSON-serialisable description of one test case.

A *case* is a plain dict (so it can be written to disk as a replayable
repro and shrunk structurally) describing:

* ``tables`` — schemas plus base rows,
* ``config`` — one partitioning-scheme descriptor per table,
* ``queries`` — logical plans as nested ``{"op": ...}`` dicts,
* ``loads`` — optional incremental batches applied via the bulk loader,
* ``variant`` — fields of the :class:`~repro.query.options.ExecOptions`
  an extra comparison run executes under.

This module compiles the IR into the engine's native objects
(:class:`~repro.storage.table.Database`,
:class:`~repro.partitioning.config.PartitioningConfig`, plan nodes and
expressions).  The SQL translation (:mod:`repro.fuzz.sqlite_oracle`)
interprets the *same* IR independently of those objects, which is what
makes the comparison differential.

Expression IR nodes (``{"t": ...}``):

``col``(name) · ``lit``(v) · ``cmp``(op, l, r) · ``arith``(op, l, r) ·
``and``/``or``(args) · ``not``(arg) · ``isnull``(arg, neg) ·
``inlist``(arg, vals, neg)

Query IR nodes (``{"op": ...}``):

``scan``(table, alias) · ``filter``(input, pred) ·
``project``(input, outputs, distinct) · ``join``(left, right, kind, on,
residual) · ``aggregate``(input, group_by, aggs) · ``order_by``(input,
keys)
"""

from __future__ import annotations

import json

from repro.catalog.column import Column, DataType
from repro.catalog.schema import DatabaseSchema
from repro.partitioning.config import PartitioningConfig
from repro.partitioning.predicate import JoinPredicate
from repro.partitioning.scheme import (
    HashScheme,
    PrefScheme,
    RangeScheme,
    ReplicatedScheme,
    RoundRobinScheme,
)
from repro.query.expressions import (
    Arithmetic,
    BooleanOp,
    Comparison,
    Expression,
    InList,
    IsNull,
    Literal,
    Negation,
    col,
)
from repro.query.plan import (
    Aggregate,
    AggregateSpec,
    Filter,
    Join,
    JoinKind,
    OrderBy,
    PlanNode,
    Project,
    Scan,
)
from repro.storage.table import Database

_DTYPES = {
    "integer": DataType.INTEGER,
    "float": DataType.FLOAT,
    "varchar": DataType.VARCHAR,
    "boolean": DataType.BOOLEAN,
}


# -- schema / data / config ------------------------------------------------


def build_schema(case: dict) -> DatabaseSchema:
    """The catalog schema described by ``case["tables"]``."""
    schema = DatabaseSchema()
    for table in case["tables"]:
        columns = [
            Column(name, _DTYPES[dtype], nullable=bool(nullable))
            for name, dtype, nullable in table["columns"]
        ]
        schema.create_table(table["name"], columns, table.get("pk", ()))
    return schema


def build_database(case: dict) -> Database:
    """A fresh unpartitioned database holding the case's base rows."""
    database = Database(build_schema(case))
    for table in case["tables"]:
        database.load(table["name"], [tuple(row) for row in table["rows"]])
    return database


def build_config(case: dict) -> PartitioningConfig:
    """The partitioning configuration described by ``case["config"]``."""
    count = case["partitions"]
    config = PartitioningConfig(count)
    for table, desc in case["config"].items():
        kind = desc["kind"]
        if kind == "hash":
            scheme = HashScheme(tuple(desc["columns"]), count)
        elif kind == "range":
            scheme = RangeScheme(desc["column"], tuple(desc["boundaries"]))
        elif kind == "round_robin":
            scheme = RoundRobinScheme(count)
        elif kind == "replicated":
            scheme = ReplicatedScheme(count)
        elif kind == "pref":
            (ref_col, target_col), *rest = desc["on"]
            assert not rest, "composite PREF predicates not generated"
            scheme = PrefScheme(
                desc["referenced"],
                JoinPredicate.equi(
                    table, ref_col, desc["referenced"], target_col
                ),
            )
        else:  # pragma: no cover - generator never emits other kinds
            raise ValueError(f"unknown scheme kind {kind!r}")
        config.add(table, scheme)
    return config


# -- expressions -----------------------------------------------------------


def expr_from_ir(node: dict) -> Expression:
    """Compile an expression IR node into the engine expression tree."""
    kind = node["t"]
    if kind == "col":
        return col(node["name"])
    if kind == "lit":
        return Literal(node["v"])
    if kind == "cmp":
        return Comparison(
            node["op"], expr_from_ir(node["l"]), expr_from_ir(node["r"])
        )
    if kind == "arith":
        return Arithmetic(
            node["op"], expr_from_ir(node["l"]), expr_from_ir(node["r"])
        )
    if kind in ("and", "or"):
        return BooleanOp(
            kind, tuple(expr_from_ir(arg) for arg in node["args"])
        )
    if kind == "not":
        return Negation(expr_from_ir(node["arg"]))
    if kind == "isnull":
        return IsNull(expr_from_ir(node["arg"]), negated=node.get("neg", False))
    if kind == "inlist":
        return InList(
            expr_from_ir(node["arg"]),
            tuple(node["vals"]),
            negated=node.get("neg", False),
        )
    raise ValueError(f"unknown expression IR node {kind!r}")


# -- plans -----------------------------------------------------------------

_JOIN_KINDS = {
    "inner": JoinKind.INNER,
    "left_outer": JoinKind.LEFT_OUTER,
    "semi": JoinKind.SEMI,
    "anti": JoinKind.ANTI,
    "cross": JoinKind.CROSS,
}


def build_plan(node: dict) -> PlanNode:
    """Compile a query IR node into the engine's logical plan."""
    op = node["op"]
    if op == "scan":
        return Scan(node["table"], alias=node.get("alias"))
    if op == "filter":
        return Filter(build_plan(node["input"]), expr_from_ir(node["pred"]))
    if op == "project":
        return Project(
            build_plan(node["input"]),
            tuple(
                (name, expr_from_ir(expr)) for name, expr in node["outputs"]
            ),
            distinct=node.get("distinct", False),
        )
    if op == "join":
        residual = node.get("residual")
        return Join(
            build_plan(node["left"]),
            build_plan(node["right"]),
            on=tuple((l, r) for l, r in node.get("on", ())),
            kind=_JOIN_KINDS[node["kind"]],
            residual=expr_from_ir(residual) if residual is not None else None,
        )
    if op == "aggregate":
        return Aggregate(
            build_plan(node["input"]),
            group_by=tuple(node.get("group_by", ())),
            aggregates=tuple(
                AggregateSpec(
                    func, expr_from_ir(expr) if expr is not None else None, name
                )
                for func, expr, name in node["aggs"]
            ),
        )
    if op == "order_by":
        return OrderBy(
            build_plan(node["input"]),
            keys=tuple((column, bool(asc)) for column, asc in node["keys"]),
        )
    raise ValueError(f"unknown query IR node {op!r}")


# -- persistence -----------------------------------------------------------


def save_case(case: dict, path: str) -> None:
    """Write *case* as a replayable JSON repro file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(case, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_case(path: str) -> dict:
    """Read a repro file written by :func:`save_case`."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
