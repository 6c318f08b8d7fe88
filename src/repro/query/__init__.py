"""Query processing: plans, rewrite rules, distributed + local executors."""

from repro.engine import (
    OperatorStats,
    SerialBackend,
    ThreadPoolBackend,
)
from repro.query.builder import Query
from repro.query.certify import (
    Certificate,
    CertifyResult,
    Refutation,
    certify,
)
from repro.query.cost import CostParameters, ExecutionStats
from repro.query.executor import Executor, QueryResult
from repro.query.expressions import and_, col, lit, not_, or_
from repro.query.local_executor import LocalExecutor
from repro.query.options import ExecOptions
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
from repro.query.rewrite import Annotated, Rewriter

__all__ = [
    "Aggregate",
    "AggregateSpec",
    "Annotated",
    "Certificate",
    "CertifyResult",
    "CostParameters",
    "ExecOptions",
    "ExecutionStats",
    "Executor",
    "Filter",
    "Join",
    "JoinKind",
    "LocalExecutor",
    "OperatorStats",
    "OrderBy",
    "PlanNode",
    "Project",
    "Query",
    "QueryResult",
    "Refutation",
    "Rewriter",
    "Scan",
    "SerialBackend",
    "ThreadPoolBackend",
    "and_",
    "certify",
    "col",
    "lit",
    "not_",
    "or_",
]
