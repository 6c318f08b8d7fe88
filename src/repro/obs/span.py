"""Span-based query traces: the data model behind ``EXPLAIN ANALYZE``.

A completed query run yields one :class:`QueryTrace` — a tree of
:class:`OperatorSpan` objects mirroring the physical operator tree.  A
span *is* the operator's :class:`~repro.engine.context.OperatorStats`
record (every declared counter, per-node work, per-partition output) plus
the per-partition :class:`TaskSpan` list of the engine tasks that ran for
it and the rewriter's static ``Part``/``Dup`` annotations for side-by-side
display.

Traces are plain data (no references into the engine) and
JSON-exportable (:func:`repro.obs.explain.trace_to_json`).

Canonicalisation
----------------

:meth:`QueryTrace.canonical` is the cross-backend comparison form:
``(name, value)`` pairs in one fixed shape — the static fields, every
declared counter, then the structured measurements — with wall times,
worker identities and ``time.*`` metrics excluded, task lists sorted by
(phase, partition) and per-partition row maps by partition index.  Two
backends executing the same compiled plan must produce equal canonical
traces — the backend-equivalence tests and the fuzz differ rely on this.

Measured locality
-----------------

For a join span the *moved* rows are the rows its inputs had to ship to
meet the join's placement requirement: the rows shipped by immediate
repartition children plus the rows the join itself broadcast.  The
locality ratio ``(rows_in - moved) / rows_in`` is the measured
counterpart of :func:`repro.design.locality.config_data_locality` — a
fully co-partitioned join (paper Section 2.2, cases 1-3) moves nothing
and reports locality 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.engine.context import COUNTERS, OperatorStats
from repro.obs.metrics import ACCESS_PREFIX, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.context import TraceEvent

#: Engine task phases in execution order within one operator.
PHASE_ORDER = {"prepare": 0, "exchange": 1, "partition": 2}


@dataclass(frozen=True)
class TaskSpan:
    """One engine task (operator × phase × partition) that ran."""

    phase: str  #: "prepare" | "exchange" | "partition"
    node_id: int | None  #: Partition index; None for exchange barriers.
    seconds: float  #: Wall time (excluded from canonical comparisons).
    worker: str | None = None  #: Thread name (excluded too).

    def canonical(self) -> tuple:
        """Comparable form: where it ran logically, not physically."""
        return (PHASE_ORDER.get(self.phase, 9), self.phase, self.node_id)


@dataclass(kw_only=True)
class OperatorSpan(OperatorStats):
    """One physical operator instance: annotations plus its measurements.

    The measured fields are inherited — a span is the operator's
    :class:`~repro.engine.context.OperatorStats` record — and the fields
    declared here are static: ``name`` … ``case`` come from the
    rewriter's :class:`~repro.query.rewrite.Annotated` plan,
    ``bloom_filters``, ``examined_on`` and the live-column pair from the
    compiled operator.  ``rows_in``
    is derived — the sum of the children's ``rows_out`` (None for leaves).
    """

    name: str  #: Undecorated operator kind ("scan", "join", ...).
    method: str  #: Part(o) method value ("seed", "hashed", "pref", ...).
    hash_columns: tuple[str, ...] = ()
    dup: bool = False  #: The paper's Dup(o) flag.
    governing: tuple[str, ...] = ()
    strategy: str | None = None  #: Join/aggregate strategy hint.
    case: str | None = None  #: Locality case ("case1" | "case2" | "case3").
    bloom_filters: int = 0  #: Bloom filters this probe kept and applied.
    #: The columns whose sorted entries this filter read its candidates
    #: from (see the ``examined`` counter).
    examined_on: tuple[str, ...] = ()
    #: The output columns the compiled operator materialises (some
    #: ancestor reads them), of ``total_columns`` in the logical relation.
    live_columns: tuple[str, ...] = ()
    total_columns: int = 0
    tasks: tuple[TaskSpan, ...] = ()
    children: tuple["OperatorSpan", ...] = ()

    # -- derived -----------------------------------------------------------

    @property
    def rows_in(self) -> int | None:
        """Input rows: sum of the children's outputs (None for leaves)."""
        if not self.children:
            return None
        return sum(child.rows_out for child in self.children)

    @property
    def seconds(self) -> float:
        """Wall time summed over this operator's tasks."""
        return sum(task.seconds for task in self.tasks)

    @property
    def moved_rows(self) -> int:
        """Rows that crossed node boundaries to feed this operator.

        Own shipped rows (broadcast joins, gathers) plus the rows shipped
        by immediate repartition children inserted to meet this
        operator's placement requirement.
        """
        moved = self.rows_shipped
        for child in self.children:
            if child.name == "repartition":
                moved += child.rows_shipped
        return moved

    @property
    def locality(self) -> float | None:
        """Measured locality ratio for join spans, else None.

        ``(rows_in - moved_rows) / rows_in`` clamped to [0, 1]; 1.0 when
        the join consumed no rows at all (nothing had to move).
        """
        if self.name != "join":
            return None
        rows_in = self.rows_in
        if not rows_in:
            return 1.0
        local = rows_in - self.moved_rows
        return max(0.0, min(1.0, local / rows_in))

    @property
    def skew(self) -> float | None:
        """Max/mean output partition size (1.0 = perfectly balanced)."""
        sizes = [n for n in self.rows_out_by_partition.values()]
        if len(sizes) < 2:
            return None
        mean = sum(sizes) / len(sizes)
        if mean == 0:
            return None
        return max(sizes) / mean

    # -- traversal / comparison --------------------------------------------

    def walk(self) -> Iterator["OperatorSpan"]:
        """Yield the span subtree in post-order (children first)."""
        for child in self.children:
            yield from child.walk()
        yield self

    def own_canonical(self) -> tuple:
        """Comparable form of this span alone, as ``(name, value)`` pairs:
        annotations and counts, no timings, no children.

        Left out: ``governing``, which restates ``dup`` column by column
        and has never been part of the comparison, and the live-column
        fields and the access path (``examined_on`` and the
        ``engine.access.*`` counters), which say how the engine executed
        the plan, not what it computed.
        """
        left_out = ("governing", "live_columns", "total_columns", "examined_on")
        names = [name for name in STATIC if name not in left_out]
        names += [
            counter.name
            for counter in COUNTERS
            if not counter.metadata["metric"].startswith(ACCESS_PREFIX)
        ]
        by_partition = tuple(sorted(self.rows_out_by_partition.items()))
        return (
            *((name, getattr(self, name)) for name in names),
            ("rows_out_by_partition", by_partition),
            ("node_work", tuple(self.node_work)),
            ("tasks", tuple(sorted(task.canonical() for task in self.tasks))),
        )

    def canonical(self) -> tuple:
        """Comparable form of the subtree: own pairs, then the children."""
        return (
            *self.own_canonical(),
            ("children", tuple(child.canonical() for child in self.children)),
        )


#: Identity and static annotations: the span fields that are neither
#: inherited measurements nor tree structure.
STATIC = ("op_id", "label") + tuple(
    f.name
    for f in fields(OperatorSpan)
    if f.name not in OperatorStats.__dataclass_fields__
    and f.name not in ("tasks", "children")
)


@dataclass
class QueryTrace:
    """A completed query's span tree plus its merged metrics registry."""

    root: OperatorSpan
    metrics: MetricsRegistry
    node_count: int
    backend: str | None = None
    query: str | None = None

    def spans(self) -> list[OperatorSpan]:
        """All operator spans in plan post-order."""
        return list(self.root.walk())

    def span(self, op_id: int) -> OperatorSpan:
        """The span of operator *op_id*."""
        for candidate in self.root.walk():
            if candidate.op_id == op_id:
                return candidate
        raise KeyError(f"no span with op_id {op_id}")

    def joins(self) -> list[OperatorSpan]:
        """The join spans, in plan post-order."""
        return [s for s in self.root.walk() if s.name == "join"]

    def canonical(self) -> tuple:
        """Backend-independent comparison form (no timings/workers)."""
        return (
            ("node_count", self.node_count),
            ("root", self.root.canonical()),
            ("metrics", self.metrics.canonical()),
        )


def build_trace(
    root,
    operators: Sequence["OperatorStats"],
    events: Iterable["TraceEvent"],
    metrics: MetricsRegistry,
    node_count: int,
    backend: str | None = None,
    query: str | None = None,
) -> QueryTrace:
    """Assemble a :class:`QueryTrace` from one finished execution.

    Args:
        root: The executed physical operator tree
            (:class:`~repro.engine.operators.PhysicalOperator`).
        operators: Per-operator accounting in plan post-order
            (``ExecutionContext.operator_stats()``).
        events: The :class:`~repro.engine.context.TraceEvent` stream the
            run emitted, in any order — task spans are sorted by
            (phase, partition), which makes the result independent of
            task-completion order.
        metrics: The run's merged metrics registry.
        node_count: Cluster size the query ran at.
    """
    stats_by_id = {stats.op_id: stats for stats in operators}
    tasks_by_id: dict[int, list[TaskSpan]] = {}
    for event in events:
        tasks_by_id.setdefault(event.op_id, []).append(
            TaskSpan(event.phase, event.node_id, event.seconds, event.worker)
        )

    def build(op) -> OperatorSpan:
        props = op.props
        part = props.part
        extra = op.annotated.extra
        span = OperatorSpan(
            op.op_id,
            op.label,
            [0.0] * node_count,
            name=op.name,
            method=part.method.value,
            hash_columns=tuple(part.hash_columns),
            dup=props.dup,
            governing=tuple(props.governing),
            strategy=extra.get("strategy"),
            case=extra.get("case"),
            bloom_filters=op.exchanged.filters if op.name == "bloom_probe" else 0,
            examined_on=(
                tuple(sorted(op.examined_on)) if op.name == "filter" else ()
            ),
            live_columns=tuple(
                props.columns[index] for index in sorted(op.live)
            ),
            total_columns=op.width,
            tasks=tuple(
                sorted(
                    tasks_by_id.get(op.op_id, ()),
                    key=lambda task: task.canonical(),
                )
            ),
            children=tuple(build(child) for child in op.inputs),
        )
        span.merge(stats_by_id[op.op_id])
        return span

    return QueryTrace(build(root), metrics, node_count, backend, query)
