"""The distributed executor: a thin facade over the execution engine.

``Executor`` keeps the API the rest of the library (clusters, benchmark
harness, tests) has always used, but execution itself now flows through a
four-stage pipeline:

1. filter pushdown (:mod:`repro.query.pushdown`) moves filter conjuncts
   below joins — into either side of an INNER or CROSS join, into only
   the left side of a LEFT OUTER, SEMI or ANTI join — where a stride
   sample of the scan they land on says they keep at most
   ``PUSHDOWN_SELECTIVITY`` of its rows;
2. the :class:`~repro.query.rewrite.Rewriter` produces the annotated
   logical plan (Part/Dup properties, inserted exchanges);
3. the physical compiler (:mod:`repro.engine.compile`) lowers it into a
   tree of self-contained physical operators;
4. a pluggable backend (:mod:`repro.engine.backends`) schedules the
   per-(operator, partition) tasks — serially, or concurrently between
   exchange barriers.

:class:`~repro.query.local_executor.LocalExecutor`, the reference, runs
the logical plan as written, without pushdown.

``Executor.execute`` runs stages 1 and 2 (and predicate transfer) once
per plan and store state: it keeps each plan's annotation until a table
the plan reads is written.

Rows physically move between per-node partition stores; every movement is
metered per operator × node through the engine's
:class:`~repro.engine.context.ExecutionContext` (exposed as
``QueryResult.operators``), from which the query's
:class:`~repro.query.cost.ExecutionStats` totals (network bytes, rows
shipped, shuffle round-trips) are summed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable
from weakref import WeakKeyDictionary

from repro.engine.backends import Backend, SerialBackend
from repro.engine.context import (
    ExecutionContext,
    OperatorStats,
    format_operator_stats,
)
from repro.query.cost import CostParameters, ExecutionStats
from repro.query.options import ExecOptions
from repro.query.plan import PlanNode, referenced_tables
from repro.query.pushdown import push_filters
from repro.query.relation import is_hidden
from repro.query.rewrite import Annotated, Rewriter
from repro.storage.partitioned import PartitionedDatabase

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.span import QueryTrace

Row = tuple

#: The plan attribute holding the plan's prepared annotations, one per
#: executor (see :meth:`Executor.execute`).
_PREPARED = "_prepared"

_WRITES = attrgetter("writes")


def _store_state(
    partitioned: PartitionedDatabase, tables: Iterable[str]
) -> tuple:
    """What a plan's annotation over *tables* depends on in the store:
    per table the table object (a repartition or migration replaces
    it), its patch-list writes, its verified effective hash and its
    partitions' writes."""
    state = []
    for name in tables:
        table = partitioned.table(name)
        state.append(
            (
                table,
                table.writes,
                table.effective_hash,
                tuple(map(_WRITES, table.partitions)),
            )
        )
    return tuple(state)


@dataclass
class QueryResult:
    """Result of a distributed query: rows, schema, and cost accounting.

    Attributes:
        columns: Visible output column names.
        rows: Result rows, gathered on the coordinator.
        stats: Global execution statistics (the cost model's input).
        plan: The annotated physical plan that was executed.
        operators: Per-operator × per-node breakdown of the same
            accounting, in plan post-order.
        cost: The cost parameters of the cluster that ran the query;
            :meth:`simulated_seconds` defaults to them.
        trace: The :class:`~repro.obs.span.QueryTrace` span tree, when
            the query ran with ``analyze=True`` (else None).
    """

    columns: tuple[str, ...]
    rows: list[Row]
    stats: ExecutionStats
    plan: Annotated | None
    operators: list[OperatorStats] = field(default_factory=list)
    cost: CostParameters | None = None
    trace: "QueryTrace | None" = None

    def simulated_seconds(self, params: CostParameters | None = None) -> float:
        """Simulated runtime under *params* (default: the cluster's own
        cost parameters, falling back to :class:`CostParameters()`)."""
        return self.stats.simulated_seconds(params or self.cost)

    def as_dicts(self) -> list[dict]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def explain_operators(self) -> str:
        """The per-operator cost breakdown, as an aligned text table."""
        return format_operator_stats(self.operators)

    def explain_analyze(self) -> str:
        """The ``EXPLAIN ANALYZE`` text form of this run's trace.

        Requires the query to have run with ``analyze=True``.
        """
        if self.trace is None:
            raise ValueError(
                "query ran without analyze=True: no trace to render"
            )
        from repro.obs.explain import render_analyze

        return render_analyze(self.trace)


class Executor:
    """Executes logical plans against one partitioned database.

    Args:
        partitioned: The partitioned database to run on.
        options: The :class:`~repro.query.options.ExecOptions` every plan
            is rewritten and run under (default: ``ExecOptions()``); kept
            as ``self.options``.
        backend: Scheduling backend; defaults to a fresh
            :class:`SerialBackend`.  Backends may be shared between
            executors (a cluster shares one across its queries).
        cost: Cost parameters stamped onto every :class:`QueryResult` so
            ``result.simulated_seconds()`` uses the cluster's constants.
    """

    def __init__(
        self,
        partitioned: PartitionedDatabase,
        options: ExecOptions | None = None,
        backend: Backend | None = None,
        cost: CostParameters | None = None,
    ) -> None:
        self.partitioned = partitioned
        self.count = partitioned.partition_count
        self.options = ExecOptions() if options is None else options
        self.rewriter = Rewriter(
            partitioned,
            optimizations=self.options.optimizations,
            locality=self.options.locality,
        )
        self.backend = backend or SerialBackend()
        self.cost = cost

    def annotate(self, plan: PlanNode) -> Annotated:
        """Push filters down, rewrite *plan*, and apply predicate
        transfer when enabled.

        A pure function of the plan and the store: every call does the
        whole work and keeps nothing (:meth:`execute` keeps its result).
        The returned annotated plan is immutable as far as execution is
        concerned: :func:`~repro.engine.compile.compile_plan` only reads
        it, so one annotated plan may back many (even concurrent)
        executions — the serving layer's plan cache relies on this.  It
        carries no data: it depends on the plan, on the store facts the
        rewriter reads (governing duplicates, effective hashing, patch
        counts) and on the pushdown guard's sample of the scanned
        tables, all of which change only with a write to those tables
        (the plan cache's invalidation key).
        """
        annotated = self.rewriter.rewrite(push_filters(plan, self.partitioned))
        if self.options.predicate_transfer:
            from repro.query.predicate_transfer import apply_predicate_transfer

            annotated = apply_predicate_transfer(annotated)
        return annotated

    def execute(
        self, plan: PlanNode, analyze: bool = False, query_name: str | None = None
    ) -> QueryResult:
        """Annotate, compile, and run *plan* on the backend.

        The annotation is prepared once per store state: the plan keeps
        this executor's :meth:`annotate` result together with the state
        of every table it reads (:func:`_store_state`), and a later call
        with the same plan object reuses it while that state is
        unchanged — until a write to one of those tables, a change of
        its effective hash, or a repartition.  The entry is keyed by the
        plan's identity, never by ``==``: two plans that differ in a
        literal are different objects.  It hangs off the plan (its
        annotation holds the plan's own nodes, often the plan itself, so
        a memo the executor held would keep plans alive) and goes with
        it, or with the executor, whichever is collected first.

        With ``analyze=True`` the run is traced and the result carries a
        :class:`~repro.obs.span.QueryTrace` (``result.explain_analyze()``
        renders it).
        """
        return self.execute_annotated(
            self._prepared(plan), analyze=analyze, query_name=query_name
        )

    def _prepared(self, plan: PlanNode) -> Annotated:
        """:meth:`annotate` of *plan*, reused while the store state it
        was made in holds (see :meth:`execute`)."""
        prepared = vars(plan).get(_PREPARED)
        entry = None if prepared is None else prepared.get(self)
        tables = referenced_tables(plan) if entry is None else entry[1]
        state = _store_state(self.partitioned, tables)
        if entry is not None and entry[2] == state:
            return entry[0]
        annotated = self.annotate(plan)
        if prepared is None:
            # Plan nodes are frozen; the memo is not one of their fields.
            prepared = vars(plan).setdefault(_PREPARED, WeakKeyDictionary())
        prepared[self] = (annotated, tables, state)
        return annotated

    def execute_annotated(
        self,
        annotated: Annotated,
        analyze: bool = False,
        query_name: str | None = None,
    ) -> QueryResult:
        """Compile and run an already-annotated plan on the backend.

        Split out of :meth:`execute` so the serving layer's plan cache
        can pay the rewrite once and re-execute the cached annotation.
        """
        # Deferred import: the compiler pulls in the whole operator set,
        # whose modules import repro.query submodules; importing it at
        # call time keeps every package-first import order working.
        from repro.engine.compile import compile_plan

        root = compile_plan(annotated, self.partitioned)
        ctx = ExecutionContext(self.count, collect_trace=analyze)
        for op in root.walk():
            ctx.register(op)
        self.backend.run(root, ctx)
        stats = ctx.finish()
        trace = None
        if analyze:
            from repro.obs.span import build_trace

            trace = build_trace(
                root,
                ctx.operator_stats(),
                ctx.trace_events,
                ctx.metrics,
                self.count,
                backend=self.backend.name,
                query=query_name,
            )
        batch = root.partition_batch(0)
        props = annotated.props
        visible = props.visible_columns
        positions = [
            index
            for index, column in enumerate(props.columns)
            if not is_hidden(column)
        ]
        if len(positions) != len(props.columns):
            batch = batch.select(positions)
        rows = batch.to_rows()
        return QueryResult(
            visible,
            rows,
            stats,
            annotated,
            operators=ctx.operator_stats(),
            cost=self.cost,
            trace=trace,
        )

    def explain(self, plan: PlanNode) -> str:
        """The annotated physical plan for *plan*, as text, with the
        compiled operators' ``cols <live>/<total>`` beside each node."""
        from repro.engine.compile import compile_plan

        annotated = self.annotate(plan)
        root = compile_plan(annotated, self.partitioned)
        operators = {id(op.annotated): op for op in root.walk()}

        def live_columns(node: Annotated) -> str:
            op = operators[id(node)]
            return f"cols {len(op.live)}/{op.width}"

        return annotated.explain(note=live_columns)
