"""Execution accounting: one record per operator, one recorder, one path.

Every number the cost model and the traces report starts as a field of an
:class:`OperatorStats` — the per-operator record.  The counters are
declared once, as dataclass fields whose metadata names the ``engine.*``
metric and (if cost-bearing) the :class:`~repro.query.cost.ExecutionStats`
total each one feeds, plus its ``EXPLAIN`` label; :data:`COUNTERS` is that
declaration, and the merge, the query totals, the spans, the JSON export,
the canonical form and both text renderers iterate it.

Adding a counter is therefore a field and its call site:

1. declare it: ``foo: int = _counter("engine.rows.foo", "foo")`` on
   :class:`OperatorStats`;
2. count it at the call site: ``ctx.record(self).foo += n``;
3. list it in the checked-in ``obs/trace_schema.json`` (a test compares
   the schema with the declaration).

Operators write through one recorder class, :class:`ContextDelta`, and
never take a lock.  The query's :class:`ExecutionContext` is itself a
recorder (the serial backend, and every phase the thread pool runs
inline, record straight into it); each task the pool runs gets a fresh
one (:meth:`delta`), folded back with :meth:`ExecutionContext.merge_delta`
on the thread that called the backend once the task's phase has ended.
Every quantity is an integer count (work values are row counts held in
floats, exact far below 2**53), so merging in any order reproduces the
serial records exactly.

Query-level figures are derived, not recorded: :meth:`finish` sums the
per-operator records into the ``ExecutionStats`` totals and the
``engine.*`` metric counters, and flushes the hash-join events sorted by
``(op_id, node)`` — operator ids are assigned in post-order, so that is
the order serial execution produces and backends cannot be told apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.obs.metrics import ROW_BUCKETS, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.operators import PhysicalOperator
    from repro.query.cost import ExecutionStats
    from repro.query.relation import Method


def _counter(metric: str, label: str, total: str | None = None) -> int:
    """Declare one per-operator counter (see the module docstring).

    Args:
        metric: The ``engine.*`` metric the query-wide sum is exported as.
        label: The ``EXPLAIN ANALYZE`` key (the ``explain_operators``
            column header is the same with spaces for underscores).
        total: The ``ExecutionStats`` attribute the sum feeds, for the
            counters the cost model reads.
    """
    return field(
        default=0, metadata={"metric": metric, "label": label, "total": total}
    )


@dataclass
class OperatorStats:
    """Everything one physical operator accounted, and the declaration of
    what can be accounted."""

    op_id: int
    label: str
    #: Weighted row operations per node.  Summed over operators it is
    #: ``ExecutionStats.node_work``; summed over nodes too it is
    #: ``rows_processed`` and the ``engine.rows.processed`` metric.
    node_work: list[float]
    rows_out: int = _counter("engine.rows.out", "rows_out")
    rows_shipped: int = _counter(
        "engine.rows.shipped", "shipped", total="rows_shipped"
    )
    network_bytes: int = _counter(
        "engine.bytes.shuffled", "net_bytes", total="network_bytes"
    )
    #: Exchange round-trips.
    shuffles: int = _counter("engine.shuffles", "shuffles", total="shuffle_count")
    #: Rows dropped by PREF duplicate elimination (dedup operators and
    #: the governing-bitmap skips inside repartition routing).
    dup_eliminated: int = _counter(
        "engine.rows.dup_eliminated", "dup_elim", total="rows_dup_eliminated"
    )
    #: Rows probed against / pruned by predicate-transfer Bloom filters.
    bloom_probed: int = _counter("engine.rows.bloom_probed", "bloom_probed")
    bloom_pruned: int = _counter("engine.rows.bloom_pruned", "bloom_pruned")
    #: Patched-PREF patch-list rows delivered by the residual shuffle.
    patch_rows: int = _counter("engine.rows.patch_shipped", "patch_shipped")
    #: Base-table partitions materialised (partition pruning lowers it).
    partitions_scanned: int = _counter(
        "engine.partitions.scanned", "parts", total="partitions_scanned"
    )
    #: Rows a filter read as candidates from a stored partition's sorted
    #: column instead of evaluating every row.  An access-path counter
    #: (see :data:`~repro.obs.metrics.ACCESS_PREFIX`): a cold and a warm
    #: run of one query differ in it, in nothing else.
    examined: int = _counter("engine.access.examined", "examined")
    #: Output partition index -> rows emitted into it, for skew reporting.
    rows_out_by_partition: dict[int, int] = field(default_factory=dict)

    @property
    def total_work(self) -> float:
        """Weighted row operations summed over all nodes."""
        return sum(self.node_work)

    @property
    def max_node_work(self) -> float:
        """Weighted row operations on the operator's busiest node."""
        return max(self.node_work) if self.node_work else 0.0

    def merge(self, other: "OperatorStats") -> None:
        """Add *other*'s measurements into this record (commutative)."""
        for node, work in enumerate(other.node_work):
            self.node_work[node] += work
        for counter in COUNTERS:
            name = counter.name
            setattr(self, name, getattr(self, name) + getattr(other, name))
        by_partition = self.rows_out_by_partition
        for partition, rows in other.rows_out_by_partition.items():
            by_partition[partition] = by_partition.get(partition, 0) + rows


#: The counter declaration: every scalar an operator can account.
COUNTERS = tuple(f for f in fields(OperatorStats) if "metric" in f.metadata)


@dataclass(frozen=True)
class TraceEvent:
    """One completed engine task, recorded when the query is traced."""

    op_id: int
    label: str
    phase: str  #: "prepare" | "exchange" | "partition"
    node_id: int | None
    seconds: float
    #: The name of the thread the task ran on.  Excluded from canonical
    #: trace comparisons.
    worker: str | None = None


class ContextDelta:
    """The recorder: what operators write their accounting to.

    Single-owner — one pooled task, or (as an
    :class:`ExecutionContext`) one serially executed query — so no call
    takes a lock.  ``metrics`` holds only what has no per-operator home:
    the per-partition row histogram and the ``engine.tasks.*`` /
    ``time.*`` task metrics the backends record.
    """

    def __init__(self, node_count: int, collect_trace: bool = False) -> None:
        self.node_count = node_count
        self.operators: dict[int, OperatorStats] = {}
        #: ``(op_id, node, build rows, probe rows)`` per hash join.
        self.join_events: list[tuple[int, int, int, int]] = []
        self.metrics = MetricsRegistry(locked=False)
        #: The finished tasks, in completion order; non-None makes the
        #: backends time their tasks.
        self.trace_events: list[TraceEvent] | None = (
            [] if collect_trace else None
        )

    def record(self, op: "PhysicalOperator") -> OperatorStats:
        """The record of *op*, created empty on first use."""
        record = self.operators.get(op.op_id)
        if record is None:
            record = self.operators[op.op_id] = OperatorStats(
                op.op_id, op.label, [0.0] * self.node_count
            )
        return record

    def add_work(self, op: "PhysicalOperator", node: int, rows: float) -> None:
        """Account *rows* weighted row operations on *node* for *op*."""
        self.record(op).node_work[node] += rows

    def account(
        self, op: "PhysicalOperator", method: "Method", index: int, rows: float
    ) -> None:
        """Account input-processing work, honouring the input's placement.

        Replicated inputs are processed by every node, gathered inputs by
        the coordinator only; partitioned inputs cost on node *index*.
        """
        from repro.query.relation import Method

        node_work = self.record(op).node_work
        if method is Method.REPLICATED:
            for node in range(self.node_count):
                node_work[node] += rows
        elif method is Method.GATHERED:
            node_work[0] += rows
        else:
            node_work[index] += rows

    def add_network(
        self, op: "PhysicalOperator", byte_count: int, rows: int
    ) -> None:
        """Account a data transfer performed by *op*."""
        record = self.record(op)
        record.network_bytes += byte_count
        record.rows_shipped += rows

    def add_shuffle(self, op: "PhysicalOperator") -> None:
        """Account one exchange round-trip performed by *op*."""
        self.record(op).shuffles += 1

    def add_partition_scanned(self, op: "PhysicalOperator") -> None:
        """Account one materialised base-table partition."""
        self.record(op).partitions_scanned += 1

    def add_join_event(
        self, op: "PhysicalOperator", node: int, build_rows: int, probe_rows: int
    ) -> None:
        """Record a hash-join build/probe for the spill model."""
        self.join_events.append((op.op_id, node, build_rows, probe_rows))

    def add_output(
        self, op: "PhysicalOperator", rows: int, partition: int = 0
    ) -> None:
        """Record rows emitted by *op* into output *partition*."""
        record = self.record(op)
        record.rows_out += rows
        by_partition = record.rows_out_by_partition
        by_partition[partition] = by_partition.get(partition, 0) + rows
        self.metrics.observe("engine.partition_rows", rows, ROW_BUCKETS)

    def add_dup_eliminated(self, op: "PhysicalOperator", rows: int) -> None:
        """Record rows dropped by PREF duplicate elimination in *op*."""
        self.record(op).dup_eliminated += rows

    def add_bloom(self, op: "PhysicalOperator", probed: int, pruned: int) -> None:
        """Record a predicate-transfer Bloom probe pass in *op*."""
        record = self.record(op)
        record.bloom_probed += probed
        record.bloom_pruned += pruned

    def add_patch(self, op: "PhysicalOperator", rows: int) -> None:
        """Record patch-list rows delivered by *op*'s residual shuffle."""
        self.record(op).patch_rows += rows


class ExecutionContext(ContextDelta):
    """One query execution: its recorder, operator registry and totals.

    Attributes:
        stats: The cost-model totals, filled in by :meth:`finish`.
    """

    def __init__(self, node_count: int, collect_trace: bool = False) -> None:
        # Deferred import: repro.query's package init imports the engine,
        # so a module-level import here would re-enter it mid-exec when
        # the engine is imported first (e.g. via repro.cluster).
        from repro.query.cost import ExecutionStats

        super().__init__(node_count, collect_trace)
        self.stats = ExecutionStats(node_count)

    def register(self, op: "PhysicalOperator") -> None:
        """Create the record of *op*, so it is reported even if idle."""
        self.record(op)

    def operator_stats(self) -> list[OperatorStats]:
        """The per-operator records, in plan post-order (== id order)."""
        return [self.operators[key] for key in sorted(self.operators)]

    def delta(self) -> ContextDelta:
        """A fresh recorder for one pooled task of this query."""
        return ContextDelta(self.node_count, self.trace_events is not None)

    def merge_delta(self, delta: ContextDelta) -> None:
        """Fold a finished recorder into this context.

        Commutative, but not thread-safe: the backend calls it from the
        one thread that runs the query.
        """
        for op_id, record in delta.operators.items():
            self.operators[op_id].merge(record)
        self.join_events.extend(delta.join_events)
        self.metrics.merge(delta.metrics)
        if delta.trace_events:
            self.trace_events.extend(delta.trace_events)

    def finish(self) -> ExecutionStats:
        """Derive the query totals from the operator records.

        Fills ``stats`` and the ``engine.*`` metric counters (non-zero
        ones only, see :mod:`repro.obs.metrics`).  Totals are assigned,
        not accumulated, so calling it again cannot double-count.
        """
        records = self.operators.values()
        stats = self.stats
        stats.node_work = [
            sum((record.node_work[node] for record in records), 0.0)
            for node in range(self.node_count)
        ]
        stats.rows_processed = int(sum(stats.node_work))
        totals = {"engine.rows.processed": stats.rows_processed}
        for counter in COUNTERS:
            total = sum(getattr(record, counter.name) for record in records)
            totals[counter.metadata["metric"]] = total
            if counter.metadata["total"]:
                setattr(stats, counter.metadata["total"], total)
        self.metrics.counters.update(
            (metric, total) for metric, total in totals.items() if total
        )
        stats.join_events = [event[1:] for event in sorted(self.join_events)]
        return stats


def format_operator_stats(operators: list[OperatorStats]) -> str:
    """Render per-operator records as an aligned text table.

    A counter gets a column when any operator has it non-zero.
    """
    shown = [c for c in COUNTERS if any(getattr(op, c.name) for op in operators)]
    headers = ["op", "operator", "max node work", "total work"] + [
        c.metadata["label"].replace("_", " ") for c in shown
    ]
    rows = [
        [str(op.op_id), op.label, f"{op.max_node_work:.0f}", f"{op.total_work:.0f}"]
        + [str(getattr(op, c.name)) for c in shown]
        for op in operators
    ]
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in [headers, ["-" * width for width in widths], *rows]
    )
