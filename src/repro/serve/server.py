"""The concurrent query-serving front end over a simulated cluster.

``ClusterServer`` turns the one-query-at-a-time :class:`SimulatedCluster`
into a sustained-QPS serving layer::

    cluster = SimulatedCluster.partition(database, config)
    with cluster.serve(queue_depth=128) as server:
        session = server.session("app")
        ticket = session.submit("SELECT COUNT(*) AS n FROM orders o")
        print(ticket.result().rows)
        server.load({"orders": new_rows})       # bumps epochs, drops
        print(session.execute(                  # dependent cache entries
            "SELECT COUNT(*) AS n FROM orders o").rows)

Architecture (one PR-sized subsystem, four cooperating parts):

1. **Sessions** hand out tickets for concurrent SQL (or logical-plan)
   submissions; a ticket is a one-shot future completed by a worker.
2. **Admission control** — a bounded FIFO queue feeding ``max_inflight``
   worker threads sized to the engine backend's worker count.  Overflow
   is rejected at submit; queued queries past their deadline are
   rejected when popped (queue-based load leveling).
3. **Plan cache** — normalised SQL text -> (logical plan, annotated
   plan).  Parse + plan + rewrite run once; re-executions compile the
   cached annotation (physical operators are per-run state).
4. **Result cache** — normalised SQL text -> finished rows, invalidated
   by per-table epochs: every admitted write bumps the epochs of its
   PREF write-closure and drops dependent entries.  These two caches
   are the only derived state a write can leave stale: partitions store
   the columns scans hand out, so storage has nothing to invalidate.

Queries execute under the read side of a writer-priority RW lock and
writes under the write side, so a query never observes a half-applied
bulk load and a cached entry is never installed concurrently with the
write that would invalidate it.

Every counter and latency histogram flows through one
:class:`~repro.obs.metrics.MetricsRegistry` (``server.metrics``);
:meth:`ClusterServer.metrics_summary` reduces it to p50/p99 latencies,
queue-depth quantiles and cache hit rates for benchmarks and dashboards.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import AdmissionError, QueryTimeoutError
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
)
from repro.query.executor import QueryResult
from repro.query.plan import PlanNode, referenced_tables
from repro.serve.admission import ReadWriteLock, Ticket
from repro.serve.caches import TableDependentCache
from repro.serve.epochs import EpochTracker
from repro.serve.sqlnorm import normalize_sql
from repro.sql.planner import sql_to_plan, strip_explain

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.cluster.cluster import SimulatedCluster

#: Default bound of the admission queue.
DEFAULT_QUEUE_DEPTH = 128

_CLOSE = object()  # worker-shutdown sentinel


class _PlannedQuery:
    """A plan-cache entry: everything execution needs except compiling."""

    __slots__ = ("plan", "annotated", "tables")

    def __init__(self, plan: PlanNode, annotated, tables: frozenset[str]):
        self.plan = plan
        self.annotated = annotated
        self.tables = tables


class Session:
    """A client connection: a submission handle bound to one server.

    Sessions are cheap, thread-safe, and exist so concurrent clients are
    distinguishable in traces and metrics; they hold no query state
    beyond their counters.
    """

    def __init__(self, server: "ClusterServer", session_id: int, name: str):
        self.server = server
        self.session_id = session_id
        self.name = name
        self.submitted = 0
        self.completed = 0

    def submit(
        self,
        query: str | PlanNode,
        analyze: bool = False,
        query_name: str | None = None,
    ) -> Ticket:
        """Submit a query for asynchronous execution (see server.submit)."""
        return self.server.submit(
            query, analyze=analyze, query_name=query_name, session=self
        )

    def execute(
        self,
        query: str | PlanNode,
        analyze: bool = False,
        query_name: str | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Submit and block for the result."""
        return self.submit(
            query, analyze=analyze, query_name=query_name
        ).result(timeout)

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return f"Session({self.name!r}, id={self.session_id})"


class ClusterServer:
    """A thread-based serving layer over one :class:`SimulatedCluster`.

    Args:
        cluster: The cluster to serve; its executor and backend are
            shared by all workers (the engine's per-query state is
            per-execution, so concurrent executions are independent).
        max_inflight: Executor worker threads — the maximum number of
            queries in execution at once.  Defaults to the engine
            backend's worker count, the paper-appropriate sizing: more
            in-flight queries than engine workers only adds queueing
            inside the engine.
        queue_depth: Bound of the admission queue (None for unbounded).
            A full queue rejects new submissions with
            :class:`~repro.errors.AdmissionError`.
        queue_timeout: Per-query deadline in seconds, measured from
            submission; a query still queued past it is rejected with
            :class:`~repro.errors.QueryTimeoutError` instead of run.
            None disables deadlines.
        plan_cache_size: Entry bound of the plan cache (0 disables).
        result_cache_size: Entry bound of the result cache (0 disables).
        metrics: Registry to record into (default: a fresh one).
    """

    def __init__(
        self,
        cluster: "SimulatedCluster",
        max_inflight: int | None = None,
        queue_depth: int | None = DEFAULT_QUEUE_DEPTH,
        queue_timeout: float | None = None,
        plan_cache_size: int = 256,
        result_cache_size: int = 512,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_inflight is None:
            max_inflight = getattr(cluster.backend, "max_workers", None) or (
                os.cpu_count() or 4
            )
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if queue_timeout is not None and queue_timeout <= 0:
            raise ValueError(
                f"queue_timeout must be positive, got {queue_timeout}"
            )
        self.cluster = cluster
        self.max_inflight = max_inflight
        self.queue_timeout = queue_timeout
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.epochs = EpochTracker(cluster.config)
        self.plan_cache: TableDependentCache[_PlannedQuery] = (
            TableDependentCache(plan_cache_size)
        )
        self.result_cache: TableDependentCache[QueryResult] = (
            TableDependentCache(result_cache_size)
        )
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth or 0)
        self._lock = ReadWriteLock()
        self._state_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._started = False
        self._closed = False
        self._query_ids = itertools.count(1)
        self._session_ids = itertools.count(1)
        self._default_session: Session | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ClusterServer":
        """Spawn the worker pool (idempotent)."""
        with self._state_lock:
            if self._closed:
                raise AdmissionError("server is closed")
            if self._started:
                return self
            self._started = True
            for index in range(self.max_inflight):
                worker = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-serve-{index}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
        return self

    def close(self) -> None:
        """Drain queued queries, stop the workers (idempotent).

        Queries already admitted are completed; new submissions are
        rejected.  The cluster itself stays open (callers own it).
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if started:
            # FIFO guarantees every admitted ticket is popped before the
            # sentinels, so close() is a graceful drain.
            for _ in self._workers:
                self._queue.put(_CLOSE)
            for worker in self._workers:
                worker.join()
        while True:  # belt and braces: complete anything left behind
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, Ticket):
                item._complete(error=AdmissionError("server closed"))

    def __enter__(self) -> "ClusterServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- sessions and submission -------------------------------------------

    def session(self, name: str | None = None) -> Session:
        """Open a new session."""
        session_id = next(self._session_ids)
        self.metrics.inc("serve.sessions")
        return Session(self, session_id, name or f"session-{session_id}")

    def _default(self) -> Session:
        with self._state_lock:
            if self._default_session is None:
                self._default_session = Session(self, 0, "default")
        return self._default_session

    def submit(
        self,
        query: str | PlanNode,
        analyze: bool = False,
        query_name: str | None = None,
        session: Session | None = None,
    ) -> Ticket:
        """Admit *query* (SQL text or a logical plan) for execution.

        Returns a :class:`~repro.serve.admission.Ticket` immediately;
        ``ticket.result()`` blocks for the outcome.

        Raises:
            AdmissionError: If the server is closed or the admission
                queue is full (fail-fast overflow rejection).
        """
        if self._closed:
            raise AdmissionError("server is closed")
        if not self._started:
            self.start()
        if session is None:
            session = self._default()
        deadline = (
            time.monotonic() + self.queue_timeout
            if self.queue_timeout is not None
            else None
        )
        ticket = Ticket(
            next(self._query_ids),
            session.session_id,
            query,
            analyze=analyze,
            query_name=query_name,
            deadline=deadline,
        )
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            self.metrics.inc("serve.admission.rejected")
            raise AdmissionError(
                f"admission queue full ({self._queue.maxsize} queued); "
                "retry with backoff"
            ) from None
        session.submitted += 1
        self.metrics.inc("serve.submitted")
        self.metrics.observe(
            "serve.queue_depth", self._queue.qsize(), DEPTH_BUCKETS
        )
        return ticket

    def execute(
        self,
        query: str | PlanNode,
        analyze: bool = False,
        query_name: str | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Submit on the default session and block for the result."""
        return self.submit(
            query, analyze=analyze, query_name=query_name
        ).result(timeout)

    # -- writes ------------------------------------------------------------

    def load(
        self,
        batches: dict[str, Sequence[Sequence]],
        maintain_referencing: bool = True,
    ):
        """Bulk-load one batch per table (exclusive; bumps epochs)."""
        return self._write(
            batches.keys(),
            lambda: self.cluster.loader.load(
                batches, maintain_referencing=maintain_referencing
            ),
        )

    def insert(
        self,
        table: str,
        rows: Iterable[Sequence],
        maintain_referencing: bool = True,
    ):
        """Insert rows into *table* (exclusive; bumps epochs)."""
        return self._write(
            (table,),
            lambda: self.cluster.loader.insert(
                table, rows, maintain_referencing=maintain_referencing
            ),
        )

    def delete(self, table: str, where: Callable) -> int:
        """Delete matching rows from *table* (exclusive; bumps epochs)."""
        return self._write(
            (table,), lambda: self.cluster.loader.delete(table, where)
        )

    def update(self, table: str, where: Callable, apply: Callable) -> int:
        """Update matching rows of *table* (exclusive; bumps epochs)."""
        return self._write(
            (table,), lambda: self.cluster.loader.update(table, where, apply)
        )

    def invalidate(self, tables: Iterable[str]) -> frozenset[str]:
        """Manually bump epochs for *tables* (e.g. after an external
        migration touched the partitioned database directly)."""
        with self._lock.write():
            return self._bump(tables)

    def migrate(self, new_config):
        """Repartition the served cluster online under *new_config*.

        Runs :meth:`SimulatedCluster.repartition` under the write side of
        the readers-writer lock: every in-flight query drains first, and
        no new query starts against a half-migrated store — readers see
        either the old or the new placement, never a mix.  Both caches
        are cleared wholesale (cached annotations/plans reference the old
        partitioned tables, so epoch bumps alone would not be enough) and
        the epoch tracker is rebuilt for the new configuration's PREF
        closure.  Returns the migration plan.
        """
        started = time.monotonic()
        with self._lock.write():
            plan = self.cluster.repartition(new_config)
            self.epochs = EpochTracker(new_config)
            self.plan_cache.clear()
            self.result_cache.clear()
        self.metrics.inc("serve.migrations")
        self.metrics.observe(
            "time.serve.migration_seconds",
            time.monotonic() - started,
            LATENCY_BUCKETS,
        )
        return plan

    def _write(self, tables: Iterable[str], apply: Callable):
        tables = tuple(tables)
        started = time.monotonic()
        with self._lock.write():
            try:
                outcome = apply()
            finally:
                # A write that raises part-way may already have stored
                # rows; the caches must not keep answering from before it.
                self._bump(tables)
        self.metrics.inc("serve.writes")
        self.metrics.observe(
            "time.serve.write_seconds",
            time.monotonic() - started,
            LATENCY_BUCKETS,
        )
        return outcome

    def _bump(self, tables: Iterable[str]) -> frozenset[str]:
        """Advance epochs of the write closure and drop dependents.

        Called under the write lock: no query is in flight, so no stale
        entry can be installed concurrently (workers insert into the
        caches while still holding the read lock).
        """
        affected = self.epochs.bump(tables)
        dropped_plans = dropped_results = 0
        for table in affected:
            dropped_plans += self.plan_cache.invalidate_table(table)
            dropped_results += self.result_cache.invalidate_table(table)
        if dropped_plans:
            self.metrics.inc("serve.plan_cache.invalidations", dropped_plans)
        if dropped_results:
            self.metrics.inc(
                "serve.result_cache.invalidations", dropped_results
            )
        return affected

    # -- execution ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _CLOSE:
                return
            self._serve_one(item)

    def _serve_one(self, ticket: Ticket) -> None:
        now = time.monotonic()
        ticket.queue_wait = now - ticket.submitted_at
        self.metrics.observe(
            "time.serve.queue_wait_seconds", ticket.queue_wait, LATENCY_BUCKETS
        )
        if ticket.deadline is not None and now > ticket.deadline:
            self.metrics.inc("serve.admission.timeouts")
            ticket._complete(
                error=QueryTimeoutError(
                    f"query {ticket.query_id} queued for "
                    f"{ticket.queue_wait:.3f}s, past its "
                    f"{self.queue_timeout}s deadline"
                )
            )
            return
        started = time.monotonic()
        try:
            with self._lock.read():
                result, cache_hit = self._run(ticket)
        except BaseException as error:  # noqa: BLE001 - completes the ticket
            self.metrics.inc("serve.errors")
            ticket._complete(error=error)
            return
        ticket.service_seconds = time.monotonic() - started
        ticket.cache_hit = cache_hit
        ticket._complete(result=result)
        self.metrics.inc("serve.completed")
        self.metrics.observe(
            "time.serve.service_seconds",
            ticket.service_seconds,
            LATENCY_BUCKETS,
        )
        self.metrics.observe(
            "time.serve.latency_seconds", ticket.latency, LATENCY_BUCKETS
        )

    def _run(self, ticket: Ticket) -> tuple[QueryResult, str | None]:
        """Execute one admitted query (read lock held by the caller)."""
        query = ticket.query
        executor = self.cluster.executor
        if isinstance(query, PlanNode):
            # Logical plans have no canonical text form: execute
            # uncached (the session layer is primarily a SQL front end).
            annotated = executor.annotate(query)
            return (
                executor.execute_annotated(
                    annotated,
                    analyze=ticket.analyze,
                    query_name=ticket.query_name,
                ),
                None,
            )
        mode, body = strip_explain(query)
        if mode is not None:
            # EXPLAIN [ANALYZE] renders plan text; never cached.
            return self.cluster.sql(query), None
        key = normalize_sql(body)
        if not ticket.analyze:
            cached = self.result_cache.get(key)
            if cached is not None:
                self.metrics.inc("serve.result_cache.hits")
                # Share the immutable payload, copy the mutable row list.
                return replace(cached, rows=list(cached.rows)), "result"
            self.metrics.inc("serve.result_cache.misses")
        planned = self.plan_cache.get(key)
        plan_hit = planned is not None
        if planned is None:
            self.metrics.inc("serve.plan_cache.misses")
            plan = sql_to_plan(body, self.cluster.schema)
            tables = referenced_tables(plan)
            planned = _PlannedQuery(plan, executor.annotate(plan), tables)
            self.plan_cache.put(
                key, planned, tables, self.epochs.snapshot(tables)
            )
        else:
            self.metrics.inc("serve.plan_cache.hits")
        result = executor.execute_annotated(
            planned.annotated,
            analyze=ticket.analyze,
            query_name=ticket.query_name,
        )
        if not ticket.analyze:
            # Cache a snapshot with its own row list: the caller owns the
            # returned result and may mutate result.rows.
            self.result_cache.put(
                key,
                replace(result, rows=list(result.rows)),
                planned.tables,
                self.epochs.snapshot(planned.tables),
            )
        return result, ("plan" if plan_hit else None)

    # -- reporting ---------------------------------------------------------

    def metrics_summary(self) -> dict:
        """Serving health at a glance: throughput counters, cache hit
        rates, and latency/queue quantiles estimated from the registry's
        fixed-bucket histograms."""
        counters = self.metrics.counters

        def histogram(name: str):
            return self.metrics.histograms.get(name)

        def quantiles(name: str) -> dict:
            h = histogram(name)
            if h is None or h.count == 0:
                return {"count": 0, "p50": 0.0, "p99": 0.0, "mean": 0.0}
            return {
                "count": h.count,
                "p50": h.quantile(0.5),
                "p99": h.quantile(0.99),
                "mean": h.total / h.count,
            }

        return {
            "submitted": int(counters.get("serve.submitted", 0)),
            "completed": int(counters.get("serve.completed", 0)),
            "errors": int(counters.get("serve.errors", 0)),
            "writes": int(counters.get("serve.writes", 0)),
            "admission": {
                "rejected": int(counters.get("serve.admission.rejected", 0)),
                "timeouts": int(counters.get("serve.admission.timeouts", 0)),
                "queue_depth": quantiles("serve.queue_depth"),
            },
            "plan_cache": {
                "entries": len(self.plan_cache),
                "hits": self.plan_cache.stats.hits,
                "misses": self.plan_cache.stats.misses,
                "hit_rate": self.plan_cache.stats.hit_rate(),
                "evictions": self.plan_cache.stats.evictions,
                "invalidations": self.plan_cache.stats.invalidations,
            },
            "result_cache": {
                "entries": len(self.result_cache),
                "hits": self.result_cache.stats.hits,
                "misses": self.result_cache.stats.misses,
                "hit_rate": self.result_cache.stats.hit_rate(),
                "evictions": self.result_cache.stats.evictions,
                "invalidations": self.result_cache.stats.invalidations,
            },
            "latency": quantiles("time.serve.latency_seconds"),
            "queue_wait": quantiles("time.serve.queue_wait_seconds"),
            "service": quantiles("time.serve.service_seconds"),
        }

    def render_metrics(self) -> str:
        """The summary as an aligned text block (for logs and bench
        reports)."""
        summary = self.metrics_summary()

        def ms(value: float) -> str:
            return f"{value * 1000:.2f}ms"

        latency = summary["latency"]
        wait = summary["queue_wait"]
        plan = summary["plan_cache"]
        result = summary["result_cache"]
        admission = summary["admission"]
        lines = [
            "serving summary",
            f"  queries    submitted={summary['submitted']} "
            f"completed={summary['completed']} errors={summary['errors']} "
            f"writes={summary['writes']}",
            f"  admission  rejected={admission['rejected']} "
            f"timeouts={admission['timeouts']} "
            f"queue p50={admission['queue_depth']['p50']:.0f} "
            f"p99={admission['queue_depth']['p99']:.0f}",
            f"  latency    p50={ms(latency['p50'])} p99={ms(latency['p99'])} "
            f"mean={ms(latency['mean'])} (n={latency['count']})",
            f"  queue wait p50={ms(wait['p50'])} p99={ms(wait['p99'])}",
            f"  plan cache hit_rate={plan['hit_rate']:.1%} "
            f"hits={plan['hits']} misses={plan['misses']} "
            f"evictions={plan['evictions']} "
            f"invalidations={plan['invalidations']}",
            f"  result cache hit_rate={result['hit_rate']:.1%} "
            f"hits={result['hits']} misses={result['misses']} "
            f"evictions={result['evictions']} "
            f"invalidations={result['invalidations']}",
        ]
        return "\n".join(lines)
