"""Span-tree invariants and cross-backend trace equality.

The observability contract has two halves:

* structural — a :class:`~repro.obs.span.QueryTrace` mirrors the compiled
  physical plan exactly (post-order op_ids, children nested, one span per
  operator) and its counters reconcile with the query result; and
* behavioural — the canonical (timing-free) trace is a pure function of
  the compiled plan, so the serial and thread backends must produce
  equal canonical traces and equal merged metric totals, and merging
  recorders (:class:`~repro.engine.context.ContextDelta`, one per
  thread-pool task) must be order-independent (task completion order is
  nondeterministic).
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from helpers import pref_chain_config, shop_database
from repro.engine import SerialBackend, ThreadPoolBackend
from repro.engine.backends import plan_phases, run_step
from repro.engine.compile import compile_plan
from repro.engine.context import ContextDelta, ExecutionContext, TraceEvent
from repro.obs.metrics import TIME_BUCKETS, MetricsRegistry
from repro.obs.span import build_trace
from repro.partitioning import partition_database
from repro.query import Executor
from repro.sql import sql_to_plan

QUERIES = [
    "SELECT c.cname, o.total FROM customer c "
    "JOIN orders o ON c.custkey = o.custkey",
    "SELECT o.orderkey, SUM(l.qty) AS q FROM orders o "
    "JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.orderkey",
    "SELECT DISTINCT l.itemkey FROM lineitem l",
    "SELECT n.nname, COUNT(*) AS c FROM customer c "
    "JOIN nation n ON c.nationkey = n.nationkey "
    "GROUP BY n.nname ORDER BY c DESC",
]


@pytest.fixture(scope="module")
def traced_engines():
    database = shop_database(seed=7)
    partitioned = partition_database(database, pref_chain_config(4))
    thread_pool = ThreadPoolBackend(max_workers=4)
    engines = {
        "serial": Executor(partitioned, backend=SerialBackend()),
        "thread": Executor(partitioned, backend=thread_pool),
    }
    yield database, engines
    thread_pool.close()


@pytest.mark.parametrize("sql", QUERIES)
def test_span_tree_mirrors_plan(traced_engines, sql):
    database, engines = traced_engines
    result = engines["serial"].execute(
        sql_to_plan(sql, database.schema), analyze=True
    )
    trace = result.trace
    assert trace is not None
    spans = trace.spans()
    # One span per physical operator, walked in plan post-order: the
    # compiler assigns op_ids in post-order, so the walk enumerates them.
    assert [span.op_id for span in spans] == list(range(len(spans)))
    assert len(spans) == len(result.operators)
    for span in spans:
        for child in span.children:
            assert child.op_id < span.op_id
        # Per-partition output map must reconcile with the span total.
        assert sum(span.rows_out_by_partition.values()) == span.rows_out
        # Task lists are canonically sorted (phase, then partition).
        keys = [task.canonical() for task in span.tasks]
        assert keys == sorted(keys)
        assert trace.span(span.op_id) is span
    # The root is the implicit gather and its output is the result.
    assert spans[-1].name == "gather"
    assert spans[-1].rows_out == len(result.rows)
    # The merged registry agrees with the per-span accounting.
    assert trace.metrics.counter("engine.rows.out") == sum(
        span.rows_out for span in spans
    )
    assert trace.metrics.counter("engine.rows.shipped") == sum(
        span.rows_shipped for span in spans
    )


@pytest.mark.parametrize("sql", QUERIES)
def test_backend_traces_identical(traced_engines, sql):
    database, engines = traced_engines
    results = {
        name: engine.execute(sql_to_plan(sql, database.schema), analyze=True)
        for name, engine in engines.items()
    }
    reference = results["serial"].trace
    trace = results["thread"].trace
    assert trace.canonical() == reference.canonical(), (
        f"thread trace diverges from serial for {sql!r}"
    )
    # Merged metric totals match exactly (timings are excluded by
    # canonicalisation but counters must be bit-identical).
    assert trace.metrics.canonical() == reference.metrics.canonical()
    # Backends label their traces so exports are attributable.
    assert trace.backend == "thread"


def test_trace_not_collected_without_analyze(traced_engines):
    database, engines = traced_engines
    result = engines["serial"].execute(sql_to_plan(QUERIES[0], database.schema))
    assert result.trace is None
    with pytest.raises(ValueError):
        result.explain_analyze()


# -- delta-merge order independence (task completion is nondeterministic) --


class _Op:
    """Minimal stand-in for a PhysicalOperator in context unit tests."""

    def __init__(self, op_id: int, label: str) -> None:
        self.op_id = op_id
        self.label = label


def _recorded_deltas(ops, node_count: int) -> list[ContextDelta]:
    """A deterministic batch of worker deltas with every record kind."""
    rng = random.Random(42)
    deltas = []
    for worker in range(6):
        delta = ContextDelta(node_count, collect_trace=True)
        for op in ops:
            node = rng.randrange(node_count)
            delta.add_work(op, node, float(rng.randrange(1, 50)))
            delta.add_network(op, rng.randrange(1, 4096), rng.randrange(1, 40))
            if rng.random() < 0.5:
                delta.add_shuffle(op)
            delta.add_partition_scanned(op)
            delta.add_output(op, rng.randrange(0, 30), partition=node)
            delta.add_dup_eliminated(op, rng.randrange(0, 5))
            delta.add_join_event(op, node, rng.randrange(50), rng.randrange(50))
            delta.metrics.observe(
                "time.task_seconds", rng.random() / 100, TIME_BUCKETS
            )
            delta.trace_events.append(
                TraceEvent(op.op_id, op.label, "partition", node, 0.0, None)
            )
        deltas.append(delta)
    return deltas


def _merged_context(ops, deltas, order, node_count: int):
    ctx = ExecutionContext(node_count, collect_trace=True)
    for op in ops:
        ctx.register(op)
    for index in order:
        ctx.merge_delta(deltas[index])
    ctx.finish()
    return ctx, ctx.trace_events


def test_delta_merge_is_order_independent():
    node_count = 4
    ops = [_Op(i, f"op{i}") for i in range(3)]
    deltas = _recorded_deltas(ops, node_count)
    baseline_order = list(range(len(deltas)))
    baseline, baseline_events = _merged_context(
        ops, deltas, baseline_order, node_count
    )
    rng = random.Random(7)
    for _ in range(5):
        order = baseline_order[:]
        rng.shuffle(order)
        ctx, events = _merged_context(ops, deltas, order, node_count)
        # The cost-model stats canonicalise identically (join events are
        # flushed through the deferred sort, so ordering cannot leak).
        assert ctx.stats.canonical() == baseline.stats.canonical()
        # Per-operator records match field by field.
        assert ctx.operator_stats() == baseline.operator_stats()
        # Metric registries (histograms included) merge commutatively.
        assert ctx.metrics.canonical() == baseline.metrics.canonical()
        # Every worker trace event is forwarded exactly once.
        assert Counter(events) == Counter(baseline_events)


@pytest.mark.parametrize("sql", QUERIES)
def test_per_task_recorders_merge_in_any_order(traced_engines, sql):
    """The thread backend's accounting path, with the schedule taken out:
    every task records into its own recorder, and the recorders may reach
    ``merge_delta`` in any completion order."""
    database, engines = traced_engines
    executor = engines["serial"]
    plan = sql_to_plan(sql, database.schema)
    serial = executor.execute(plan, analyze=True)

    root = compile_plan(executor.annotate(plan), executor.partitioned)
    recorders = []
    for op, phase, count in plan_phases(root):
        for index in range(count):
            recorders.append(ContextDelta(executor.count, collect_trace=True))
            run_step(recorders[-1], op, phase, index)
    rng = random.Random(3)
    for _ in range(4):
        rng.shuffle(recorders)
        ctx = ExecutionContext(executor.count, collect_trace=True)
        for op in root.walk():
            ctx.register(op)
        for recorder in recorders:
            ctx.merge_delta(recorder)
        stats = ctx.finish()
        trace = build_trace(
            root, ctx.operator_stats(), ctx.trace_events, ctx.metrics, executor.count
        )
        assert stats.canonical() == serial.stats.canonical()
        assert trace.canonical() == serial.trace.canonical()
        assert ctx.metrics.canonical() == serial.trace.metrics.canonical()


def test_thread_backend_accounting_survives_contention():
    """More workers than cores, many partitions and a tiny switch
    interval: merging recorders outside the scheduler lock loses updates
    in about a third of these runs."""
    database = shop_database(seed=7)
    partitioned = partition_database(database, pref_chain_config(16))
    plan = sql_to_plan(QUERIES[1], database.schema)
    reference = Executor(partitioned).execute(plan, analyze=True)
    pool = ThreadPoolBackend(max_workers=8)
    executor = Executor(partitioned, backend=pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            result = executor.execute(plan, analyze=True)
            assert result.stats.canonical() == reference.stats.canonical()
            assert result.trace.canonical() == reference.trace.canonical()
    finally:
        sys.setswitchinterval(interval)
        pool.close()


def test_histogram_merge_commutes():
    a = MetricsRegistry(locked=False)
    b = MetricsRegistry(locked=False)
    for value in (0.5, 3.0, 900.0):
        a.observe("engine.partition_rows", value, (1.0, 10.0, float("inf")))
    for value in (0.1, 42.0):
        b.observe("engine.partition_rows", value, (1.0, 10.0, float("inf")))
    ab = MetricsRegistry(locked=False)
    ab.merge(a)
    ab.merge(b)
    ba = MetricsRegistry(locked=False)
    ba.merge(b)
    ba.merge(a)
    assert ab.canonical() == ba.canonical()
