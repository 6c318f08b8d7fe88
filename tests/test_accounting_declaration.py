"""The counter declaration is the only place a counter is listed.

``OperatorStats`` declares what an operator can account; everything
downstream iterates :data:`repro.engine.context.COUNTERS`.  These tests
pin that: a counter patched into the declaration reaches every consumer
with no other code touched, and the checked-in trace schema lists
exactly the declared fields.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import pytest

from helpers import pref_chain_config, shop_database
from repro.engine import context
from repro.engine.backends import make_backend
from repro.engine.context import (
    ContextDelta,
    ExecutionContext,
    OperatorStats,
    _counter,
    format_operator_stats,
)
from repro.engine.operators import PhysicalScan
from repro.obs.explain import (
    DERIVED,
    load_trace_schema,
    render_analyze,
    span_to_json,
)
from repro.obs.span import STATIC
from repro.partitioning import partition_database
from repro.query import Executor
from repro.query.cost import ExecutionStats
from repro.sql import sql_to_plan


@pytest.fixture
def probes_counter(monkeypatch):
    """Declare a throwaway ``probes`` counter, as if it were one more
    ``_counter`` line on ``OperatorStats`` at import time."""

    @dataclass
    class Declared:
        probes: int = _counter("engine.rows.probes", "probes")

    original = context.COUNTERS
    monkeypatch.setattr(OperatorStats, "probes", 0, raising=False)
    for module in list(sys.modules.values()):
        if getattr(module, "COUNTERS", None) is original:
            monkeypatch.setattr(module, "COUNTERS", original + fields(Declared))


def test_declared_counter_reaches_every_consumer(probes_counter, monkeypatch):
    # The counter's one call site: scans count three probes a partition.
    run_partition = PhysicalScan.run_partition

    def counting_run_partition(self, ctx, p):
        ctx.record(self).probes += 3
        run_partition(self, ctx, p)

    monkeypatch.setattr(PhysicalScan, "run_partition", counting_run_partition)

    database = shop_database(seed=7)
    partitioned = partition_database(database, pref_chain_config(4))
    plan = sql_to_plan("SELECT COUNT(*) AS n FROM orders o", database.schema)
    for name in ("serial", "thread"):
        backend = make_backend(name, max_workers=2)
        try:
            result = Executor(partitioned, backend=backend).execute(
                plan, analyze=True
            )
        finally:
            backend.close()
        # recorder -> merge_delta -> OperatorStats
        [scan] = [op for op in result.operators if op.label.startswith("scan")]
        assert scan.probes == 12, name
        # -> derived engine.* metric
        assert result.trace.metrics.counter("engine.rows.probes") == 12
        # -> OperatorSpan -> JSON -> canonical form
        [span] = [s for s in result.trace.spans() if s.name == "scan"]
        assert span.probes == 12
        assert span_to_json(span)["probes"] == 12
        assert ("probes", 12) in span.own_canonical()
        # -> both text renderers
        assert "probes=12" in render_analyze(result.trace)
        assert "probes" in format_operator_stats(result.operators).splitlines()[0]


def test_merge_sums_a_declared_counter(probes_counter):
    class Op:
        op_id, label = 0, "op"

    ctx = ExecutionContext(2)
    ctx.register(Op)
    for amount in (2, 5):
        recorder = ContextDelta(2)
        recorder.record(Op).probes += amount
        ctx.merge_delta(recorder)
    ctx.finish()
    assert ctx.operator_stats()[0].probes == 7
    assert ctx.metrics.counter("engine.rows.probes") == 7


def test_trace_schema_lists_exactly_the_declared_span_fields():
    span_schema = load_trace_schema()["$defs"]["span"]
    declared = {
        *STATIC,
        *(counter.name for counter in context.COUNTERS),
        *DERIVED,
        "rows_out_by_partition",
        "node_work",
        "tasks",
        "children",
    }
    assert set(span_schema["properties"]) == declared
    assert set(span_schema["required"]) == declared
    assert span_schema["additionalProperties"] is False
    for counter in context.COUNTERS:
        assert span_schema["properties"][counter.name] == {
            "type": "integer",
            "minimum": 0,
        }


def test_counter_metadata_is_unambiguous_and_totals_exist():
    metrics = [counter.metadata["metric"] for counter in context.COUNTERS]
    labels = [counter.metadata["label"] for counter in context.COUNTERS]
    assert len(set(metrics)) == len(metrics)
    assert len(set(labels)) == len(labels)
    assert all(metric.startswith("engine.") for metric in metrics)
    totals = {f.name for f in fields(ExecutionStats)}
    for counter in context.COUNTERS:
        assert counter.metadata["total"] in totals | {None}
