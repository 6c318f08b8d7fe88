"""The fuzz differ's span-tree oracle: broken counters must be caught.

``ExecutionStats`` canonicalisation cannot see per-operator output
counts (they are breakdown-only), so a backend that miscounts
``rows_out`` in a worker delta would slip past the stats check.  The
span-tree oracle closes that hole: these tests deliberately break the
accounting and assert the differ reports a ``backend_trace`` divergence
naming the offending operator.
"""

from __future__ import annotations

import copy
import re
import threading

from helpers import all_hashed_config, pref_chain_config, shop_database
from repro.engine import SerialBackend
from repro.engine.context import ContextDelta
from repro.fuzz.differ import span_tree_diff, span_trees_equal
from repro.fuzz.generator import generate_case
from repro.fuzz.runner import run_case
from repro.partitioning import partition_database
from repro.query import ExecOptions, Executor
from repro.sql import sql_to_plan

SQL = (
    "SELECT c.cname, o.total FROM customer c "
    "JOIN orders o ON c.custkey = o.custkey"
)


def _trace(executor, schema):
    return executor.execute(sql_to_plan(SQL, schema), analyze=True).trace


def test_span_trees_equal_reflexive_and_none_safe():
    database = shop_database(seed=7)
    partitioned = partition_database(database, pref_chain_config(4))
    executor = Executor(partitioned, backend=SerialBackend())
    first = _trace(executor, database.schema)
    second = _trace(executor, database.schema)
    # Timings differ between the two runs, canonical trees do not.
    assert span_trees_equal(first, second)
    assert span_trees_equal(None, None)
    assert not span_trees_equal(first, None)
    assert not span_trees_equal(None, second)


def test_perturbed_counter_detected_and_named():
    database = shop_database(seed=7)
    partitioned = partition_database(database, pref_chain_config(4))
    executor = Executor(partitioned, backend=SerialBackend())
    reference = _trace(executor, database.schema)
    broken = copy.deepcopy(_trace(executor, database.schema))
    [join] = broken.joins()
    join.rows_out += 1
    assert not span_trees_equal(reference, broken)
    report = span_tree_diff("serial", reference, "broken", broken)
    assert f"op {join.op_id}" in report
    assert join.label in report
    # An operator missing entirely is reported as one-sided.
    pruned = copy.deepcopy(reference)
    pruned.root.children = ()
    report = span_tree_diff("serial", reference, "pruned", pruned)
    assert "only in serial" in report


def _named_ops(report: str) -> list[int]:
    return [int(op_id) for op_id in re.findall(r"^  op (\d+)", report, re.M)]


def test_diff_names_only_the_differing_op_under_bloom_activity():
    # Regression: the differ sliced the positional canonical tuple to drop
    # the children, but Bloom-active spans carried one more element after
    # them — so their Bloom counts were never compared and their whole
    # subtree was, blaming every ancestor for a child's difference.
    database = shop_database(seed=7)
    partitioned = partition_database(database, all_hashed_config(4))
    plan = sql_to_plan(
        "SELECT c.cname, SUM(l.qty) AS q FROM customer c "
        "JOIN orders o ON c.custkey = o.custkey "
        "JOIN lineitem l ON o.orderkey = l.orderkey "
        "WHERE c.custkey < 5 GROUP BY c.cname",
        database.schema,
    )
    executor = Executor(partitioned, ExecOptions(predicate_transfer=True))
    reference = executor.execute(plan, analyze=True).trace
    probe = next(s for s in reference.spans() if s.bloom_pruned)
    [child] = probe.children

    broken = copy.deepcopy(reference)
    broken.span(child.op_id).rows_out += 1
    assert not span_trees_equal(reference, broken)
    report = span_tree_diff("serial", reference, "broken", broken)
    assert _named_ops(report) == [child.op_id]
    assert "rows_out" in report

    broken = copy.deepcopy(reference)
    broken.span(probe.op_id).bloom_pruned += 1
    assert not span_trees_equal(reference, broken)
    report = span_tree_diff("serial", reference, "broken", broken)
    assert _named_ops(report) == [probe.op_id]
    assert "bloom_pruned" in report


def test_runner_catches_broken_worker_delta(monkeypatch):
    # Over-counting rows_out in the recorders the thread backend's
    # workers hand back is invisible to the stats check (rows_out is
    # breakdown-only) — the span-tree oracle must flag it as a
    # backend_trace divergence.  Every backend records through the one
    # ContextDelta class, so the lie is confined to pool threads.
    case = generate_case(seed=11, index=0)
    assert run_case(case, backends=("serial", "thread")) is None

    real_add_output = ContextDelta.add_output

    def lying_add_output(self, op, rows, partition=0):
        in_worker = threading.current_thread() is not threading.main_thread()
        real_add_output(self, op, rows + in_worker, partition=partition)

    monkeypatch.setattr(ContextDelta, "add_output", lying_add_output)
    divergence = run_case(case, backends=("serial", "thread"))
    assert divergence is not None
    assert divergence.kind == "backend_trace"
    assert "span tree differs from serial" in divergence.detail
    assert "rows_out" in divergence.detail
