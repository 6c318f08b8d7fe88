"""What the phase-by-phase schedule rests on, for every TPC-H plan.

``engine/backends.py::plan_phases`` runs a plan one phase at a time: per
operator in ``root.walk()`` order, the prepares, the exchange, then the
output partitions.  The thread pool runs the tasks of one phase
concurrently, so the schedule is right only if every task reads nothing
but operators earlier in the walk, its own operator's earlier phases
and, within its own phase, its own index.  Pinned here for all 22
TPC-H plans under three designs, with predicate transfer off and on
(on, a Bloom probe's exchange reads the outputs of operators that are
not its inputs — its declared ``after``):

* ``root.walk()`` yields every operator once, producers before readers;
* on an instrumented serial run, every read of every task is one the
  schedule allows — with teeth: a Bloom probe whose ``after`` is left
  empty fails it, and so does a partition task that reads a sibling
  partition of its own operator.
"""

from __future__ import annotations

import pytest

from helpers import compiled
from repro.engine.backends import plan_phases, run_step
from repro.engine.context import ExecutionContext
from repro.engine.operators import (
    PhysicalBloomProbe,
    PhysicalOperator,
    PhysicalScan,
)
from repro.query import ExecOptions
from repro.workloads.tpch import ALL_QUERIES

CONFIGS = ["all_hashed", "sd_pref", "patched_pref"]
#: Every sweep below runs with predicate transfer off and on (inside the
#: test, so its id stays the design's name).
TRANSFER = [ExecOptions(), ExecOptions(predicate_transfer=True)]
#: Schedule order of an operator's phases.  A read is named by the phase
#: that wrote it: ``prepare`` (``op.prepared[p]``), ``exchange``
#: (``op.exchanged``) or ``partition`` (output partition ``p``).
PHASE_RANK = {"prepare": 0, "exchange": 1, "partition": 2}


def sweep():
    """Every (query, options) pair the tests below cover."""
    return [(query, options) for query in ALL_QUERIES for options in TRANSFER]


@pytest.mark.parametrize("config", CONFIGS)
def test_walk_yields_each_operator_once_producers_first(tpch_stores, config):
    partitioned = tpch_stores[config]
    probes = {False: 0, True: 0}
    for query, options in sweep():
        root = compiled(partitioned, ALL_QUERIES[query](), options)
        order = list(root.walk())
        assert [op.op_id for op in order] == list(range(len(order))), query
        assert order[-1] is root
        position = {id(op): index for index, op in enumerate(order)}
        assert len(position) == len(order), f"{query}: an operator twice"
        for op in order:
            for producer in (*op.inputs, *op.after):
                assert position[id(producer)] < position[id(op)], (
                    query, producer.label, op.label,
                )
        probes[options.predicate_transfer] += sum(
            isinstance(op, PhysicalBloomProbe) for op in order
        )
    assert probes[True] and not probes[False]


# -- what a task reads is what the schedule allows ---------------------------


class _RecordingDict(dict):
    """``op.prepared`` that reports every lookup as a read."""

    def __init__(self, op, seen):
        super().__init__()
        self.op, self.seen = op, seen

    def __getitem__(self, p):
        self.seen.add(("prepare", self.op, p))
        return super().__getitem__(p)


def actual_reads(monkeypatch, partitioned, query, options=None):
    """Run *query* serially with every read of task state instrumented.

    Returns the plan's root and ``((op, phase, index), reads)`` per task,
    a read being ``(phase that wrote it, operator, index)``.
    """
    seen: set[tuple] = set()
    partition_batch = PhysicalOperator.partition_batch
    total_rows = PhysicalOperator.total_rows

    def recording_partition_batch(self, p):
        seen.add(("partition", self, p))
        return partition_batch(self, p)

    def recording_total_rows(self):
        seen.update(("partition", self, p) for p in range(self.output_count))
        return total_rows(self)

    def get_exchanged(self):
        seen.add(("exchange", self, 0))
        return self.__dict__["exchanged"]

    def set_exchanged(self, value):
        self.__dict__["exchanged"] = value

    reads = []
    with monkeypatch.context() as patch:
        patch.setattr(
            PhysicalOperator, "partition_batch", recording_partition_batch
        )
        patch.setattr(PhysicalOperator, "total_rows", recording_total_rows)
        patch.setattr(
            PhysicalOperator,
            "exchanged",
            property(get_exchanged, set_exchanged),
            raising=False,
        )
        root = compiled(partitioned, ALL_QUERIES[query](), options)
        ctx = ExecutionContext(partitioned.partition_count)
        for op in root.walk():
            ctx.register(op)
            op.prepared = _RecordingDict(op, seen)
        for op, phase, count in plan_phases(root):
            for index in range(count):
                seen.clear()
                run_step(ctx, op, phase, index)
                reads.append(((op, phase, index), set(seen)))
    return root, reads


def disallowed(root, reads):
    """``(task, reads the schedule does not allow)`` per offending task.

    A task may read any operator earlier in ``root.walk()``; of its own
    operator, any earlier phase and, within its own phase, its own index.
    """
    position = {id(op): rank for rank, op in enumerate(root.walk())}
    offenders = []
    for task, seen in reads:
        op, phase, index = task
        bad = set()
        for read in seen:
            written, owner, p = read
            if owner is op:
                ahead = PHASE_RANK[written] - PHASE_RANK[phase]
                if ahead > 0 or (ahead == 0 and p != index):
                    bad.add(read)
            elif position[id(owner)] > position[id(op)]:
                bad.add(read)
        if bad:
            offenders.append((task, bad))
    return offenders


def describe(offenders):
    return [
        (op.label, phase, index, sorted((k, o.label, p) for k, o, p in bad))
        for (op, phase, index), bad in offenders
    ]


@pytest.mark.parametrize("config", CONFIGS)
def test_every_actual_read_is_declared(tpch_stores, config, monkeypatch):
    partitioned = tpch_stores[config]
    written = set()
    for query, options in sweep():
        root, reads = actual_reads(monkeypatch, partitioned, query, options)
        offenders = disallowed(root, reads)
        assert not offenders, (query, config, options, describe(offenders))
        written.update(read[0] for _task, seen in reads for read in seen)
    assert written == set(PHASE_RANK)  # the instruments all fire


def test_probe_without_after_is_caught(tpch_stores, monkeypatch):
    """Teeth: the transfer pass runs in the first probe's exchange and
    reads the other sites' scans, which are not that probe's inputs.
    With ``after`` left empty the walk no longer puts them first."""
    partitioned = tpch_stores["all_hashed"]
    root, reads = actual_reads(
        monkeypatch, partitioned, "Q3", ExecOptions(predicate_transfer=True)
    )
    assert not disallowed(root, reads)
    monkeypatch.setattr(PhysicalBloomProbe, "after", ())
    offenders = disallowed(root, reads)
    assert offenders
    for (op, phase, _index), bad in offenders:
        assert isinstance(op, PhysicalBloomProbe)
        assert phase == "exchange"
        assert {read[0] for read in bad} == {"partition"}


def test_sibling_partition_read_is_caught(tpch_stores, monkeypatch):
    """Teeth: a partition task that peeks at the partition before its
    own reads a sibling in its own phase — serially it is always ready,
    on a pool it may not be."""
    partitioned = tpch_stores["all_hashed"]
    run_partition = PhysicalScan.run_partition

    def peeking(self, ctx, p):
        run_partition(self, ctx, p)
        if p:
            self.partition_batch(p - 1)

    root, reads = actual_reads(monkeypatch, partitioned, "Q3")
    assert not disallowed(root, reads)
    monkeypatch.setattr(PhysicalScan, "run_partition", peeking)
    root, reads = actual_reads(monkeypatch, partitioned, "Q3")
    offenders = disallowed(root, reads)
    assert offenders
    for (op, phase, index), bad in offenders:
        assert isinstance(op, PhysicalScan) and phase == "partition"
        assert bad == {("partition", op, index - 1)}
