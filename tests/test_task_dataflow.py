"""Declared dataflow against actual dataflow, and the one scheduling loop.

``engine/backends.py`` declares a plan's dataflow once — the slot every
task writes and the slots it reads (``task_slots``) — and derives the
task dependencies and the thread pool's fused jobs from it.  Pinned
here, for all 22 TPC-H plans under three designs, with predicate
transfer off and on (on, a Bloom probe's exchange reads the
outputs of operators that are not its inputs — its declared ``after``):

* ``root.walk()`` yields every operator once, producers before readers;
* every task's ``deps`` are the writers of its ``reads``, and serial
  order is a topological order of the graph;
* on an instrumented serial run, every slot a task actually reads is one
  it declared (so a pool that waits for exactly the declared reads never
  starves a task) — with teeth: the old class-level
  ``PhysicalAggregate.partition_reads_inputs = False`` fails it, and so
  does a Bloom probe whose ``after`` is left empty.

And for ``run_jobs`` on hand-built jobs with fake ``submit``/``absorb``:
an inline failure, a pooled failure and an ``absorb`` failure each
re-raise the *first* error, only after every submitted future finished,
and no job starts after the failure.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import compiled
from repro.engine.backends import (
    Slot,
    _Job,
    build_task_graph,
    run_jobs,
    task_slots,
)
from repro.engine.context import ExecutionContext
from repro.engine.operators import (
    PhysicalAggregate,
    PhysicalBloomProbe,
    PhysicalOperator,
)
from repro.query import ExecOptions
from repro.workloads.tpch import ALL_QUERIES

CONFIGS = ["all_hashed", "sd_pref", "patched_pref"]
#: Every sweep below runs with predicate transfer off and on (inside the
#: test, so its id stays the design's name).
TRANSFER = [ExecOptions(), ExecOptions(predicate_transfer=True)]


# -- (a) operator order and dependencies derive from the declaration --------


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


@pytest.mark.parametrize("config", CONFIGS)
def test_deps_are_the_writers_of_the_reads(tpch_stores, config):
    partitioned = tpch_stores[config]
    for query, options in sweep():
        tasks = build_task_graph(
            compiled(partitioned, ALL_QUERIES[query](), options)
        )
        writer = {task.writes: task for task in tasks}
        assert len(writer) == len(tasks), f"{query}: a slot has two writers"
        for position, task in enumerate(tasks):
            where = (query, task.op.label, task.phase, task.index)
            assert task.order == position
            assert task.deps == [writer[slot] for slot in task.reads], where
            # List order is a topological order: writers come first.
            assert all(dep.order < task.order for dep in task.deps), where
            for dep in task.deps:
                assert task in dep.dependents, where
        assert sum(len(task.deps) for task in tasks) == sum(
            len(task.dependents) for task in tasks
        )


# -- (b) what a task reads is what it declared -------------------------------


class _RecordingDict(dict):
    """``op.prepared`` that reports every lookup as a slot read."""

    def __init__(self, op, seen):
        super().__init__()
        self.op, self.seen = op, seen

    def __getitem__(self, p):
        self.seen.add(Slot("prep", self.op.op_id, p))
        return super().__getitem__(p)


def actual_reads(monkeypatch, partitioned, query, options=None):
    """Run *query* serially with every slot read instrumented; return
    ``(task, slots it read)`` per task."""
    seen: set[Slot] = set()
    partition_batch = PhysicalOperator.partition_batch
    total_rows = PhysicalOperator.total_rows

    def recording_partition_batch(self, p):
        seen.add(Slot("part", self.op_id, p))
        return partition_batch(self, p)

    def recording_total_rows(self):
        seen.update(
            Slot("part", self.op_id, p) for p in range(self.output_count)
        )
        return total_rows(self)

    def get_exchanged(self):
        seen.add(Slot("exch", self.op_id, 0))
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
        for task in build_task_graph(root):
            seen.clear()
            task.run(ctx)
            reads.append((task, set(seen)))
    return reads


def undeclared(reads):
    return [
        (task, sorted(seen - set(task.reads)))
        for task, seen in reads
        if not seen <= set(task.reads)
    ]


@pytest.mark.parametrize("config", CONFIGS)
def test_every_actual_read_is_declared(tpch_stores, config, monkeypatch):
    partitioned = tpch_stores[config]
    kinds = set()
    for query, options in sweep():
        reads = actual_reads(monkeypatch, partitioned, query, options)
        for task, extra in undeclared(reads):
            raise AssertionError(
                f"{query}/{config}/{options}: {task.op.label} {task.phase} "
                f"{task.index} read undeclared {extra}"
            )
        kinds.update(slot.kind for _task, seen in reads for slot in seen)
    assert kinds == {"part", "prep", "exch"}  # the instruments all fire


def test_class_level_aggregate_flag_is_caught(tpch_stores, monkeypatch):
    """Teeth: a ``local`` aggregate reads its input partition.  Declaring
    the whole class input-free (right only for ``two_phase``) once made a
    pool fail on Q13: ``partition 0 of join[local] not ready``."""
    partitioned = tpch_stores["sd_pref"]
    root = compiled(partitioned, ALL_QUERIES["Q13"]())
    assert any(
        isinstance(op, PhysicalAggregate) and op.strategy == "local"
        for op in root.walk()
    )
    assert not undeclared(actual_reads(monkeypatch, partitioned, "Q13"))
    monkeypatch.setattr(PhysicalAggregate, "partition_reads_inputs", False)
    offenders = undeclared(actual_reads(monkeypatch, partitioned, "Q13"))
    assert offenders
    assert all(task.op.label == "aggregate[local]" for task, _ in offenders)


def test_probe_without_after_is_caught(tpch_stores, monkeypatch):
    """Teeth: the transfer pass runs in the first probe's exchange and
    reads the other sites' scans, which are not that probe's inputs.
    With ``after`` left empty the declaration no longer covers them."""
    partitioned = tpch_stores["all_hashed"]
    reads = actual_reads(
        monkeypatch, partitioned, "Q3", ExecOptions(predicate_transfer=True)
    )
    assert not undeclared(reads)
    monkeypatch.setattr(PhysicalBloomProbe, "after", ())
    offenders = [
        (task, seen - set(task_slots(task.op, task.phase, task.index)[1]))
        for task, seen in reads
    ]
    offenders = [(task, extra) for task, extra in offenders if extra]
    assert offenders
    for task, extra in offenders:
        assert isinstance(task.op, PhysicalBloomProbe)
        assert task.phase == "exchange"
        assert {slot.kind for slot in extra} == {"part"}


# -- (c) the scheduling loop on hand-built jobs ------------------------------


class Boom(RuntimeError):
    pass


class _Step:
    """A fake task: logs its start, sleeps, optionally fails."""

    def __init__(self, log, name, seconds=0.0, error=None):
        self.log, self.name = log, name
        self.seconds, self.error = seconds, error

    def run(self, ctx):
        self.log.append(self.name)
        time.sleep(self.seconds)
        if self.error is not None:
            raise self.error


def job(log, name, remote=True, after=(), **how):
    made = _Job([_Step(log, name, **how)], remote)
    for predecessor in after:
        predecessor.dependents.append(made)
        made.remaining += 1
    return made


@pytest.mark.parametrize("site", ["inline", "pooled", "absorb"])
def test_run_jobs_drains_then_raises_the_first_error(site):
    started: list[str] = []
    first = Boom(f"{site} failure")
    slow = job(started, "slow", seconds=0.15)
    # A second, later failure: must not replace the first.
    late = job(started, "late", seconds=0.1, error=Boom("late failure"))
    if site == "inline":
        culprit = job(started, "culprit", remote=False, error=first)
    elif site == "pooled":
        culprit = job(started, "culprit", error=first)
    else:
        culprit = job(started, "culprit")
    jobs = [
        slow,
        late,
        culprit,
        job(started, "after-slow", after=[slow]),
        job(started, "after-culprit", remote=False, after=[culprit]),
    ]
    futures = []
    absorbed = []

    def submit(made):
        futures.append(pool.submit(made.run, None))
        return futures[-1]

    def absorb(result):
        absorbed.append(result)
        if site == "absorb" and len(absorbed) == 1:
            raise first

    with ThreadPoolExecutor(max_workers=4) as pool:
        with pytest.raises(Boom) as raised:
            run_jobs(jobs, None, submit, absorb)
        assert raised.value is first
        # Everything submitted had finished when the error surfaced ...
        assert futures and all(future.done() for future in futures)
    # ... and nothing was started after the failure.
    assert sorted(started) == ["culprit", "late", "slow"]


def test_run_jobs_runs_everything_once_in_dependency_order():
    started: list[str] = []
    scan = [job(started, f"scan{p}", seconds=0.01) for p in range(3)]
    exchange = job(started, "exchange", remote=False, after=scan)
    probes = [job(started, f"probe{p}", after=[exchange]) for p in range(3)]
    merged = []

    def submit(made):
        return pool.submit(made.run, made)

    with ThreadPoolExecutor(max_workers=2) as pool:
        run_jobs([*scan, exchange, *probes], None, submit, merged.append)
    assert sorted(started[:3]) == ["scan0", "scan1", "scan2"]
    assert started[3] == "exchange"
    assert sorted(started[4:]) == ["probe0", "probe1", "probe2"]
    # absorb saw each pooled job's result exactly once.
    assert sorted(merged, key=id) == sorted(scan + probes, key=id)
    run_jobs([], None, submit, merged.append)  # no jobs: returns at once
