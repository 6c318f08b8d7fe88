"""Pluggable scheduling backends for the physical engine.

A backend receives a compiled operator tree and an
:class:`~repro.engine.context.ExecutionContext` and decides *when and
where* each per-(operator, partition) task runs; the operators decide
*what* each task does.  Tasks account into a recorder
(:class:`~repro.engine.context.ContextDelta`): the query's context itself
when tasks run on the calling thread, a fresh one per pooled job
otherwise, merged back on the calling thread when the job completes.
Merging is commutative (and join events are flushed in deterministic
order by the context), so any schedule that respects the task
dependencies produces identical rows and identical
:class:`~repro.query.cost.ExecutionStats`.

A plan's dataflow is declared once, as slots.  :func:`serial_steps`
yields every task in serial order; :func:`task_slots` says which
:class:`Slot` a task writes (an output partition, a prepare state, or an
exchange state) and which it reads; :func:`build_task_graph` derives the
dependencies — a task waits for the writers of the slots it reads, and
for nothing else.  The same slots are the unit of data movement: the
process pool ships the values a job reads into a worker
(:class:`TaskPayload`) and the values others read back out
(:class:`TaskResult`), through :func:`read_slot`/:func:`write_slot`.

:class:`SerialBackend` runs :func:`serial_steps` front to back on the
calling thread and builds no graph — bitwise-identical to the old
monolithic interpreter.  The two pools contract the graph into fused jobs
(:func:`fuse_jobs`) and hand them to the one scheduling loop,
:func:`run_jobs`; they differ only in what submitting a job means.
:class:`ThreadPoolBackend` runs a job on a shared thread pool
(concurrency without parallelism: CPython threads cannot speed up
pure-Python row loops).  :class:`ProcessPoolBackend` ships it to a forked
worker process for true multicore execution; inter-stage rows route
back through the coordinator.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from repro.engine.context import ContextDelta, ExecutionContext, TraceEvent
from repro.obs.metrics import TIME_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.operators import PhysicalOperator


class Backend:
    """Schedules the tasks of a compiled physical plan."""

    name = "backend"

    def run(self, root: PhysicalOperator, ctx: ExecutionContext) -> None:
        """Execute every task of the tree rooted at *root*."""
        raise NotImplementedError

    def close(self) -> None:
        """Release scheduler resources (idempotent; optional)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_step(
    ctx: ContextDelta, op: PhysicalOperator, phase: str, index: int
) -> None:
    """Run one task of *op*, accounting into the recorder *ctx*.

    With a trace hook installed the task is timed and reported to it.
    """
    if phase == "prepare":
        node_id, fn = index, op.prepare_partition
    elif phase == "exchange":
        node_id, fn = None, op.exchange
    else:
        node_id, fn = index, op.run_partition
    args = (ctx,) if node_id is None else (ctx, index)
    if ctx.trace is None:
        fn(*args)
        return
    started = time.perf_counter()
    fn(*args)
    elapsed = time.perf_counter() - started
    if multiprocessing.current_process().name == "MainProcess":
        worker = threading.current_thread().name
    else:
        worker = f"pid:{os.getpid()}"
    ctx.metrics.inc(f"engine.tasks.{phase}")
    ctx.metrics.observe("time.task_seconds", elapsed, TIME_BUCKETS)
    ctx.record_trace(
        TraceEvent(op.op_id, op.label, phase, node_id, elapsed, worker)
    )


# --------------------------------------------------------------------------
# The dataflow declaration: tasks and the slots they read and write
# --------------------------------------------------------------------------


def serial_steps(
    root: PhysicalOperator,
) -> Iterator[tuple[PhysicalOperator, str, int]]:
    """Every task of the plan as ``(op, phase, index)``, in serial order.

    Per operator in post-order: prepares ascending, exchange, output
    partitions ascending — exactly the old monolithic interpreter's loop
    structure, so running the steps front to back *is* serial execution,
    and the order is a topological order of the task graph.
    """
    for op in root.walk():
        if op.barrier:
            for p in range(op.prepare_count):
                yield op, "prepare", p
            yield op, "exchange", 0
        for p in range(op.output_count):
            yield op, "partition", p


class Slot(NamedTuple):
    """Address of one piece of task state in the operator tree.

    ``kind`` is ``"part"`` (output partition ``index``), ``"prep"``
    (what ``prepare_partition(index)`` left), or ``"exch"`` (what
    ``exchange()`` left, index 0).
    """

    kind: str
    op_id: int
    index: int


def task_slots(
    op: PhysicalOperator, phase: str, index: int
) -> tuple[Slot, list[Slot]]:
    """The slot a task writes and the slots it reads.

    * ``prepare_partition(p)`` reads partition ``p`` of every input
      (partition 0 of a single-copy input);
    * ``exchange()`` reads every own prepare state and *all* partitions
      of all inputs (broadcast ships whole relations, a gather collects
      them) and of the operators it declares in ``after``;
    * ``run_partition(p)`` reads the exchange state if the operator has
      one, and partition ``p`` of every input if the operator says its
      partition tasks read their inputs.

    A task writes one slot.  The one exception keeps the dependencies
    true: a broadcast join's exchange that finds the kept side a single
    copy stores the whole output itself, and the partition tasks — the
    declared writers, which wait for that exchange — are then no-ops.
    """

    def inputs(p: int) -> list[Slot]:
        return [
            Slot("part", child.op_id, p if child.output_count > 1 else 0)
            for child in op.inputs
        ]

    if phase == "prepare":
        return Slot("prep", op.op_id, index), inputs(index)
    if phase == "exchange":
        return Slot("exch", op.op_id, 0), [
            Slot("prep", op.op_id, p) for p in range(op.prepare_count)
        ] + [
            Slot("part", child.op_id, p)
            for child in (*op.inputs, *op.after)
            for p in range(child.output_count)
        ]
    reads = [Slot("exch", op.op_id, 0)] if op.barrier else []
    if op.partition_reads_inputs:
        reads += inputs(index)
    return Slot("part", op.op_id, index), reads


def read_slot(ops: dict[int, PhysicalOperator], slot: Slot) -> object:
    """Fetch the current value of *slot* from the operator tree."""
    op = ops[slot.op_id]
    if slot.kind == "part":
        return op.partition_batch(slot.index)
    if slot.kind == "prep":
        return op.prepared[slot.index]
    return op.exchanged


def write_slot(
    ops: dict[int, PhysicalOperator], slot: Slot, value: object
) -> None:
    """Install *value* into *slot* of the operator tree."""
    op = ops[slot.op_id]
    if slot.kind == "part":
        op.store_batch(slot.index, value)
    elif slot.kind == "prep":
        op.prepared[slot.index] = value
    else:
        op.exchanged = value


class EngineTask:
    """One schedulable unit: an operator phase on one partition."""

    __slots__ = (
        "op", "phase", "index", "order", "writes", "reads",
        "deps", "dependents",
    )

    def __init__(
        self, op: PhysicalOperator, phase: str, index: int, order: int
    ) -> None:
        self.op = op
        self.phase = phase  #: "prepare" | "exchange" | "partition"
        self.index = index
        self.order = order  #: position in serial order
        self.writes, self.reads = task_slots(op, phase, index)
        #: The writers of ``reads``, and the tasks that read ``writes``.
        self.deps: list["EngineTask"] = []
        self.dependents: list["EngineTask"] = []

    def run(self, ctx: ContextDelta) -> None:
        """Execute this task, accounting into the recorder *ctx*."""
        run_step(ctx, self.op, self.phase, self.index)


def build_task_graph(root: PhysicalOperator) -> list[EngineTask]:
    """The task DAG of the plan rooted at *root*, in serial order.

    A task depends on the writers of the slots it reads; serial order
    puts every writer before its readers.
    """
    tasks: list[EngineTask] = []
    writer: dict[Slot, EngineTask] = {}
    for order, step in enumerate(serial_steps(root)):
        task = EngineTask(*step, order)
        for slot in task.reads:
            dep = writer[slot]
            task.deps.append(dep)
            dep.dependents.append(task)
        writer[task.writes] = task
        tasks.append(task)
    return tasks


# --------------------------------------------------------------------------
# Serial execution
# --------------------------------------------------------------------------


class SerialBackend(Backend):
    """Runs every task on the calling thread, in serial order.

    Nothing is scheduled, so no task graph is built: the steps retrace
    the interpreter's loops exactly, and results and stats are
    bitwise-identical to the pre-engine executor.
    """

    name = "serial"

    def run(self, root: PhysicalOperator, ctx: ExecutionContext) -> None:
        for op, phase, index in serial_steps(root):
            run_step(ctx, op, phase, index)


# --------------------------------------------------------------------------
# Pooled execution: fused jobs and the one scheduling loop
# --------------------------------------------------------------------------


class _Job:
    """A fused group of tasks scheduled as one unit."""

    __slots__ = ("steps", "remote", "dependents", "remaining", "exports")

    def __init__(self, steps: list[EngineTask], remote: bool) -> None:
        self.steps = steps
        #: Whether the job may run off the calling thread (in a pool).
        self.remote = remote
        self.dependents: list["_Job"] = []
        self.remaining = 0  #: predecessor jobs not yet complete
        #: Steps whose output a task outside this job (or nobody: the
        #: root) reads.
        self.exports: list[EngineTask] = []

    def run(self, ctx: ContextDelta) -> ContextDelta:
        """Run the steps in order, accounting into *ctx*; returns it."""
        for task in self.steps:
            task.run(ctx)
        return ctx


def fuse_jobs(tasks: list[EngineTask]) -> list[_Job]:
    """Contract the task DAG into jobs that minimise coordinator traffic.

    A producer task merges into its consumer's job when both are
    remote-eligible and *every* reader of the producer's output lives in
    one of the two jobs — then the rows flow job-locally (through the
    forked operator tree, in a worker process) instead of round-tripping
    through the coordinator, and a thread pool pays one hand-off per
    chain instead of one per task.  Per-partition pipeline chains (scan →
    filter → aggregate-prepare, or both join inputs plus the probe)
    collapse into single jobs this way; exchange barriers stay
    coordinator-side and bound the contraction.
    """
    job_of: dict[int, _Job] = {}
    jobs: list[_Job] = []
    for task in tasks:
        job = _Job([task], task.op.remote_eligible(task.phase))
        job_of[id(task)] = job
        jobs.append(job)
    changed = True
    while changed:
        changed = False
        for task in tasks:
            consumer = job_of[id(task)]
            if not consumer.remote:
                continue
            for dep in task.deps:
                producer = job_of[id(dep)]
                if producer is consumer or not producer.remote:
                    continue
                if all(
                    job_of[id(reader)] in (consumer, producer)
                    for step in producer.steps
                    for reader in step.dependents
                ):
                    consumer.steps.extend(producer.steps)
                    for step in producer.steps:
                        job_of[id(step)] = consumer
                    producer.steps = []
                    changed = True
    live = [job for job in jobs if job.steps]
    for job in live:
        # Serial order is a topological order of the whole graph, so it
        # is one for any subset.
        job.steps.sort(key=lambda task: task.order)
        predecessors: dict[int, _Job] = {}
        for step in job.steps:
            for dep in step.deps:
                producer = job_of[id(dep)]
                if producer is not job:
                    predecessors[id(producer)] = producer
        job.remaining = len(predecessors)
        for producer in predecessors.values():
            producer.dependents.append(job)
        job.exports = [
            step
            for step in job.steps
            if not step.dependents
            or any(job_of[id(reader)] is not job for reader in step.dependents)
        ]
    return live


def run_jobs(
    jobs: Iterable[_Job],
    ctx: ExecutionContext,
    submit: Callable[[_Job], "Future | None"],
    absorb: Callable[[object], None],
) -> None:
    """The scheduling loop of every pooled backend.

    A job starts when its last predecessor completes.  One that may
    leave the calling thread is offered to *submit*; if that returns a
    future, the future's result goes to *absorb* when it finishes.  Every
    other job — exchanges are coordinator work by design — runs here and
    now, accounting straight into *ctx*.  Everything but the submitted
    work itself — both callbacks, every recorder merge, every trace-hook
    call — happens on the calling thread, one at a time, so nothing here
    takes a lock.

    After the first failure (of an inline job, a submitted one, *submit*
    or *absorb*) nothing new starts, but everything in flight is awaited
    before that error is re-raised: a failed query never leaves
    stragglers mutating operator state while the pool serves the next.
    """
    ready = deque(job for job in jobs if not job.remaining)
    inflight: dict[Future, _Job] = {}
    error: BaseException | None = None

    def release(job: _Job) -> None:
        for dependent in job.dependents:
            dependent.remaining -= 1
            if not dependent.remaining:
                ready.append(dependent)

    while True:
        while ready and error is None:
            job = ready.popleft()
            try:
                future = submit(job) if job.remote else None
                if future is None:
                    job.run(ctx)
                    release(job)
                else:
                    inflight[future] = job
            except BaseException as exc:  # broken pool, pickling, the job
                error = exc
        if not inflight:
            break
        finished, _ = wait(inflight, return_when=FIRST_COMPLETED)
        for future in finished:
            job = inflight.pop(future)
            try:
                absorb(future.result())
                release(job)
            except BaseException as exc:
                if error is None:
                    error = exc
    if error is not None:
        raise error


class ThreadPoolBackend(Backend):
    """Runs independent partition chains concurrently between barriers.

    Feeds the fused jobs of the task DAG to a :class:`ThreadPoolExecutor`
    through :func:`run_jobs`: a job is submitted the moment its last
    predecessor completes, so partition 3 of a filter can run while
    partition 0 of the downstream join is already probing — there is no
    per-operator barrier, only the exchange barriers the plan itself
    demands.  Each pooled job accounts into its own recorder, merged into
    the query's context on the calling thread when the job completes;
    the exchanges themselves run on the calling thread.

    The pool is created lazily and reused across queries; ``close()``
    shuts it down.
    """

    name = "thread_pool"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers or min(32, (os.cpu_count() or 2) + 4)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-engine",
                )
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def run(self, root: PhysicalOperator, ctx: ExecutionContext) -> None:
        pool = self._ensure_pool()
        run_jobs(
            fuse_jobs(build_task_graph(root)),
            ctx,
            lambda job: pool.submit(job.run, ctx.delta()),
            ctx.merge_delta,
        )


# --------------------------------------------------------------------------
# Process pool: true multicore execution
# --------------------------------------------------------------------------


class TaskPayload(NamedTuple):
    """Message shipped to a worker: what to run and what it reads.

    Attributes:
        steps: ``(op_id, phase, index)`` triples, in dependency order.
        preloads: slot values the steps read that were produced outside
            this job (the worker installs them before running).
        exports: slots whose values must ship back to the coordinator
            because tasks outside this job read them.
    """

    steps: tuple[tuple[int, str, int], ...]
    preloads: tuple[tuple[Slot, object], ...]
    exports: tuple[Slot, ...]


class TaskResult(NamedTuple):
    """Message shipped back: exported slot values plus the job's recorder."""

    exports: tuple[tuple[Slot, object], ...]
    delta: ContextDelta


#: Fork-inherited worker state: (operators by id, node count, trace flag).
#: Set by the coordinator immediately before it creates a worker pool so
#: the forked children inherit the compiled operator tree (closures and
#: all) without pickling it.
_WORKER_STATE: tuple[dict[int, "PhysicalOperator"], int, bool] | None = None

#: Serialises process-backend runs: the fork-inherited global above is
#: per-query state.
_WORKER_STATE_LOCK = threading.Lock()


def _execute_payload(payload: TaskPayload) -> TaskResult:
    """Worker-side entry point: run one fused job against the forked tree."""
    assert _WORKER_STATE is not None, "worker forked without engine state"
    ops, node_count, collect_trace = _WORKER_STATE
    delta = ContextDelta(node_count, collect_trace=collect_trace)
    for slot, value in payload.preloads:
        write_slot(ops, slot, value)
    for op_id, phase, index in payload.steps:
        run_step(delta, ops[op_id], phase, index)
    exports = tuple((slot, read_slot(ops, slot)) for slot in payload.exports)
    return TaskResult(exports, delta)


def _payload(ops: dict[int, PhysicalOperator], job: _Job) -> TaskPayload:
    """What a worker needs to run *job*, read off the coordinator's tree."""
    produced = {task.writes for task in job.steps}
    preloads = []
    for task in job.steps:
        for slot in task.reads:
            if slot not in produced:
                produced.add(slot)  # dedupe repeat reads
                preloads.append((slot, read_slot(ops, slot)))
    return TaskPayload(
        steps=tuple(
            (task.op.op_id, task.phase, task.index) for task in job.steps
        ),
        preloads=tuple(preloads),
        exports=tuple(task.writes for task in job.exports),
    )


class ProcessPoolBackend(Backend):
    """Runs fused per-partition task chains in worker processes.

    The only backend that actually parallelises the pure-Python row loops
    (thread backends serialise on the GIL).  Per query it:

    1. builds the task DAG and contracts it into jobs (:func:`fuse_jobs`)
       so whole per-partition pipelines execute worker-locally;
    2. forks a worker pool *after* compiling the plan — children inherit
       the operator tree and base-table partitions copy-on-write, so only
       inter-stage rows (a shuffle sender's routed batch and index lists)
       and compact aggregation states cross process boundaries, always
       via the coordinator;
    3. drives the jobs through :func:`run_jobs`: a worker job ships as a
       :class:`TaskPayload`, and its :class:`TaskResult` installs the
       exported slots and merges the recorder into the query's context —
       commutatively, so stats are identical to serial execution by
       construction.

    Exchange barriers, and any job whose operator state must stay on the
    coordinator, run inline on the coordinator.  Platforms without the
    ``fork`` start method (workers must inherit the compiled tree, which
    holds bound predicate closures) degrade to serial in-process
    execution.  The pool lives for one query, so a failed query cannot
    poison the next.
    """

    name = "process_pool"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers or (os.cpu_count() or 2)

    @staticmethod
    def fork_available() -> bool:
        """True if this platform supports fork-based worker pools."""
        return "fork" in multiprocessing.get_all_start_methods()

    def run(self, root: PhysicalOperator, ctx: ExecutionContext) -> None:
        global _WORKER_STATE
        if self.max_workers < 2 or not self.fork_available():
            SerialBackend().run(root, ctx)
            return
        jobs = fuse_jobs(build_task_graph(root))
        ops = {op.op_id: op for op in root.walk()}

        def submit(job: _Job) -> Future | None:
            if all(
                task.op.remote_ready(task.phase, task.index)
                for task in job.steps
            ):
                return pool.submit(_execute_payload, _payload(ops, job))
            return None

        def absorb(result: TaskResult) -> None:
            for slot, value in result.exports:
                write_slot(ops, slot, value)
            ctx.merge_delta(result.delta)

        with _WORKER_STATE_LOCK:
            _WORKER_STATE = (ops, ctx.node_count, ctx.trace is not None)
            pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context("fork"),
            )
            try:
                run_jobs(jobs, ctx, submit, absorb)
            finally:
                pool.shutdown(wait=True)
                _WORKER_STATE = None


# --------------------------------------------------------------------------
# Backend selection
# --------------------------------------------------------------------------


#: Backend name -> constructor, for string-based selection on the cluster
#: facade and the bench harness.
BACKENDS: dict[str, Callable[..., Backend]] = {
    "serial": SerialBackend,
    "thread": ThreadPoolBackend,
    "thread_pool": ThreadPoolBackend,
    "process": ProcessPoolBackend,
    "process_pool": ProcessPoolBackend,
}


def make_backend(
    spec: "Backend | str | None", max_workers: int | None = None
) -> Backend | None:
    """Resolve *spec* into a backend instance.

    Accepts an existing :class:`Backend` (returned as-is), a name from
    :data:`BACKENDS`, or ``None`` (returned as-is so callers can apply
    their own default).
    """
    if spec is None or isinstance(spec, Backend):
        return spec
    try:
        factory = BACKENDS[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown engine backend {spec!r}; expected one of "
            f"{sorted(BACKENDS)} or a Backend instance"
        ) from None
    if factory is SerialBackend:
        return factory()
    return factory(max_workers=max_workers)
