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
for nothing else.

:class:`SerialBackend` runs :func:`serial_steps` front to back on the
calling thread and builds no graph — bitwise-identical to the old
monolithic interpreter.  :class:`ThreadPoolBackend` contracts the graph
into fused jobs (:func:`fuse_jobs`) and hands them to the scheduling loop,
:func:`run_jobs`, which runs each job on a shared thread pool
(concurrency without parallelism: CPython threads cannot speed up
pure-Python row loops).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
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
    worker = threading.current_thread().name
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

    __slots__ = ("steps", "remote", "dependents", "remaining")

    def __init__(self, steps: list[EngineTask], remote: bool) -> None:
        self.steps = steps
        #: Whether the job may run off the calling thread (in a pool).
        self.remote = remote
        self.dependents: list["_Job"] = []
        self.remaining = 0  #: predecessor jobs not yet complete

    def run(self, ctx: ContextDelta) -> ContextDelta:
        """Run the steps in order, accounting into *ctx*; returns it."""
        for task in self.steps:
            task.run(ctx)
        return ctx


def fuse_jobs(tasks: list[EngineTask]) -> list[_Job]:
    """Contract the task DAG into jobs that minimise pool hand-offs.

    A producer task merges into its consumer's job when both are
    remote-eligible and *every* reader of the producer's output lives in
    one of the two jobs — then the pool pays one hand-off per chain
    instead of one per task.  Per-partition pipeline chains (scan →
    filter → aggregate-prepare, or both join inputs plus the probe)
    collapse into single jobs this way; exchange barriers stay on the
    calling thread and bound the contraction.
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
    return live


def run_jobs(
    jobs: Iterable[_Job],
    ctx: ExecutionContext,
    submit: Callable[[_Job], Future],
    absorb: Callable[[object], None],
) -> None:
    """The scheduling loop of the pooled backend.

    A job starts when its last predecessor completes.  One that may
    leave the calling thread goes to *submit*, and the result of the
    future it returns goes to *absorb* when it finishes.  Every other
    job — exchanges stay on the calling thread by design — runs here and
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
                if job.remote:
                    inflight[submit(job)] = job
                else:
                    job.run(ctx)
                    release(job)
            except BaseException as exc:  # broken pool, the job
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
# Backend selection
# --------------------------------------------------------------------------


#: Backend name -> constructor, for string-based selection on the cluster
#: facade and the bench harness.
BACKENDS: dict[str, Callable[..., Backend]] = {
    "serial": SerialBackend,
    "thread": ThreadPoolBackend,
    "thread_pool": ThreadPoolBackend,
}


def backend_names(text: str) -> tuple[str, ...]:
    """The backend names of a comma-separated list (``"serial,thread"``).

    Raises ValueError on an empty list or a name not in :data:`BACKENDS`,
    so a command line can reject it before any work starts.
    """
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    for name in names or ("",):
        if name not in BACKENDS:
            raise ValueError(
                f"unknown engine backend {name!r}; expected a comma-separated "
                f"list of {', '.join(sorted(BACKENDS))}"
            )
    return names


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
