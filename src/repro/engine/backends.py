"""Pluggable scheduling backends for the physical engine.

A backend receives a compiled operator tree and an
:class:`~repro.engine.context.ExecutionContext` and decides *when and
where* each per-(operator, partition) task runs; the operators decide
*what* each task does.  Tasks account into a recorder
(:class:`~repro.engine.context.ContextDelta`): the query's context itself
when tasks run one at a time on the calling thread, a fresh one per task
or worker job otherwise, merged back on completion.  Merging is
commutative (and join events are flushed in deterministic order by the
context), so any schedule that respects the task dependencies produces
identical rows and identical :class:`~repro.query.cost.ExecutionStats`.

All backends share one task DAG, built by :func:`build_task_graph`.
Dependencies, per operator:

* pipeline operator, output partition ``p`` → partition ``p`` of every
  input (partition 0 for single-copy inputs);
* barrier operator: ``prepare_partition(p)`` → partition ``p`` of the
  input; ``exchange()`` → all own prepare tasks and *all* partitions of
  all inputs; ``run_partition(p)`` → ``exchange()``.

Each task additionally carries explicit data-flow metadata: the
:class:`Slot` it writes (an output partition, a prepare state, or an
exchange state) and the slots it reads.  In-process backends ignore the
slots — tasks read and write the shared operator tree directly.  The
process-pool backend uses them to build :class:`TaskPayload` messages:
the slot values a job must carry into a worker, and the slot values the
worker must ship back, together with the recorder of everything it
accounted.

:class:`SerialBackend` executes the tasks in plan post-order on the
calling thread — bitwise-identical to the old monolithic interpreter.
:class:`ThreadPoolBackend` runs independent partitions concurrently
between exchange barriers on a shared thread pool (concurrency without
parallelism: CPython threads cannot speed up pure-Python row loops).
:class:`ProcessPoolBackend` runs fused per-partition task chains in
worker processes for true multicore execution; inter-stage row buckets
route back through the coordinator.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import TYPE_CHECKING, Callable, NamedTuple

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
# The shared task DAG
# --------------------------------------------------------------------------


class Slot(NamedTuple):
    """Address of one piece of task state in the operator tree.

    ``kind`` is ``"part"`` (output partition ``index``), ``"prep"``
    (prepare state ``index``), or ``"exch"`` (exchange state, index 0).
    Slots are the unit of data movement for out-of-process backends.
    """

    kind: str
    op_id: int
    index: int


def read_slot(ops: dict[int, PhysicalOperator], slot: Slot) -> object:
    """Fetch the current value of *slot* from the operator tree."""
    op = ops[slot.op_id]
    if slot.kind == "part":
        return op.partition_batch(slot.index)
    if slot.kind == "prep":
        return op.prepare_state(slot.index)
    return op.exchange_state()


def write_slot(
    ops: dict[int, PhysicalOperator], slot: Slot, value: object
) -> None:
    """Install *value* into *slot* of the operator tree."""
    op = ops[slot.op_id]
    if slot.kind == "part":
        op.store_batch(slot.index, value)
    elif slot.kind == "prep":
        op.set_prepare_state(slot.index, value)
    else:
        op.set_exchange_state(value)


class EngineTask:
    """One schedulable unit: an operator phase on one partition."""

    __slots__ = (
        "op", "phase", "index", "order", "writes", "reads",
        "dependents", "deps", "remaining",
    )

    def __init__(
        self,
        op: PhysicalOperator,
        phase: str,
        index: int,
        order: int,
        writes: Slot,
        reads: list[Slot],
    ) -> None:
        self.op = op
        self.phase = phase  #: "prepare" | "exchange" | "partition"
        self.index = index
        self.order = order  #: position in serial (post-)order
        self.writes = writes
        self.reads = reads
        self.dependents: list["EngineTask"] = []
        self.deps: list["EngineTask"] = []
        self.remaining = 0

    def run(self, ctx: ContextDelta) -> None:
        """Execute this task, accounting into the recorder *ctx*."""
        run_step(ctx, self.op, self.phase, self.index)


def _link(dep: EngineTask, task: EngineTask) -> None:
    dep.dependents.append(task)
    task.deps.append(dep)
    task.remaining += 1


def build_task_graph(root: PhysicalOperator) -> list[EngineTask]:
    """Build the task DAG of the plan rooted at *root*.

    The returned list is in serial order — per operator in post-order:
    prepares ascending, exchange, output partitions ascending — which is
    exactly the old monolithic interpreter's loop structure, so executing
    the list front to back *is* serial execution.
    """
    tasks: list[EngineTask] = []
    #: Per operator, the dependency anchors downstream consumers wait on:
    #: one task per output partition.
    anchors: dict[int, list[EngineTask]] = {}

    def add(
        op: PhysicalOperator, phase: str, index: int,
        writes: Slot, reads: list[Slot],
    ) -> EngineTask:
        task = EngineTask(op, phase, index, len(tasks), writes, reads)
        tasks.append(task)
        return task

    def child_slot(child: PhysicalOperator, p: int) -> Slot:
        return Slot("part", child.op_id, p if child.output_count > 1 else 0)

    for op in root.walk():
        if op.barrier:
            prepares = [
                add(
                    op, "prepare", p,
                    Slot("prep", op.op_id, p),
                    [child_slot(child, p) for child in op.inputs],
                )
                for p in range(op.prepare_count)
            ]
            for p, task in enumerate(prepares):
                for child in op.inputs:
                    slot = p if child.output_count > 1 else 0
                    _link(anchors[child.op_id][slot], task)
            exchange = add(
                op, "exchange", 0,
                Slot("exch", op.op_id, 0),
                [task.writes for task in prepares]
                + [
                    child_slot(child, p)
                    for child in op.inputs
                    for p in range(child.output_count)
                ],
            )
            for task in prepares:
                _link(task, exchange)
            # The exchange consumes complete inputs (broadcast ships
            # whole relations, repartition merges every bucket).
            for child in op.inputs:
                for anchor in anchors[child.op_id]:
                    _link(anchor, exchange)
            outs = []
            for p in range(op.output_count):
                reads = [exchange.writes]
                if op.partition_reads_inputs:
                    reads += [child_slot(child, p) for child in op.inputs]
                task = add(op, "partition", p, Slot("part", op.op_id, p), reads)
                _link(exchange, task)
                outs.append(task)
            anchors[op.op_id] = outs
        else:
            outs = []
            for p in range(op.output_count):
                task = add(
                    op, "partition", p,
                    Slot("part", op.op_id, p),
                    [child_slot(child, p) for child in op.inputs],
                )
                for child in op.inputs:
                    slot = p if child.output_count > 1 else 0
                    _link(anchors[child.op_id][slot], task)
                outs.append(task)
            anchors[op.op_id] = outs
    return tasks


# --------------------------------------------------------------------------
# In-process backends
# --------------------------------------------------------------------------


class SerialBackend(Backend):
    """Runs every task on the calling thread, in plan post-order.

    The task order — per operator: prepares ascending, exchange, output
    partitions ascending — retraces the interpreter's loops exactly, so
    results and stats are bitwise-identical to the pre-engine executor.
    """

    name = "serial"

    def run(self, root: PhysicalOperator, ctx: ExecutionContext) -> None:
        for task in build_task_graph(root):
            task.run(ctx)


class ThreadPoolBackend(Backend):
    """Runs independent partition tasks concurrently between barriers.

    Feeds ready tasks of the shared DAG to a :class:`ThreadPoolExecutor`;
    a task is submitted the moment its last dependency completes, so
    partition 3 of a filter can run while partition 0 of the downstream
    join is already probing — there is no per-operator barrier, only the
    exchange barriers the plan itself demands.

    On task failure no further tasks are scheduled, but every already
    submitted task is awaited before the error is re-raised — a failed
    query never leaves stragglers mutating operator state while the pool
    serves the next query.

    Each task accounts into its own recorder, merged into the query's
    context under the scheduler lock when the task completes — the only
    lock on the accounting path.

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
        tasks = build_task_graph(root)
        if not tasks:
            return
        pool = self._ensure_pool()
        lock = threading.Lock()
        done = threading.Event()
        #: pending: tasks not yet finished; inflight: tasks submitted to
        #: the pool and not yet finished.  ``done`` fires when all tasks
        #: finished, or — after a failure — when the last in-flight task
        #: drained (unreached dependents are abandoned, never started).
        state: dict[str, object] = {
            "pending": len(tasks), "inflight": 0, "error": None,
        }

        def execute(task: EngineTask) -> None:
            recorder = ctx.delta()
            try:
                task.run(recorder)
                with lock:  # also serialises the trace hook's calls
                    ctx.merge_delta(recorder)
            except BaseException as error:  # propagate to the caller
                with lock:
                    if state["error"] is None:
                        state["error"] = error
                    state["inflight"] = int(state["inflight"]) - 1
                    if state["inflight"] == 0:
                        done.set()
                return
            ready: list[EngineTask] = []
            with lock:
                state["pending"] = int(state["pending"]) - 1
                state["inflight"] = int(state["inflight"]) - 1
                if state["pending"] == 0:
                    done.set()
                elif state["error"] is None:
                    for dependent in task.dependents:
                        dependent.remaining -= 1
                        if dependent.remaining == 0:
                            ready.append(dependent)
                    state["inflight"] = int(state["inflight"]) + len(ready)
                elif state["inflight"] == 0:
                    done.set()
            for next_task in ready:
                pool.submit(execute, next_task)

        roots = [task for task in tasks if task.remaining == 0]
        with lock:
            state["inflight"] = len(roots)
        for task in roots:
            pool.submit(execute, task)
        done.wait()
        error = state["error"]
        if error is not None:
            raise error  # type: ignore[misc]


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


class _Job:
    """A fused group of tasks scheduled as one unit."""

    __slots__ = ("steps", "remote", "dependents", "remaining", "exports")

    def __init__(self, steps: list[EngineTask], remote: bool) -> None:
        self.steps = steps
        self.remote = remote
        self.dependents: list["_Job"] = []
        self.remaining = 0
        self.exports: list[EngineTask] = []


def fuse_jobs(tasks: list[EngineTask]) -> list[_Job]:
    """Contract the task DAG into jobs that minimise coordinator traffic.

    A producer task merges into its consumer's job when both are
    remote-eligible and *every* reader of the producer's output lives in
    one of the two jobs — then the rows flow worker-locally through the
    forked operator tree instead of round-tripping through the
    coordinator.  Per-partition pipeline chains (scan → filter →
    aggregate-prepare, or both join inputs plus the probe) collapse into
    single jobs this way; exchange barriers stay coordinator-side and
    bound the contraction.
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


class ProcessPoolBackend(Backend):
    """Runs fused per-partition task chains in worker processes.

    The only backend that actually parallelises the pure-Python row loops
    (thread backends serialise on the GIL).  Per query it:

    1. builds the shared task DAG and contracts it into jobs
       (:func:`fuse_jobs`) so whole per-partition pipelines execute
       worker-locally;
    2. forks a worker pool *after* compiling the plan — children inherit
       the operator tree and base-table partitions copy-on-write, so only
       inter-stage row buckets and compact aggregation states cross
       process boundaries, always via the coordinator;
    3. hands every worker job a :class:`TaskPayload` and merges the
       returned recorder into the query's context — commutatively, so
       stats are identical to serial execution by construction.

    Exchange barriers, and any job whose operator state must stay on the
    coordinator, run inline on the coordinator.  Platforms without the
    ``fork`` start method (workers must inherit the compiled tree, which
    holds bound predicate closures) degrade to serial in-process
    execution.  On failure, in-flight jobs are drained before the error
    is re-raised, and the next query gets a fresh pool.
    """

    name = "process_pool"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers or (os.cpu_count() or 2)

    @staticmethod
    def fork_available() -> bool:
        """True if this platform supports fork-based worker pools."""
        return "fork" in multiprocessing.get_all_start_methods()

    def run(self, root: PhysicalOperator, ctx: ExecutionContext) -> None:
        tasks = build_task_graph(root)
        if not tasks:
            return
        if self.max_workers < 2 or not self.fork_available():
            for task in tasks:
                task.run(ctx)
            return
        with _WORKER_STATE_LOCK:
            self._run_pooled(root, ctx, tasks)

    def _run_pooled(
        self,
        root: PhysicalOperator,
        ctx: ExecutionContext,
        tasks: list[EngineTask],
    ) -> None:
        global _WORKER_STATE
        ops = {op.op_id: op for op in root.walk()}
        jobs = fuse_jobs(tasks)
        _WORKER_STATE = (ops, ctx.node_count, ctx.trace is not None)
        pool = ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=multiprocessing.get_context("fork"),
        )
        error: BaseException | None = None
        try:
            ready = deque(job for job in jobs if job.remaining == 0)
            futures: dict = {}
            while ready or futures:
                while ready and error is None:
                    job = ready.popleft()
                    if job.remote and all(
                        task.op.remote_ready(task.phase, task.index)
                        for task in job.steps
                    ):
                        try:
                            payload = self._payload(ops, job)
                            futures[pool.submit(_execute_payload, payload)] = job
                        except BaseException as exc:  # broken pool, pickling
                            error = exc
                            break
                        continue
                    try:
                        for task in job.steps:
                            task.run(ctx)
                    except BaseException as exc:
                        error = exc
                        break
                    ready.extend(_complete(job))
                if not futures:
                    break
                finished, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in finished:
                    job = futures.pop(future)
                    try:
                        result: TaskResult = future.result()
                    except BaseException as exc:
                        if error is None:
                            error = exc
                        continue
                    for slot, value in result.exports:
                        write_slot(ops, slot, value)
                    ctx.merge_delta(result.delta)
                    if error is None:
                        ready.extend(_complete(job))
        finally:
            pool.shutdown(wait=True)
            _WORKER_STATE = None
        if error is not None:
            raise error

    @staticmethod
    def _payload(ops: dict[int, PhysicalOperator], job: _Job) -> TaskPayload:
        produced = {task.writes for task in job.steps}
        preloads = []
        for task in job.steps:
            for slot in task.reads:
                if slot in produced:
                    continue
                produced.add(slot)  # dedupe repeat reads
                preloads.append((slot, read_slot(ops, slot)))
        return TaskPayload(
            steps=tuple(
                (task.op.op_id, task.phase, task.index) for task in job.steps
            ),
            preloads=tuple(preloads),
            exports=tuple(task.writes for task in job.exports),
        )


def _complete(job: _Job) -> list[_Job]:
    """Mark *job* finished; return the dependents that became ready."""
    ready = []
    for dependent in job.dependents:
        dependent.remaining -= 1
        if dependent.remaining == 0:
            ready.append(dependent)
    return ready


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
