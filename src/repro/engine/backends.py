"""Scheduling backends for the physical engine.

A backend receives a compiled operator tree and an
:class:`~repro.engine.context.ExecutionContext` and decides *where* each
per-(operator, partition) task runs; the operators decide *what* each
task does.  The schedule is written once, :func:`plan_phases`: the plan's
phases in order, each a number of independent tasks.

:class:`SerialBackend` runs every task on the calling thread and
accounts straight into the context.  :class:`ThreadPoolBackend` runs the
tasks of one phase on a shared thread pool, each into its own recorder
(:class:`~repro.engine.context.ContextDelta`), merged into the context
on the calling thread before the next phase starts.  Merging is
commutative (and join events are flushed in a fixed order by the
context), so both produce identical rows and identical
:class:`~repro.query.cost.ExecutionStats`.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Callable, Iterator

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
# The schedule and the two backends that run it
# --------------------------------------------------------------------------


def plan_phases(
    root: PhysicalOperator,
) -> Iterator[tuple[PhysicalOperator, str, int]]:
    """The plan's schedule, one phase at a time, as ``(op, phase, count)``.

    Per operator in ``root.walk()`` order: a barrier's prepares, then its
    exchange, then the output partitions.  A phase's tasks are
    ``index in range(count)``; every task reads only operators earlier in
    the walk, its own operator's earlier phases and, within its phase,
    its own index — so the tasks of one phase may run in any order, and
    running the phases front to back, indices ascending, is serial
    execution.
    """
    for op in root.walk():
        if op.barrier:
            yield op, "prepare", op.prepare_count
            yield op, "exchange", 1
        yield op, "partition", op.output_count


class SerialBackend(Backend):
    """Runs every task on the calling thread, phase by phase, indices
    ascending."""

    name = "serial"

    def run(self, root: PhysicalOperator, ctx: ExecutionContext) -> None:
        for op, phase, count in plan_phases(root):
            for index in range(count):
                run_step(ctx, op, phase, index)


class ThreadPoolBackend(Backend):
    """Runs the same schedule, handing a phase's tasks to a thread pool.

    A phase runs on the calling thread when it has fewer than two tasks
    or the operator keeps it there (``op.remote_eligible(phase)`` is
    false).  Otherwise each task goes to the pool with its own recorder
    (``ctx.delta()``); the phase ends when all of them have finished, and
    their recorders are merged into *ctx* on the calling thread in index
    order.  If a task failed, the first failure by index is re-raised and
    no later phase starts — a failed query leaves no task running while
    the pool serves the next one.  CPython threads give concurrency, not
    parallelism.

    The pool is created lazily and reused across queries; ``close()``
    shuts it down.
    """

    name = "thread"

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
        for op, phase, count in plan_phases(root):
            if count < 2 or not op.remote_eligible(phase):
                for index in range(count):
                    run_step(ctx, op, phase, index)
                continue
            deltas = [ctx.delta() for _ in range(count)]
            futures = []
            try:
                for index, delta in enumerate(deltas):
                    futures.append(
                        pool.submit(run_step, delta, op, phase, index)
                    )
            finally:
                wait(futures)  # drain before any error leaves the phase
            for future in futures:
                future.result()
            for delta in deltas:
                ctx.merge_delta(delta)


# --------------------------------------------------------------------------
# Backend selection
# --------------------------------------------------------------------------


#: Backend name -> constructor, for string-based selection on the cluster
#: facade and the bench harness.
BACKENDS: dict[str, Callable[..., Backend]] = {
    "serial": SerialBackend,
    "thread": ThreadPoolBackend,
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
