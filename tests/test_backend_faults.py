"""Backend fault paths: failures propagate, pools survive, traces hold.

Every scheduling backend must behave identically at the edges, not just
on the happy path: an operator raising in any task phase (prepare,
exchange, run_partition — pooled or on the calling thread) propagates the
same exception type to the caller; a failed query leaves no straggler tasks running and the same
backend instance serves the next query; an empty task graph returns
instead of deadlocking (a regression in the thread pool's completion
counting); and trace events stay well-formed under concurrency.
"""

import threading
import time

import pytest

from helpers import BACKENDS, assert_same_rows
from repro.engine import (
    ExecutionContext,
    SerialBackend,
    ThreadPoolBackend,
    backends,
)
from repro.engine.operators import (
    PhysicalAggregate,
    PhysicalGather,
    PhysicalScan,
)
from repro.query import Executor
from repro.sql import sql_to_plan


class BoomError(RuntimeError):
    """Injected operator failure."""


def _boom(self, *args, **kwargs):
    raise BoomError("injected failure")


#: Exercises every task phase: scans (partition), a two-phase aggregate
#: (prepare + exchange), a co-partitioned join, and a gathering order-by.
SQL = (
    "SELECT c.nationkey AS nk, COUNT(*) AS n FROM customer c, orders o "
    "WHERE c.custkey = o.custkey GROUP BY c.nationkey ORDER BY nk"
)

#: Fault site per task phase.  On the thread pool the first two fail
#: on a pool worker, the last two inline on the calling thread (a
#: barrier operator's partition tasks never leave it).
FAULTS = {
    "partition": (PhysicalScan, "run_partition"),
    "prepare": (PhysicalAggregate, "prepare_partition"),
    "exchange": (PhysicalAggregate, "exchange"),
    "coordinator-partition": (PhysicalGather, "run_partition"),
}


class _EmptyRoot:
    """A degenerate plan with no operators (hence no tasks)."""

    op_id = 0

    def walk(self):
        return iter(())


@pytest.mark.parametrize("backend_name", list(BACKENDS))
def test_empty_task_graph_returns(backend_name):
    # Regression: the thread pool's completion event was only set by a
    # finishing task, so zero tasks meant waiting forever.
    backend = BACKENDS[backend_name]()
    finished = threading.Event()

    def run():
        backend.run(_EmptyRoot(), ExecutionContext(4))
        finished.set()

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=10)
    try:
        assert finished.is_set(), (
            f"{backend_name} backend hangs on an empty task graph"
        )
    finally:
        backend.close()


@pytest.mark.parametrize("phase", list(FAULTS))
@pytest.mark.parametrize("backend_name", list(BACKENDS))
def test_operator_failure_propagates_and_pool_survives(
    shop_db, shop_pref, backend_name, phase, monkeypatch
):
    partitioned, _config = shop_pref
    backend = BACKENDS[backend_name]()
    try:
        executor = Executor(partitioned, backend=backend)
        plan = sql_to_plan(SQL, shop_db.schema)
        reference = executor.execute(plan).rows
        cls, method = FAULTS[phase]
        with monkeypatch.context() as patch:
            patch.setattr(cls, method, _boom)
            with pytest.raises(BoomError):
                executor.execute(plan)
        # The same backend instance must serve the next query cleanly.
        result = executor.execute(plan)
        assert result.rows == reference
    finally:
        backend.close()


def test_thread_pool_drains_inflight_before_raising(
    shop_db, shop_pref, monkeypatch
):
    # The old scheduler re-raised while sibling tasks were still running
    # on the shared pool; now run() must not return before they drain.
    partitioned, _config = shop_pref
    backend = ThreadPoolBackend(max_workers=4)
    completions = []
    original = PhysicalScan.run_partition

    def flaky(self, ctx, p):
        if p == 0:
            raise BoomError("partition 0 down")
        time.sleep(0.05)
        original(self, ctx, p)
        completions.append(p)

    monkeypatch.setattr(PhysicalScan, "run_partition", flaky)
    plan = sql_to_plan(SQL, shop_db.schema)
    try:
        with pytest.raises(BoomError):
            Executor(partitioned, backend=backend).execute(plan)
        settled = len(completions)
        time.sleep(0.25)
        assert len(completions) == settled, (
            "sibling tasks were still executing after run() raised"
        )
    finally:
        backend.close()


def test_thread_pool_raises_the_first_failure_and_starts_no_later_phase(
    shop_db, shop_pref, monkeypatch
):
    # Two tasks of one pooled phase fail; the later index fails first in
    # time.  The error by index is the one raised, and the phase is the
    # last one that ran.
    partitioned, _config = shop_pref
    original = PhysicalScan.run_partition

    def flaky(self, ctx, p):
        if p in (1, 2):
            time.sleep(0.05 if p == 1 else 0.0)
            raise BoomError(f"partition {p} down")
        original(self, ctx, p)

    started = []
    run_step = backends.run_step

    def recording_run_step(ctx, op, phase, index):
        started.append((op.op_id, phase))
        run_step(ctx, op, phase, index)

    monkeypatch.setattr(PhysicalScan, "run_partition", flaky)
    monkeypatch.setattr(backends, "run_step", recording_run_step)
    plan = sql_to_plan(SQL, shop_db.schema)
    with ThreadPoolBackend(max_workers=4) as backend:
        with pytest.raises(BoomError, match="partition 1 down"):
            Executor(partitioned, backend=backend).execute(plan)
    assert len(started) == 4 and len(set(started)) == 1


@pytest.mark.parametrize("backend_name", ["thread"])
def test_trace_events_well_formed_under_concurrency(
    shop_db, shop_pref, backend_name
):
    partitioned, _config = shop_pref
    plan = sql_to_plan(SQL, shop_db.schema)
    serial_events = []
    serial_result = Executor(
        partitioned, backend=SerialBackend(), trace=serial_events.append
    ).execute(plan)
    backend = BACKENDS[backend_name]()
    events = []
    try:
        result = Executor(
            partitioned, backend=backend, trace=events.append
        ).execute(plan)
    finally:
        backend.close()
    assert_same_rows(result.rows, serial_result.rows)
    # Same multiset of tasks, regardless of scheduling: every task runs
    # exactly once and reports exactly one event.
    assert sorted((e.op_id, e.phase, e.node_id) for e in events) == sorted(
        (e.op_id, e.phase, e.node_id) for e in serial_events
    )
    assert all(e.seconds >= 0.0 for e in events)
    assert all(
        e.phase in {"prepare", "exchange", "partition"} for e in events
    )
    assert all(isinstance(e.label, str) and e.label for e in events)


@pytest.mark.parametrize("backend_name", list(BACKENDS))
def test_raising_trace_hook_fails_the_query(shop_db, shop_pref, backend_name):
    # Concurrent backends hand a task's events to the hook while merging
    # its recorder on completion; a raising hook must fail the query, not
    # strand the scheduler waiting for a completion that never registers.
    partitioned, _config = shop_pref
    plan = sql_to_plan(SQL, shop_db.schema)

    def hook(event):
        raise BoomError("hook down")

    backend = BACKENDS[backend_name]()
    outcome = []

    def run():
        try:
            Executor(partitioned, backend=backend, trace=hook).execute(plan)
        except BoomError as error:
            outcome.append(error)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=20)
    try:
        assert not worker.is_alive(), f"{backend_name} backend hangs"
        assert outcome, "the hook's error was swallowed"
        # The backend instance still serves the next query.
        assert Executor(partitioned, backend=backend).execute(plan).rows
    finally:
        backend.close()
