"""``serve_mixed``: SQL text through admission, both caches and the RW lock.

A closed loop — callers are sessions that wait for their reply — of
:data:`CLIENTS` client sessions (the box has two cores) against
``cluster.serve(max_inflight=2, queue_depth=64)``.  It runs in *laps*.
In a lap a client takes :data:`LAP_STEPS` steps, the same in every lap:
the share :data:`HOT_SHARE` of them are the fixed "dashboard" statements
in :data:`HOT` (repeats, so the result cache answers), the rest are the
:data:`TEMPLATES` with a literal no earlier lap used (new text, so both
caches miss and the engine runs).  Before every :data:`WRITE_EVERY` steps
client 0 inserts :data:`WRITE_ROWS` orders, which bumps the epochs of
``orders`` and its PREF referencer ``customer`` and drops their cached
dependents while lineitem-only entries survive.

A lap has a phase for each client working alone and one for all of them
working together.  Alone, a step's time is the server's and nothing
else's, and every lap repeats it, so the end-to-end timings are quiet
times like the other workloads' (:func:`perf_harness.quiet`):
``query_p50_ms``/``query_p90_ms`` over the template steps (the cold
path; a result-cache hit is ``serve.hit_p50_ms``) and ``throughput_ops_s``
over all steps.  Together, answers are checked while writes land beside
reads, and ``serve.together_ops_s`` says what two sessions at once cost.
"""

from __future__ import annotations

import random
import statistics
import threading

from repro.bench import paper_cost_parameters
from repro.cluster import SimulatedCluster
from repro.query.local_executor import LocalExecutor
from repro.query.plan import referenced_tables
from repro.sql.planner import sql_to_plan
from repro.storage.table import Database

from perf_harness import (
    Tracer,
    measure,
    quantile,
    quiet,
    same_rows,
    set_up,
    summary,
)
from perf_tpch import (
    PARTITIONS,
    SPAN_METRICS,
    Accounting,
    design_config,
    generate,
    setup_metrics,
)

SCALE = 0.0015
#: The serial engine backend: each request runs on the server worker that
#: took it.  The default thread backend adds a pool of ``cpu_count() + 4``
#: threads, and more runnable threads than cores measures the scheduler.
BACKEND = "serial"
CLIENTS = 2
#: Statements one client asks in one phase of a lap.
LAP_STEPS = 100
HOT_SHARE = 0.6
WRITE_EVERY = 50
WRITE_ROWS = 3
#: A set-up takes a sixth of a second here, so its median is taken over
#: more repeats than the other workloads can afford.
SETUP_REPEATS = 7
#: Cold template requests checked against the oracle after the loop.
TEMPLATE_CHECKS = 24
REPLY_TIMEOUT_S = 60.0
#: Per-layer seconds are reported per this many completed requests, the
#: serving counterpart of "per pass".
REQUESTS_PER_UNIT = 1000

#: The repeated statements: the ``benchmarks/bench_serving.py`` read mix
#: (copied, so that the benchmark's definition lives in its own files)
#: plus a bare orders count, whose answer tracks the inserts one by one.
HOT = (
    "SELECT COUNT(*) AS n FROM lineitem l",
    "SELECT l.l_returnflag, SUM(l.l_extendedprice) AS revenue, "
    "COUNT(*) AS n FROM lineitem l GROUP BY l.l_returnflag",
    "SELECT c.c_mktsegment, COUNT(*) AS n FROM customer c GROUP BY c.c_mktsegment",
    "SELECT n.n_name, COUNT(*) AS c FROM customer c "
    "JOIN nation n ON c.c_nationkey = n.n_nationkey GROUP BY n.n_name",
    "SELECT o.o_orderpriority, COUNT(*) AS n FROM orders o "
    "WHERE o.o_totalprice > 1000.0 GROUP BY o.o_orderpriority",
    "SELECT SUM(l.l_extendedprice) AS rev FROM lineitem l "
    "JOIN orders o ON l.l_orderkey = o.o_orderkey WHERE o.o_totalprice > 500.0",
    "SELECT COUNT(*) AS n FROM orders o",
)
#: Statement templates; ``{x}`` takes a fresh literal in the given range.
TEMPLATES = (
    ("SELECT COUNT(*) AS n FROM lineitem l WHERE l.l_extendedprice > {x}",
     (900.0, 9000.0)),
    ("SELECT l.l_shipmode, SUM(l.l_quantity) AS q FROM lineitem l "
     "WHERE l.l_extendedprice < {x} GROUP BY l.l_shipmode", (900.0, 9000.0)),
    ("SELECT COUNT(*) AS n FROM orders o WHERE o.o_totalprice > {x}",
     (1000.0, 300000.0)),
    ("SELECT SUM(l.l_extendedprice) AS rev FROM lineitem l "
     "JOIN orders o ON l.l_orderkey = o.o_orderkey WHERE o.o_totalprice > {x}",
     (1000.0, 300000.0)),
    ("SELECT c.c_mktsegment, COUNT(*) AS n FROM customer c "
     "WHERE c.c_acctbal > {x} GROUP BY c.c_mktsegment", (-999.0, 9999.0)),
)


def lap_steps(seed: int, client: int) -> list[tuple]:
    """The steps one client takes in every lap, in order: ``("hot",
    sql)``, ``("template", text, literal)`` or ``("write",)``.

    A lap is made of the same statements for every seed — the fixed
    statements in rotation, each template equally often, a template's
    literals evenly spaced over its range, the clients' in turn — so a
    seed changes the data and the order, not how much work a lap is.
    """
    rng = random.Random(seed * 1000 + client)
    hot = round(HOT_SHARE * LAP_STEPS)
    first = rng.randrange(len(HOT))
    steps: list[tuple] = [("hot", HOT[(first + i) % len(HOT)]) for i in range(hot)]
    each = (LAP_STEPS - hot) // len(TEMPLATES)
    for text, (low, high) in TEMPLATES:
        for i in range(each):
            share = (i + (client + 0.5) / CLIENTS) / each
            steps.append(("template", text, round(low + share * (high - low), 2)))
    rng.shuffle(steps)
    if client == 0:
        for at in reversed(range(0, LAP_STEPS, WRITE_EVERY)):
            steps.insert(at, ("write",))
    return steps


def statement(step: tuple, serial: int) -> str:
    """The SQL text of a step the *serial*-th time it is taken.  A
    template's literal moves by a ten-thousandth each time: new text, so
    both caches miss, and the same rows, because prices have two decimals."""
    if step[0] == "hot":
        return step[1]
    return step[1].format(x=f"{step[2] + serial * 1e-4:.4f}")


def write_batch(seed: int, number: int, customers: int) -> list[tuple]:
    """The *number*-th batch of new orders (no lineitems, so they are
    partner-less under the PREF chain and lineitem answers do not move)."""
    rng = random.Random(seed * 7919 + number)
    first = 10_000_000 + number * WRITE_ROWS
    return [
        (
            first + i,
            1 + rng.randrange(customers),
            "O",
            round(rng.uniform(100.0, 300000.0), 2),
            rng.randrange(2400),
            "1-URGENT",
            0,
        )
        for i in range(WRITE_ROWS)
    ]


class Oracle:
    """Single-node answers for any statement after any number of writes.

    Inserts only touch ``orders``, so the database after *k* writes is
    the generated one plus the first *k* batches, and a statement that
    does not read ``orders`` has one answer throughout.
    """

    def __init__(self, database, seed: int) -> None:
        self.database = database
        self.seed = seed
        self.customers = len(database.table("customer"))
        self._plans: dict[str, object] = {}
        self._executors: dict[int, LocalExecutor] = {}
        self._answers: dict[tuple[str, int], list[tuple]] = {}

    def batch(self, number: int) -> list[tuple]:
        return write_batch(self.seed, number, self.customers)

    def answer(self, sql: str, writes: int) -> list[tuple]:
        plan = self._plans.get(sql)
        if plan is None:
            plan = self._plans[sql] = sql_to_plan(sql, self.database.schema)
        if "orders" not in referenced_tables(plan):
            writes = 0
        key = (sql, writes)
        if key not in self._answers:
            executor = self._executors.get(writes)
            if executor is None:
                mirror = Database(self.database.schema)
                for name, table in self.database.tables.items():
                    mirror.load(name, table.rows)
                for number in range(writes):
                    mirror.table("orders").extend(self.batch(number))
                executor = self._executors[writes] = LocalExecutor(mirror)
            self._answers[key] = executor.execute(plan).rows
        return self._answers[key]


class Request:
    """One completed client step that asked a statement."""

    __slots__ = (
        "sql", "seconds", "rows", "cache_hit", "queue_wait", "service",
        "ticket_latency", "acked_before", "started_after",
    )


def run_serve_workload(
    seed: int,
    seconds: float,
    traced: bool,
    tracer: Tracer,
    scale: float | None = None,
    corrupt: bool = False,
) -> dict:
    scale = scale or SCALE
    cost = paper_cost_parameters(scale)
    warm = HOT + tuple(text.format(x=low) for text, (low, _) in TEMPLATES)
    clusters = []

    def build():
        database = generate(tracer, scale, seed)
        config = design_config(tracer, database, "sd")
        with tracer.span("partitioning.partition_database"):
            cluster = SimulatedCluster.partition(
                database, config, cost=cost, backend=BACKEND
            )
        clusters.append(cluster)
        with tracer.span("bench.warmup"):
            for sql in warm:
                cluster.sql(sql)
        return database, cluster

    try:
        (database, cluster), setup = set_up(tracer, build, SETUP_REPEATS)
        # Engine counters of one uncached pass over the hot statements on
        # the database as generated: they repeat exactly for one seed.
        accounting = Accounting(cost)
        for sql in HOT:
            accounting.add(cluster.sql(sql, analyze=True))
        stored_share = cluster.data_redundancy() + 1.0
        oracle = Oracle(database, seed)
        outcome = _serve(
            cluster, oracle, seed, seconds, traced, tracer, corrupt
        )
    finally:
        for cluster in clusters:
            cluster.close()

    outcome["end_to_end"].update(
        {
            "setup_s": setup["bench.setup"],
            "sim_seconds": accounting.sim_seconds,
            "net_bytes": float(accounting.counts["network_bytes"]),
            "stored_rows_per_user_row": stored_share,
        }
    )
    outcome["per_layer"].update(setup_metrics(setup, database.total_rows))
    outcome["per_layer"].update(accounting.count_metrics())
    outcome["detail"].update(
        {
            "scale_factor": scale,
            "design": "sd",
            "partitions": PARTITIONS,
            "backend": BACKEND,
            "clients": CLIENTS,
            "setup_spans_s": setup,
        }
    )
    return outcome


def _serve(cluster, oracle, seed, seconds, traced, tracer, corrupt) -> dict:
    server = cluster.serve(max_inflight=CLIENTS, queue_depth=64)
    sessions = [server.session(f"client-{i}") for i in range(CLIENTS)]
    steps = [lap_steps(seed, i) for i in range(CLIENTS)]
    # The phases of a lap: each client alone, then all of them together.
    phases = [(i,) for i in range(CLIENTS)] + [tuple(range(CLIENTS))]
    done: list[Request] = []
    write_seconds: list[float] = []
    errors: list[str] = []
    # Written by client 0 alone, read by all: how many inserts have
    # started, and how many have been acknowledged.
    writes = {"started": 0, "acked": 0}
    # Wall time of each phase in the plain and in the instrumented laps.
    phase_wall = {False: [[] for _ in phases], True: [[] for _ in phases]}
    # Seconds of every step a client took alone in a plain lap, by
    # (client, step).
    alone: dict[tuple, list[float]] = {}
    traced_requests = 0

    def client_steps(index: int, serial: int, timings: dict | None) -> None:
        try:
            with tracer.span("bench.client"):
                for position, step in enumerate(steps[index]):
                    if step[0] == "write":
                        rows = oracle.batch(writes["started"])
                        writes["started"] += 1
                        with tracer.span("serve.write") as timed:
                            server.insert("orders", rows)
                        writes["acked"] += 1
                        write_seconds.append(timed.seconds)
                    else:
                        request = Request()
                        request.sql = statement(step, serial)
                        request.acked_before = writes["acked"]
                        with tracer.span("serve.request") as timed:
                            ticket = sessions[index].submit(request.sql)
                            timed.request = ticket.query_id
                            request.rows = ticket.result(REPLY_TIMEOUT_S).rows
                        request.started_after = writes["started"]
                        request.seconds = timed.seconds
                        request.cache_hit = ticket.cache_hit
                        request.queue_wait = ticket.queue_wait
                        request.service = ticket.service_seconds
                        request.ticket_latency = ticket.latency
                        done.append(request)
                    if timings is not None:
                        timings.setdefault((index, position), []).append(timed.seconds)
        except Exception as error:  # noqa: BLE001 - re-raised by run_lap
            errors.append(f"client {index}: {type(error).__name__}: {error}")

    def run_lap(instrumented_lap: bool) -> None:
        nonlocal traced_requests
        lap = len(phase_wall[False][0]) + len(phase_wall[True][0])
        asked_before = len(done)
        for number, who in enumerate(phases):
            timings = alone if len(who) == 1 and not instrumented_lap else None
            threads = [
                threading.Thread(
                    target=client_steps,
                    args=(i, len(phases) * lap + number, timings),
                )
                for i in who
            ]
            with tracer.span("bench.phase") as timed:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            if errors:
                raise RuntimeError(f"lap {lap} failed: {'; '.join(errors)}")
            phase_wall[instrumented_lap][number].append(timed.seconds)
        if instrumented_lap:
            traced_requests += len(done) - asked_before

    # The worker's per-ticket entry point is private; wrapping it is what
    # lets a worker-side span carry the request's id across the thread
    # boundary.  Without it the spans still sum by layer.
    extra = []
    if hasattr(type(server), "_serve_one"):
        extra.append(
            (
                "repro.serve.server", "ClusterServer", "_serve_one",
                "serve.worker", lambda self, ticket: ticket.query_id,
            )
        )
    mark = len(tracer.spans)
    try:
        measure(tracer, run_lap, seconds, traced, extra)
        final = {sql: server.execute(sql, timeout=REPLY_TIMEOUT_S).rows for sql in HOT}
        summary_ = server.metrics_summary()
    finally:
        server.close()

    attempted = len(done) + writes["started"] + len(HOT)
    failures = _check_answers(done, final, cluster, oracle, writes, seed, corrupt)

    # Every lap does the same work, so a step's quiet time is its fastest
    # over the plain laps.  The end-to-end timings are those of a session
    # working alone: when the host is busy, two runnable threads lose more
    # than one does (README, "Noise").
    best = quiet(alone)
    quiet_cold = [
        seconds for (i, position), seconds in best.items()
        if steps[i][position][0] == "template"
    ]
    together_ops = sum(len(per_client) for per_client in steps)
    together_wall = phase_wall[False][-1]
    end_to_end = {
        "throughput_ops_s": len(best) / sum(best.values()),
        "query_p50_ms": 1e3 * quantile(quiet_cold, 0.5),
        "query_p90_ms": 1e3 * quantile(quiet_cold, 0.9),
    }
    cold = [r.seconds for r in done if r.cache_hit != "result"]
    hits = [r.seconds for r in done if r.cache_hit == "result"]
    result_cache, plan_cache = summary_["result_cache"], summary_["plan_cache"]
    per_layer = {
        "serve.result_cache.hit_share": result_cache["hit_rate"],
        "serve.plan_cache.hit_share": plan_cache["hit_rate"],
        "serve.result_cache.invalidations": float(result_cache["invalidations"]),
        "serve.plan_cache.invalidations": float(plan_cache["invalidations"]),
        "serve.rejected": float(summary_["admission"]["rejected"]),
        "serve.timeouts": float(summary_["admission"]["timeouts"]),
        "serve.queue_wait_p50_ms": 1e3 * quantile([r.queue_wait for r in done], 0.5),
        "serve.service_p50_ms": 1e3 * quantile(
            [r.service for r in done if r.cache_hit != "result"], 0.5
        ),
        "serve.overhead_p50_ms": 1e3 * quantile(
            [r.ticket_latency - r.queue_wait - r.service for r in done], 0.5
        ),
        "serve.hit_p50_ms": 1e3 * quantile(hits, 0.5),
        "serve.write_p50_ms": 1e3 * quantile(write_seconds, 0.5),
        "serve.together_ops_s": together_ops / min(together_wall),
    }
    if traced:
        tracer.link(adopt="serve.worker", into="serve.request")
        self_seconds = tracer.self_seconds_since(mark)
        unit = REQUESTS_PER_UNIT / traced_requests
        for span, metric in SPAN_METRICS.items():
            per_layer[metric] = self_seconds[span] * unit
        # A client waits while a worker serves it, so the self times add
        # up to the time the clients spent taking their steps; what is
        # the benchmark's own is the client loop.
        per_layer["bench.unattributed_share"] = self_seconds["bench.client"] / sum(
            span.seconds for span in tracer.spans[mark:]
            if span.name == "bench.client"
        )
        per_layer["obs.trace_overhead_share"] = (
            _median_lap(phase_wall[True]) / _median_lap(phase_wall[False]) - 1.0
        )
    return {
        "attempted": attempted,
        "failures": failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "detail": {
            "steps_alone_per_lap": len(best),
            "steps_together_per_lap": together_ops,
            "untraced_laps": len(together_wall),
            "traced_laps": len(phase_wall[True][-1]),
            "requests": len(done),
            "writes": writes["acked"],
            "alone_wall_s": summary(
                [sum(walls) for walls in zip(*phase_wall[False][:-1])]
            ),
            "together_wall_s": summary(together_wall),
            "quiet_cold_latency_s": summary(quiet_cold),
            "cold_latency_s": summary(cold),
            "hit_latency_s": summary(hits),
            "write_latency_s": summary(write_seconds),
            "server_summary": summary_,
        },
    }


def _median_lap(phase_wall: list[list[float]]) -> float:
    return statistics.median(sum(walls) for walls in zip(*phase_wall))


def _check_answers(done, final, cluster, oracle, writes, seed, corrupt) -> list[str]:
    """Every hot answer must be the oracle's for some number of writes
    between those acknowledged before submit and those started before the
    reply; a seeded sample of cold template answers likewise; and after
    the loop the server, the uncached cluster and the oracle must agree
    on every hot statement."""
    failures = []
    hot = set(HOT)
    if corrupt:
        victim = next(r for r in done if r.sql in hot)
        victim.rows = victim.rows[1:]

    def within_window(request) -> bool:
        return any(
            same_rows(request.rows, oracle.answer(request.sql, k))
            for k in range(request.acked_before, request.started_after + 1)
        )

    templates = [r for r in done if r.sql not in hot and r.cache_hit != "result"]
    sample = random.Random(seed).sample(
        templates, min(TEMPLATE_CHECKS, len(templates))
    )
    for request in [r for r in done if r.sql in hot] + sample:
        if not within_window(request):
            failures.append(
                f"answer outside every database state of its window "
                f"[{request.acked_before}, {request.started_after}]: {request.sql}"
            )
    for sql in HOT:
        expected = oracle.answer(sql, writes["acked"])
        if not same_rows(final[sql], expected):
            failures.append(f"served answer stale after the loop: {sql}")
        if not same_rows(cluster.sql(sql).rows, expected):
            failures.append(f"uncached answer differs from LocalExecutor: {sql}")
    return failures
