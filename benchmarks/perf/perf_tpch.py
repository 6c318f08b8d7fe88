"""TPC-H set-up shared by every workload, and the two read workloads.

``tpch_pref`` and ``tpch_hashed`` run the same 20 plans on the serial
backend over opposite designs: under the schema-driven PREF design joins
are local and the local operators do the work; under all-hashed every
join shuffles and the exchange does.  A change to either side should move
one workload and leave the other where it was.
"""

from __future__ import annotations

import statistics
from collections import Counter

from repro.bench import paper_cost_parameters
from repro.design import SchemaDrivenDesigner
from repro.design.baselines import all_hashed
from repro.partitioning.partitioner import partition_database
from repro.query.executor import Executor
from repro.query.local_executor import LocalExecutor
from repro.workloads.tpch import SMALL_TABLES, generate_tpch, runtime_queries

from perf_harness import (
    Tracer,
    measure,
    quantile,
    quiet,
    same_rows,
    set_up,
    summary,
)

PARTITIONS = 10
#: Scale factor and design of each read workload.  The hashed pass costs
#: about twice the PREF pass per row, so it runs at a smaller scale to
#: fit as many passes into the same measuring time.  Passes are kept
#: short (about half a second) on purpose: see
#: :func:`perf_harness.quiet`.
READ_WORKLOADS = {
    "tpch_pref": (0.0025, "sd"),
    "tpch_hashed": (0.0015, "hashed"),
}

#: ``ExecutionStats`` counters summed over a pass; they repeat exactly.
STAT_COUNTERS = (
    "network_bytes", "rows_processed", "rows_shipped", "shuffle_count",
    "partitions_scanned", "rows_dup_eliminated",
)
OPERATOR_KINDS = (
    "scan", "filter", "project", "join", "aggregate", "dedup",
    "partner_filter", "repartition", "bloom_probe", "order_by", "gather",
)
TASK_PHASES = ("prepare", "exchange", "partition")


def generate(tracer: Tracer, scale: float, seed: int):
    with tracer.span("workloads.generate_tpch"):
        return generate_tpch(scale_factor=scale, seed=seed)


def design_config(tracer: Tracer, database, design: str):
    """The schema-driven PREF design (small tables replicated) or the
    all-hashed baseline, on :data:`PARTITIONS` partitions."""
    with tracer.span("design.design"):
        if design == "sd":
            designer = SchemaDrivenDesigner(database, PARTITIONS)
            return designer.design(replicate=SMALL_TABLES).config
        return all_hashed(database, PARTITIONS)


def setup_metrics(medians: dict, rows_partitioned: int) -> dict:
    """Per-layer set-up metrics from :func:`perf_harness.set_up` medians."""
    partition_s = medians.get("partitioning.partition_database", 0.0)
    return {
        "workloads.datagen_s": medians["workloads.generate_tpch"],
        "design.design_s": medians["design.design"],
        "partitioning.partition_s": partition_s,
        "partitioning.partition_rows_per_s": (
            rows_partitioned / partition_s if partition_s else 0.0
        ),
        "bench.warmup_s": medians["bench.warmup"],
    }


class Accounting:
    """Sums the engine's own counters over the queries of one pass.

    Everything here is read from public ``QueryResult`` fields; with a
    trace (``analyze=True``) it also splits operator time by kind and
    task phase and measures join locality.
    """

    def __init__(self, cost) -> None:
        self.cost = cost
        self.counts: Counter = Counter()
        self.sim_seconds = 0.0
        self.node_work: list[float] = [0.0] * PARTITIONS
        self.result_rows = 0
        self.op_seconds: Counter = Counter()
        self.phase_seconds: Counter = Counter()
        self.join_rows_in = 0
        self.join_rows_moved = 0

    def add(self, result) -> dict:
        stats = result.stats
        for name in STAT_COUNTERS:
            self.counts[name] += getattr(stats, name)
        for operator in result.operators:
            self.counts["bloom_pruned"] += operator.bloom_pruned
            self.counts["patch_rows"] += operator.patch_rows
        self.sim_seconds += result.simulated_seconds(self.cost)
        for node, work in enumerate(stats.node_work):
            self.node_work[node] += work
        self.result_rows += len(result.rows)
        ops: Counter = Counter()
        if result.trace is not None:
            for span in result.trace.spans():
                ops[span.name] += span.seconds
                for task in span.tasks:
                    self.phase_seconds[task.phase] += task.seconds
                if span.name == "join" and span.rows_in:
                    self.join_rows_in += span.rows_in
                    self.join_rows_moved += min(span.moved_rows, span.rows_in)
            self.op_seconds.update(ops)
        return dict(ops)

    def exact(self) -> dict:
        """The counters that must repeat exactly for one seed."""
        return {
            **self.counts,
            "sim_seconds": self.sim_seconds,
            "node_work": tuple(self.node_work),
            "result_rows": self.result_rows,
        }

    def count_metrics(self) -> dict:
        mean_work = sum(self.node_work) / len(self.node_work)
        metrics = {
            f"engine.{name}": float(self.counts[name])
            for name in STAT_COUNTERS[1:] + ("bloom_pruned", "patch_rows")
        }
        metrics["engine.node_work_skew"] = (
            max(self.node_work) / mean_work if mean_work else 0.0
        )
        metrics["query.rows_processed_per_result_row"] = (
            self.counts["rows_processed"] / self.result_rows
            if self.result_rows
            else 0.0
        )
        if self.join_rows_in:
            metrics["engine.join_locality"] = (
                1.0 - self.join_rows_moved / self.join_rows_in
            )
        return metrics

    def time_metrics(self) -> dict:
        metrics = {
            f"engine.op.{kind}_s": self.op_seconds[kind] for kind in OPERATOR_KINDS
        }
        for phase in TASK_PHASES:
            metrics[f"engine.phase.{phase}_s"] = self.phase_seconds[phase]
        return metrics


#: Wrapped-function span name -> the per-layer metric its self time feeds.
SPAN_METRICS = {
    "sql.sql_to_plan": "sql.parse_plan_s",
    "serve.normalize_sql": "serve.sqlnorm_s",
    "query.annotate": "query.rewrite_s",
    "query.apply_predicate_transfer": "query.predicate_transfer_s",
    "engine.compile_plan": "engine.compile_s",
    "engine.backend_run": "engine.run_s",
    "query.execute_annotated": "query.result_assembly_s",
    "obs.build_trace": "obs.build_trace_s",
}


def layer_metrics(per_pass: list[Counter], wall: list[float]) -> dict:
    """Median over traced passes of each wrapped function's self time,
    and the share of the traced wall no repository layer accounts for."""
    metrics = {
        metric: statistics.median(p[span] for p in per_pass)
        for span, metric in SPAN_METRICS.items()
    }
    unattributed = [
        sum(s for name, s in p.items() if name.startswith("bench.")) / w
        for p, w in zip(per_pass, wall)
    ]
    metrics["bench.unattributed_share"] = statistics.median(unattributed)
    return metrics


def median_metrics(per_pass: list[dict]) -> dict:
    return {
        name: statistics.median(p[name] for p in per_pass)
        for name in per_pass[0]
    }


def run_read_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    tracer: Tracer,
    scale: float | None = None,
    corrupt: bool = False,
) -> dict:
    """Run ``tpch_pref`` or ``tpch_hashed``; return metrics and detail.

    *scale* overrides the workload's scale factor (the self-check runs a
    tiny one); *corrupt* damages one answer before the correctness check,
    to show that the check has teeth.
    """
    default_scale, design = READ_WORKLOADS[name]
    scale = scale or default_scale
    queries = runtime_queries()
    cost = paper_cost_parameters(scale)

    def build():
        database = generate(tracer, scale, seed)
        config = design_config(tracer, database, design)
        with tracer.span("partitioning.partition_database"):
            partitioned = partition_database(database, config)
        executor = Executor(partitioned, cost=cost)
        with tracer.span("bench.warmup"):
            for plan in queries.values():
                executor.execute(plan)
        return database, partitioned, executor

    (database, partitioned, executor), setup = set_up(tracer, build)

    oracle = LocalExecutor(database)
    expected = {
        query: oracle.execute(plan).rows
        for query, plan in queries.items()
    }

    failures: list[str] = []
    attempted = 0
    pass_wall: dict[bool, list[float]] = {False: [], True: []}
    latencies: dict[str, list[float]] = {query: [] for query in queries}
    accountings: list[Accounting] = []
    layer_seconds: list[Counter] = []

    def run_pass(analyze: bool) -> None:
        nonlocal attempted
        mark = len(tracer.spans)
        results = []
        with tracer.span("bench.pass") as whole:
            for query, plan in queries.items():
                request = f"pass{len(accountings)}.{query}"
                with tracer.span("bench.query", request) as timed:
                    result = executor.execute(
                        plan, analyze=analyze, query_name=query
                    )
                results.append((query, timed, result))
        accounting = Accounting(cost)
        for query, timed, result in results:
            attempted += 1
            timed.attrs = {"operator_seconds": accounting.add(result)}
            if not analyze:
                latencies[query].append(timed.seconds)
            rows = result.rows
            if corrupt and query == "Q1":
                rows = rows[1:]
            if not same_rows(rows, expected[query]):
                failures.append(f"{query}: rows differ from LocalExecutor")
        if accountings and accounting.exact() != accountings[0].exact():
            failures.append("engine counters differ between passes")
        accountings.append(accounting)
        pass_wall[analyze].append(whole.seconds)
        if analyze:
            tracer.link()
            layer_seconds.append(tracer.self_seconds_since(mark))

    measure(tracer, run_pass, seconds, traced)

    pooled = [s for samples in latencies.values() for s in samples]
    best = quiet(latencies)
    wall = statistics.median(pass_wall[False])
    first = accountings[0]
    user_rows = database.total_rows
    end_to_end = {
        "setup_s": setup["bench.setup"],
        "throughput_ops_s": len(queries) / sum(best.values()),
        "query_p50_ms": 1e3 * quantile(list(best.values()), 0.5),
        "query_p90_ms": 1e3 * quantile(list(best.values()), 0.9),
        "sim_seconds": first.sim_seconds,
        "net_bytes": float(first.counts["network_bytes"]),
        "stored_rows_per_user_row": partitioned.data_redundancy() + 1.0,
    }
    per_layer = setup_metrics(setup, user_rows)
    per_layer.update(first.count_metrics())
    if traced:
        traced_accountings = accountings[len(pass_wall[False]):]
        per_layer.update(traced_accountings[0].count_metrics())
        per_layer.update(
            median_metrics([a.time_metrics() for a in traced_accountings])
        )
        per_layer.update(layer_metrics(layer_seconds, pass_wall[True]))
        per_layer["obs.trace_overhead_share"] = (
            statistics.median(pass_wall[True]) / wall - 1.0
        )
    return {
        "attempted": attempted,
        "failures": failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "detail": {
            "scale_factor": scale,
            "design": design,
            "partitions": PARTITIONS,
            "backend": "serial",
            "queries_per_pass": len(queries),
            "untraced_passes": len(pass_wall[False]),
            "traced_passes": len(pass_wall[True]),
            "pass_wall_s": summary(pass_wall[False]),
            "traced_pass_wall_s": (
                summary(pass_wall[True]) if pass_wall[True] else None
            ),
            "query_latency_s": summary(pooled),
            "quiet_latency_by_query_s": best,
            "median_latency_by_query_s": {
                query: statistics.median(samples)
                for query, samples in latencies.items()
            },
            "setup_spans_s": setup,
        },
    }
