"""``ingest_mixed``: bulk load, then writes beside reads.

The only workload that calls ``partitioning.bulk_loader`` while timing,
and the only one whose reads follow a mutation, so each read pays the
rebuild of the partitions' derived scan caches.

One pass = bulk-load 70% of the orders (with their lineitems) and every
other table into a fresh, empty ``PartitionedDatabase``, then
:data:`ROUNDS` rounds of {load the next slice of orders+lineitems with
PREF maintenance on; delete the oldest equal-sized slice from lineitem,
then orders; add 1.0 to ``o_totalprice`` on half the new slice; run Q1,
Q6, Q3}.  Every pass starts from an empty store and applies the same
batches, so passes do identical work and their counters repeat exactly.
"""

from __future__ import annotations

import statistics
from collections import Counter

from repro.bench import paper_cost_parameters
from repro.partitioning.bulk_loader import BulkLoader, BulkLoadStats
from repro.partitioning.invariants import InvariantViolation, check_pref_invariants
from repro.query.executor import Executor
from repro.query.local_executor import LocalExecutor
from repro.storage.partitioned import PartitionedDatabase, PartitionedTable
from repro.storage.table import Database
from repro.workloads.tpch import ALL_QUERIES, runtime_queries

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
    Accounting,
    design_config,
    generate,
    layer_metrics,
    median_metrics,
    setup_metrics,
)

SCALE = 0.0025
BULK_SHARE = 0.7
ROUNDS = 6
READS = ("Q1", "Q6", "Q3")
O_ORDERKEY, O_CUSTKEY, O_TOTALPRICE, L_ORDERKEY = 0, 1, 3, 0


def _bump_price(row: tuple) -> tuple:
    return (
        row[:O_TOTALPRICE] + (row[O_TOTALPRICE] + 1.0,) + row[O_TOTALPRICE + 1:]
    )


class Batches:
    """The row batches of one pass, cut from the generated database.

    Seeded: the generator's seed fixes the rows, and the seed also
    rotates where the bulk/incremental split falls in the orders table.

    A customer's first bulk-loaded order is never deleted.  Deleting the
    last order of a customer would leave that customer's PREF copies and
    hasS bits as they were (``BulkLoader.delete`` does not demote the
    tuples that referenced a deleted row), ``check_pref_invariants``
    would reject the store, and a workload must not contain an operation
    that fails.
    """

    def __init__(self, database, seed: int, rounds: int) -> None:
        orders = database.table("orders").rows
        offset = seed * 7919 % len(orders)
        orders = orders[offset:] + orders[:offset]
        lines_of: dict[int, list[tuple]] = {}
        for line in database.table("lineitem").rows:
            lines_of.setdefault(line[L_ORDERKEY], []).append(line)

        def lines(batch):
            return [line for o in batch for line in lines_of.get(o[O_ORDERKEY], ())]

        bulk_count = int(len(orders) * BULK_SHARE)
        size = (len(orders) - bulk_count) // rounds
        self.bulk = {
            name: list(table.rows)
            for name, table in database.tables.items()
            if name not in ("orders", "lineitem")
        }
        self.bulk["orders"] = orders[:bulk_count]
        customers_seen: set[int] = set()
        deletable = []
        for order in self.bulk["orders"]:
            if order[O_CUSTKEY] in customers_seen:
                deletable.append(order)
            customers_seen.add(order[O_CUSTKEY])
        self.bulk["lineitem"] = lines(self.bulk["orders"])
        self.bulk_rows = sum(len(rows) for rows in self.bulk.values())
        self.rounds = []
        for index in range(rounds):
            new = orders[bulk_count + index * size:bulk_count + (index + 1) * size]
            old = deletable[index * size:(index + 1) * size]
            new_lines, old_lines = lines(new), lines(old)
            self.rounds.append(
                {
                    "insert": {"lineitem": new_lines, "orders": new},
                    "delete_keys": frozenset(o[O_ORDERKEY] for o in old),
                    "update_keys": frozenset(
                        o[O_ORDERKEY] for o in new[: len(new) // 2]
                    ),
                    "rows_written": len(new) + len(new_lines) + len(old)
                    + len(old_lines) + len(new) // 2,
                    "rows_inserted": len(new) + len(new_lines),
                }
            )


def empty_store(database, config) -> PartitionedDatabase:
    store = PartitionedDatabase(config.partition_count)
    for table in config.load_order():
        store.add_table(
            PartitionedTable(
                database.schema.table(table),
                config.scheme_of(table),
                config.partition_count,
                seed_table=config.seed_of(table),
            )
        )
    return store


def reference_answers(database, batches: Batches, plans: dict):
    """Mirror every write into a plain ``Database`` and evaluate each
    round's reads with ``LocalExecutor`` — the single-node oracle.
    Returns the answers per round and the mirror after the last round."""
    mirror = Database(database.schema)
    for table, rows in batches.bulk.items():
        mirror.load(table, rows)
    oracle = LocalExecutor(mirror)
    answers = []
    for step in batches.rounds:
        gone, bumped = step["delete_keys"], step["update_keys"]
        for table, rows in step["insert"].items():
            mirror.table(table).extend(rows)
        lineitem, orders = mirror.table("lineitem").rows, mirror.table("orders").rows
        lineitem[:] = [r for r in lineitem if r[L_ORDERKEY] not in gone]
        orders[:] = [
            _bump_price(r) if r[O_ORDERKEY] in bumped else r
            for r in orders
            if r[O_ORDERKEY] not in gone
        ]
        answers.append(
            {name: oracle.execute(plan).rows for name, plan in plans.items()}
        )
    return answers, mirror


class PassRecord:
    """Timings and counters of one pass.

    ``ops`` holds one timing per operation, keyed ``bulk_load``,
    ``insert.<round>``, ``delete.<round>``, ``update.<round>`` and
    ``read.<round>.<query>``: the same keys, for the same work, in every
    pass.
    """

    def __init__(self, cost) -> None:
        self.accounting = Accounting(cost)
        self.load_stats = BulkLoadStats()
        self.ops: dict[str, float] = {}
        #: Traced run: each read repeated at once over warm scan caches.
        self.again: dict[str, float] = {}
        self.copies_changed = 0

    def total(self, kind: str) -> float:
        return sum(s for op, s in self.ops.items() if op.split(".")[0] == kind)


def run_ingest_workload(
    seed: int,
    seconds: float,
    traced: bool,
    tracer: Tracer,
    scale: float | None = None,
    corrupt: bool = False,
) -> dict:
    scale = scale or SCALE
    cost = paper_cost_parameters(scale)
    plans = {name: ALL_QUERIES[name]() for name in READS}

    def one_pass(database, config, batches, analyze, record, keep):
        store = empty_store(database, config)
        loader = BulkLoader(store, config)
        with tracer.span("partitioning.bulk_load") as timed:
            stats = loader.load(batches.bulk, maintain_referencing=False)
        record.ops["bulk_load"] = timed.seconds
        record.load_stats.merge(stats)
        executor = Executor(store, cost=cost)
        for number, step in enumerate(batches.rounds):
            gone, bumped = step["delete_keys"], step["update_keys"]
            with tracer.span("bench.round"):
                with tracer.span("partitioning.insert") as timed:
                    stats = loader.load(step["insert"])
                record.ops[f"insert.{number}"] = timed.seconds
                record.load_stats.merge(stats)
                with tracer.span("partitioning.delete") as timed:
                    changed = loader.delete(
                        "lineitem", lambda row: row[L_ORDERKEY] in gone
                    )
                    changed += loader.delete(
                        "orders", lambda row: row[O_ORDERKEY] in gone
                    )
                record.ops[f"delete.{number}"] = timed.seconds
                with tracer.span("partitioning.update") as timed:
                    changed += loader.update(
                        "orders", lambda row: row[O_ORDERKEY] in bumped, _bump_price
                    )
                record.ops[f"update.{number}"] = timed.seconds
                record.copies_changed += changed
                for name, plan in plans.items():
                    request = f"read.{number}.{name}"
                    with tracer.span("bench.query", request) as timed:
                        result = executor.execute(
                            plan, analyze=analyze, query_name=name
                        )
                    record.ops[request] = timed.seconds
                    keep.append((number, name, timed, result))
                    if analyze:
                        # The same read again, now over warm scan caches:
                        # the difference is what the mutation cost it.
                        with tracer.span("bench.query_again", request) as again:
                            executor.execute(plan, analyze=True, query_name=name)
                        record.again[request] = again.seconds
        return store

    def build():
        database = generate(tracer, scale, seed)
        config = design_config(tracer, database, "sd")
        with tracer.span("bench.cut_batches"):
            batches = Batches(database, seed, ROUNDS)
        with tracer.span("bench.warmup"):
            one_pass(database, config, batches, False, PassRecord(cost), [])
        return database, config, batches

    (database, config, batches), setup = set_up(tracer, build)
    expected, mirror = reference_answers(database, batches, plans)

    failures: list[str] = []
    attempted = 0
    records: dict[bool, list[PassRecord]] = {False: [], True: []}
    pass_wall: dict[bool, list[float]] = {False: [], True: []}
    layer_seconds: list[Counter] = []
    last_store = None

    def run_pass(analyze: bool) -> None:
        nonlocal attempted, last_store
        mark = len(tracer.spans)
        record, keep = PassRecord(cost), []
        with tracer.span("bench.pass") as whole:
            last_store = one_pass(database, config, batches, analyze, record, keep)
        # 1 bulk load + 3 writes per round, and the reads.
        attempted += 1 + 3 * len(batches.rounds) + len(keep)
        for number, name, timed, result in keep:
            timed.attrs = {"operator_seconds": record.accounting.add(result)}
            rows = result.rows
            if corrupt and number == 0 and name == "Q1":
                rows = rows[1:]
            if not same_rows(rows, expected[number][name]):
                failures.append(
                    f"round {number} {name}: rows differ from LocalExecutor "
                    "on the mirrored database"
                )
        done = records[False] + records[True]
        if done and _exact(record) != _exact(done[0]):
            failures.append("counters differ between passes")
        records[analyze].append(record)
        pass_wall[analyze].append(whole.seconds)
        if analyze:
            tracer.link()
            layer_seconds.append(
                tracer.self_seconds_since(mark, skip="bench.query_again")
            )

    measure(tracer, run_pass, seconds, traced)

    attempted += 1
    try:
        check_pref_invariants(last_store, config)
    except InvariantViolation as violation:
        failures.append(f"PREF invariant broken after the last round: {violation}")
    for table in mirror.table_names:
        if last_store.table(table).canonical_row_count != len(mirror.table(table)):
            failures.append(f"{table}: stored row count differs from the mirror")
    # The 20 TPC-H plans once over the store the writes left behind:
    # checks every plan after a write history, and gives sim_seconds and
    # net_bytes a volume on which one seed's data is like another's (the
    # 18 reads of a pass ship 30 KB, +-17% from seed to seed).
    after_writes = Accounting(cost)
    executor, oracle = Executor(last_store, cost=cost), LocalExecutor(mirror)
    for name, plan in runtime_queries().items():
        attempted += 1
        result = executor.execute(plan, query_name=name)
        after_writes.add(result)
        if not same_rows(result.rows, oracle.execute(plan).rows):
            failures.append(f"{name} after the last round: rows differ from LocalExecutor")

    plain = records[False]
    first = plain[0]
    rows_written = sum(step["rows_written"] for step in batches.rounds)
    rows_inserted = sum(step["rows_inserted"] for step in batches.rounds)
    best = quiet({op: [r.ops[op] for r in plain] for op in first.ops})

    def best_total(*kinds: str) -> float:
        return sum(s for op, s in best.items() if op.split(".")[0] in kinds)

    reads = [s for op, s in best.items() if op.startswith("read.")]
    end_to_end = {
        "setup_s": setup["bench.setup"],
        # An operation of this workload is one logical row written: bulk
        # loaded, inserted, deleted or updated.  Reads are gated by the
        # two latency metrics.
        "throughput_ops_s": (batches.bulk_rows + rows_written)
        / best_total("bulk_load", "insert", "delete", "update"),
        "query_p50_ms": 1e3 * quantile(reads, 0.5),
        "query_p90_ms": 1e3 * quantile(reads, 0.9),
        "sim_seconds": after_writes.sim_seconds,
        "net_bytes": float(after_writes.counts["network_bytes"]),
        "stored_rows_per_user_row": last_store.data_redundancy() + 1.0,
    }
    stats = first.load_stats
    per_layer = setup_metrics(setup, 0)
    per_layer.update(first.accounting.count_metrics())
    per_layer.update(
        {
            "partitioning.bulk_load_rows_per_s": batches.bulk_rows
            / best_total("bulk_load"),
            "partitioning.write_rows_per_s": rows_written
            / best_total("insert", "delete", "update"),
            "partitioning.insert_rows_per_s": rows_inserted / best_total("insert"),
            "partitioning.copies_written": float(stats.copies_written),
            "partitioning.index_lookups": float(stats.index_lookups),
            "partitioning.copies_per_row_in": stats.copies_written / stats.rows_in,
        }
    )
    if traced:
        analyzed = records[True]
        per_layer.update(analyzed[0].accounting.count_metrics())
        per_layer.update(
            median_metrics([r.accounting.time_metrics() for r in analyzed])
        )
        # Each traced read runs twice; the repeat is left out of the wall
        # and of every layer's time.
        once_wall = [
            w - sum(r.again.values()) for w, r in zip(pass_wall[True], analyzed)
        ]
        per_layer.update(layer_metrics(layer_seconds, once_wall))
        for part in ("bulk_load", "insert", "delete", "update"):
            per_layer[f"partitioning.{part}_s"] = statistics.median(
                r.total(part) for r in analyzed
            )
        per_layer["storage.scan_cache_rebuild_ms"] = 1e3 * statistics.median(
            r.ops[op] - again for r in analyzed for op, again in r.again.items()
        )
        per_layer["obs.trace_overhead_share"] = (
            statistics.median(once_wall) / statistics.median(pass_wall[False]) - 1.0
        )
    return {
        "attempted": attempted,
        "failures": failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "detail": {
            "scale_factor": scale,
            "design": "sd",
            "rounds_per_pass": len(batches.rounds),
            "bulk_rows": batches.bulk_rows,
            "rows_written_per_pass": rows_written,
            "untraced_passes": len(plain),
            "traced_passes": len(records[True]),
            "pass_wall_s": summary(pass_wall[False]),
            "bulk_load_s": summary([r.total("bulk_load") for r in plain]),
            "write_s": summary(
                [sum(r.total(k) for k in ("insert", "delete", "update")) for r in plain]
            ),
            "read_latency_s": summary([r.ops[op] for r in plain for op in r.ops
                                       if op.startswith("read.")]),
            "quiet_seconds_by_operation": best,
            "setup_spans_s": setup,
        },
    }


def _exact(record: PassRecord) -> tuple:
    stats = record.load_stats
    return (
        record.accounting.exact(),
        (stats.rows_in, stats.copies_written, stats.index_lookups),
        record.copies_changed,
    )
