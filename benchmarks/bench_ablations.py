"""Ablations for the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the mechanisms behind them:

1. **Locality rewrites** (Section 2.2 cases 1-3): network volume of the
   TPC-H workload under the SD design with the co-partitioning-aware
   rewriter vs. an engine that shuffles every join.
2. **Verified effective-hash placement** (our chain-transitivity
   extension): runtimes of the part/lineitem chain queries with and
   without it.
3. **Partition pruning** (the paper's future work): partitions scanned by
   point look-ups with and without pruning.
"""

from conftest import NODES, TPCH_SF

from repro.bench import (
    format_table,
    materialize_variant,
    paper_cost_parameters,
    tpch_variants,
)
from repro.query import ExecOptions, Executor, Query
from repro.query.expressions import col, lit
from repro.workloads.tpch import SMALL_TABLES, runtime_queries


def test_ablation_locality_rewrites(benchmark, tpch_db, tpch_specs, report):
    """Without cases 1-3 every join shuffles: network explodes."""
    variants = tpch_variants(tpch_db, NODES, tpch_specs, SMALL_TABLES)
    partitioned = materialize_variant(
        tpch_db, variants["SD (wo small tables)"]
    )[0]
    queries = runtime_queries()

    def experiment():
        results = {}
        for locality in (True, False):
            executor = Executor(partitioned, ExecOptions(locality=locality))
            network = 0
            shuffles = 0
            for plan in queries.values():
                stats = executor.execute(plan).stats
                network += stats.network_bytes
                shuffles += stats.shuffle_count
            results[locality] = (network, shuffles)
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        ("with locality cases", results[True][0], results[True][1]),
        ("all joins shuffled", results[False][0], results[False][1]),
        (
            "network ratio",
            round(results[False][0] / max(results[True][0], 1), 1),
            "",
        ),
    ]
    report(
        "ablation_locality_rewrites",
        format_table(
            ["Rewriter", "network bytes (workload)", "shuffles"],
            rows,
            title="Ablation: Section 2.2 locality rewrites on TPC-H under SD",
        ),
    )
    assert results[False][0] > 3 * results[True][0]
    assert results[False][1] > results[True][1]


def test_ablation_effective_hash(benchmark, tpch_db, tpch_specs, report):
    """Verified chain placement makes transitive chain joins local."""
    cost = paper_cost_parameters(TPCH_SF)
    variants = tpch_variants(tpch_db, NODES, tpch_specs, SMALL_TABLES)
    chain_queries = {
        name: plan
        for name, plan in runtime_queries().items()
        if name in ("Q8", "Q9", "Q14", "Q17", "Q19")
    }

    def experiment():
        results = {}
        for enabled in (True, False):
            partitioned = materialize_variant(
                tpch_db, variants["SD (wo small tables)"]
            )[0]
            if not enabled:
                for table in partitioned.tables.values():
                    table.effective_hash = None
            executor = Executor(partitioned)
            results[enabled] = {
                name: executor.execute(plan).simulated_seconds(cost)
                for name, plan in chain_queries.items()
            }
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        (
            name,
            round(results[True][name], 1),
            round(results[False][name], 1),
            round(results[False][name] / results[True][name], 1),
        )
        for name in chain_queries
    ]
    report(
        "ablation_effective_hash",
        format_table(
            ["Query", "with (s)", "without (s)", "slowdown"],
            rows,
            title="Ablation: verified effective-hash chain placement "
            "(part/lineitem chain queries, SD design)",
        ),
    )
    total_with = sum(results[True].values())
    total_without = sum(results[False].values())
    assert total_without > 1.3 * total_with


def test_ablation_partition_pruning(benchmark, tpch_db, tpch_specs, report):
    """Point look-ups touch one partition instead of all of them."""
    variants = tpch_variants(tpch_db, NODES, tpch_specs, SMALL_TABLES)
    partitioned = materialize_variant(
        tpch_db, variants["SD (wo small tables)"]
    )[0]
    lookups = {
        "part by partkey": Query.scan("part", alias="p")
        .where(col("p.p_partkey") == lit(42))
        .aggregate(aggregates=[("count", None, "n")])
        .plan(),
        "partsupp by partkey": Query.scan("partsupp", alias="ps")
        .where(col("ps.ps_partkey") == lit(42))
        .aggregate(aggregates=[("count", None, "n")])
        .plan(),
        "lineitem by partkey": Query.scan("lineitem", alias="l")
        .where(col("l.l_partkey") == lit(42))
        .aggregate(aggregates=[("count", None, "n")])
        .plan(),
    }

    def experiment():
        results = {}
        for name, plan in lookups.items():
            on, off = ExecOptions(optimizations=True), ExecOptions(optimizations=False)
            pruned = Executor(partitioned, on).execute(plan)
            full = Executor(partitioned, off).execute(plan)
            assert pruned.rows == full.rows
            results[name] = (
                pruned.stats.partitions_scanned,
                full.stats.partitions_scanned,
            )
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        (name, pruned, full) for name, (pruned, full) in results.items()
    ]
    report(
        "ablation_partition_pruning",
        format_table(
            ["Point look-up", "partitions (pruned)", "partitions (full)"],
            rows,
            title="Ablation: partition pruning for hash and PREF tables",
        ),
    )
    for name, (pruned, full) in results.items():
        assert pruned < full, name
        assert pruned == 1, name  # effective-hash chains pin one partition
