"""Predicate transfer on a non-co-partitioned (all-hashed) layout.

The fig9-style ablation for the Bloom-filter transfer knob: every table
hash-partitioned on its primary key (the fig7 "Hashed" baseline, where
no join is co-partitioned and every join edge shuffles), a set of
multi-join TPC-H queries run with the knob off and on.  Reported per
query: bytes shuffled and simulated deployment-scale seconds (wall clock
is the repo benchmark's business: ``benchmarks/perf``).  Answers must be
identical — the knob only changes how many
rows cross the wire, never which rows come back.
"""

from conftest import NODES, TPCH_SF

from repro.bench import format_table, paper_cost_parameters
from repro.design.baselines import all_hashed
from repro.partitioning import partition_database
from repro.query import ExecOptions, Executor
from repro.workloads.tpch import ALL_QUERIES

#: Multi-join queries where transfer prunes hard on a hashed layout
#: (selective date/region predicates far from the fact table), plus two
#: where co-pruning is weak (Q5's region filter survives most keys; Q9's
#: part filter prunes ~30%) to keep the report honest.
QUERIES = ("Q2", "Q3", "Q4", "Q20", "Q5", "Q9")


def test_predicate_transfer_all_hashed(benchmark, tpch_db, report):
    partitioned = partition_database(tpch_db, all_hashed(tpch_db, NODES))
    cost = paper_cost_parameters(TPCH_SF)

    def experiment():
        results = {}
        for name in QUERIES:
            plan_builder = ALL_QUERIES[name]
            for transfer in (False, True):
                executor = Executor(
                    partitioned, ExecOptions(predicate_transfer=transfer)
                )
                result = executor.execute(plan_builder())
                results[(name, transfer)] = (
                    result.stats.network_bytes,
                    result.simulated_seconds(cost),
                    result.rows,
                )
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = []
    reductions = {}
    for name in QUERIES:
        off_bytes, off_sim, off_rows = results[(name, False)]
        on_bytes, on_sim, on_rows = results[(name, True)]
        assert on_rows == off_rows, f"{name}: answers changed under transfer"
        reduction = 100.0 * (off_bytes - on_bytes) / off_bytes if off_bytes else 0.0
        reductions[name] = reduction
        rows.append(
            (
                name,
                off_bytes,
                on_bytes,
                f"{reduction:.1f}%",
                f"{off_sim:.1f} -> {on_sim:.1f}",
            )
        )
    report(
        "predicate_transfer",
        format_table(
            [
                "Query",
                "bytes off",
                "bytes on",
                "reduction",
                "simulated (s)",
            ],
            rows,
            title="Bloom predicate transfer on the all-hashed baseline "
            f"(SF {TPCH_SF} / {NODES} nodes)",
        ),
    )
    # Acceptance: at least two multi-join queries save >= 30% of the
    # bytes shuffled on the non-co-partitioned layout.
    big_wins = [name for name, r in reductions.items() if r >= 30.0]
    assert len(big_wins) >= 2, f"expected >=2 queries at >=30%, got {reductions}"
    assert reductions["Q3"] >= 30.0
