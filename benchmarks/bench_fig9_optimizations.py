"""Figure 9: effectiveness of the dup/hasS-index optimizations.

Three queries over the SD-partitioned TPC-H database, with (w) and without
(wo) the Section 2.2 optimizations:

1. count distinct customer tuples — with the dup index this is a purely
   local filter; without, a value-based DISTINCT shuffles the table;
2. semi join customer ⋉ orders — hasS=1 filter vs executing the join;
3. anti join customer ▷ orders — hasS=0 filter vs a remote NOT-EXISTS
   nested loop (the paper's unoptimised run exceeded its 1-hour budget).
"""

from conftest import NODES, TPCH_SF

from repro.bench import format_table, paper_cost_parameters, tpch_variants
from repro.partitioning import partition_database
from repro.query import ExecOptions, Executor, Query
from repro.workloads.tpch import SMALL_TABLES


def _queries():
    customer = Query.scan("customer", alias="c")
    orders = Query.scan("orders", alias="o")
    count = [("count", None, "cnt")]
    return {
        "distinct": {
            # With the dup index, counting base tuples is local.
            True: customer.aggregate(aggregates=count).plan(),
            # Without it, DISTINCT over values must shuffle the rows.
            False: customer.select(
                ["c.c_custkey", "c.c_name"], distinct=True
            ).aggregate(aggregates=count).plan(),
        },
        "semi join": {
            flag: customer.semi_join(
                orders, on=[("c.c_custkey", "o.o_custkey")]
            ).aggregate(aggregates=count).plan()
            for flag in (True, False)
        },
        "anti join": {
            flag: customer.anti_join(
                orders, on=[("c.c_custkey", "o.o_custkey")]
            ).aggregate(aggregates=count).plan()
            for flag in (True, False)
        },
    }


def test_fig9_optimizations(benchmark, tpch_db, tpch_specs, report):
    cost = paper_cost_parameters(TPCH_SF)
    variants = tpch_variants(tpch_db, NODES, tpch_specs, SMALL_TABLES)
    config = variants["SD (wo small tables)"].configs[0]
    partitioned = partition_database(tpch_db, config)

    def experiment():
        results = {}
        for name, plans in _queries().items():
            for optimizations in (True, False):
                executor = Executor(
                    partitioned, ExecOptions(optimizations=optimizations)
                )
                result = executor.execute(plans[optimizations])
                results[(name, optimizations)] = (
                    result.simulated_seconds(cost),
                    result.rows,
                )
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = []
    for name in ("distinct", "semi join", "anti join"):
        with_opt, with_rows = results[(name, True)]
        without, without_rows = results[(name, False)]
        assert with_rows == without_rows, name  # same answers
        rows.append(
            (name, round(with_opt, 2), round(without, 2),
             round(without / with_opt, 1))
        )
    report(
        "fig9_optimizations",
        format_table(
            ["Query", "w opt (s)", "wo opt (s)", "speedup"],
            rows,
            title="Figure 9: effectiveness of the dup/hasS optimizations "
            f"(simulated, SF 10 / {NODES} nodes)",
        ),
    )
    speedups = {row[0]: row[3] for row in rows}
    assert speedups["anti join"] > 20  # paper: aborted after 1 hour
    assert speedups["semi join"] > 2
    # The dup-index count avoids the value-shuffle entirely; the linear
    # cost model bounds the visible speedup well below the paper's 100x
    # (MySQL's unoptimised DISTINCT was sort-based).
    assert speedups["distinct"] > 1.3


def test_q13_outer_join_rewrite(benchmark, tpch_db, tpch_specs, report):
    """The paper's Q13 anecdote (Section 5.1).

    Q13 (customer LEFT JOIN orders + two-level aggregation) exceeded the
    hour budget on the paper's testbed until rewritten with the Section
    2.2 optimizations, after which it finished in ~40 s.  Here: the
    locality-aware rewrite executes the outer join partition-locally; the
    locality-unaware execution re-partitions both inputs.
    """
    from repro.bench import materialize_variant
    from repro.workloads.tpch import ALL_QUERIES

    cost = paper_cost_parameters(TPCH_SF)
    variants = tpch_variants(tpch_db, NODES, tpch_specs, SMALL_TABLES)
    partitioned = materialize_variant(
        tpch_db, variants["WD (wo small tables)"]
    )[variants["WD (wo small tables)"].config_for("Q13")]

    def experiment():
        plan = ALL_QUERIES["Q13"]()
        local = Executor(partitioned, ExecOptions(locality=True)).execute(plan)
        remote = Executor(partitioned, ExecOptions(locality=False)).execute(plan)
        assert sorted(local.rows) == sorted(remote.rows)
        return (
            local.simulated_seconds(cost),
            remote.simulated_seconds(cost),
        )

    rewritten, naive = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(
        "fig9_q13_rewrite",
        format_table(
            ["Execution", "simulated seconds"],
            [
                ("Q13 rewritten (local outer join)", round(rewritten, 1)),
                ("Q13 locality-unaware (shuffled)", round(naive, 1)),
            ],
            title="Q13 outer-join rewrite (paper Section 5.1 anecdote)",
        ),
    )
    assert naive > rewritten
