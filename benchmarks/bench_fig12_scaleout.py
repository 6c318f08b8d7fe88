"""Figure 12: data-redundancy as the cluster grows from 1 to 100 nodes.

Paper reference: classical partitioning's DR grows linearly with the node
count (every replicated table is copied to every new node), while SD and
WD grow sub-linearly (PREF duplicates saturate), so PREF-based designs
scale out much better.
"""

from conftest import TPCDS_SF, TPCH_SF

from repro.bench import (
    Variant,
    format_table,
    scaleout_redundancy,
    tpch_variants,
)
from repro.design import (
    SchemaDrivenDesigner,
    WorkloadDrivenDesigner,
    classical_partitioning,
    sd_individual_stars,
)
from repro.workloads import tpcds, tpch

NODE_COUNTS = [1, 2, 5, 10, 20, 50, 100]


def _tpch_builders(database, specs):
    def cp(count):
        return Variant("cp", [classical_partitioning(database, count)])

    def sd(count):
        result = SchemaDrivenDesigner(database, count).design(
            replicate=tpch.SMALL_TABLES
        )
        return Variant("sd", [result.config])

    def wd(count):
        from repro.bench.harness import _wd_variant

        result = WorkloadDrivenDesigner(database, count).design(
            specs, replicate=tpch.SMALL_TABLES
        )
        return _wd_variant("wd", result, database, count, tpch.SMALL_TABLES)

    return {"CP (wo small tables)": cp, "SD (wo small tables)": sd,
            "WD (wo small tables)": wd}


def test_fig12a_tpch_scaleout(benchmark, tpch_db, tpch_specs, report):
    builders = _tpch_builders(tpch_db, tpch_specs)

    def experiment():
        return {
            name: scaleout_redundancy(tpch_db, builder, NODE_COUNTS)
            for name, builder in builders.items()
        }

    series = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        (count,)
        + tuple(round(series[name][i][1], 2) for name in builders)
        for i, count in enumerate(NODE_COUNTS)
    ]
    report(
        "fig12a_tpch_scaleout",
        format_table(
            ["nodes"] + list(builders),
            rows,
            title="Figure 12(a): TPC-H data-redundancy vs cluster size",
        ),
    )
    _assert_growth_shapes(series, cp_name="CP (wo small tables)")


def test_fig12b_tpcds_scaleout(benchmark, tpcds_db, tpcds_specs, report):
    def cp_stars(count):
        design = sd_stars = None
        stars = None
        from repro.design import classical_individual_stars

        stars = classical_individual_stars(
            tpcds_db, count, tpcds.FACT_TABLES
        )
        return Variant("cp-stars", list(stars.stars.values()))

    def sd_stars(count):
        stars = sd_individual_stars(
            tpcds_db, count, tpcds.FACT_TABLES, exclude=tpcds.SMALL_TABLES
        )
        return Variant("sd-stars", list(stars.stars.values()))

    def wd(count):
        from repro.bench.harness import _wd_variant

        result = WorkloadDrivenDesigner(tpcds_db, count).design(
            tpcds_specs, replicate=tpcds.SMALL_TABLES
        )
        return _wd_variant("wd", result, tpcds_db, count, tpcds.SMALL_TABLES)

    builders = {
        "CP (Individual Stars)": cp_stars,
        "SD (Individual Stars)": sd_stars,
        "WD (wo small tables)": wd,
    }

    def experiment():
        return {
            name: scaleout_redundancy(tpcds_db, builder, NODE_COUNTS)
            for name, builder in builders.items()
        }

    series = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        (count,)
        + tuple(round(series[name][i][1], 2) for name in builders)
        for i, count in enumerate(NODE_COUNTS)
    ]
    report(
        "fig12b_tpcds_scaleout",
        format_table(
            ["nodes"] + list(builders),
            rows,
            title="Figure 12(b): TPC-DS data-redundancy vs cluster size",
        ),
    )
    _assert_growth_shapes(series, cp_name="CP (Individual Stars)")


def _assert_growth_shapes(series, cp_name):
    """CP grows linearly with n; PREF designs grow sub-linearly."""
    for name, points in series.items():
        values = dict(points)
        growth_10_to_100 = values[100] - values[10]
        if name == cp_name:
            # Linear: +90 nodes adds close to 90x the per-node replica cost.
            assert growth_10_to_100 > 5 * (values[10] - values[5] + 1e-9) or (
                growth_10_to_100 > 1.0
            )
        else:
            # Sub-linear: the jump from 10 to 100 nodes is far below the
            # replication-style factor-10 growth.
            assert values[100] < values[10] * 6 + 1.0
    cp_values = dict(series[cp_name])
    for name, points in series.items():
        if name != cp_name:
            assert dict(points)[100] < cp_values[100]
