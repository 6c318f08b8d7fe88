"""Tests for the cluster facade and the benchmark harness."""

import pytest

from helpers import pref_chain_config
from repro.bench import (
    Variant,
    actual_redundancy,
    bulk_load_variant,
    estimation_accuracy,
    measure_variant,
    paper_cost_parameters,
    run_workload,
    scaleout_redundancy,
    tpch_variants,
)
from repro.cluster import SimulatedCluster
from repro.design import QuerySpec, SchemaGraph
from repro.workloads.tpch import ALL_QUERIES, SMALL_TABLES


class TestSimulatedCluster:
    def test_partition_and_sql(self, shop_db):
        cluster = SimulatedCluster.partition(shop_db, pref_chain_config(4))
        result = cluster.sql("SELECT COUNT(*) AS n FROM orders o")
        assert result.rows == [(shop_db.table("orders").row_count,)]
        assert cluster.node_count == 4

    def test_explain(self, shop_db):
        cluster = SimulatedCluster.partition(shop_db, pref_chain_config(4))
        text = cluster.explain(
            "SELECT c.cname, COUNT(*) AS n FROM customer c JOIN orders o "
            "ON c.custkey = o.custkey GROUP BY c.cname"
        )
        assert "Join" in text and "pref" in text

    def test_bulk_loader_attached(self, shop_db):
        cluster = SimulatedCluster.partition(shop_db, pref_chain_config(4))
        before = cluster.partitioned.table("nation").canonical_row_count
        cluster.loader.insert("nation", [(99, "atlantis")])
        assert (
            cluster.partitioned.table("nation").canonical_row_count == before + 1
        )

    def test_data_redundancy(self, shop_db):
        cluster = SimulatedCluster.partition(shop_db, pref_chain_config(4))
        assert cluster.data_redundancy() > 0


@pytest.fixture(scope="module")
def tpch_setup(small_tpch):
    specs = [
        QuerySpec.from_plan(name, build(), small_tpch.schema)
        for name, build in ALL_QUERIES.items()
    ]
    variants = tpch_variants(small_tpch, 4, specs, SMALL_TABLES)
    return small_tpch, variants


class TestHarness:
    def test_variants_built(self, tpch_setup):
        _db, variants = tpch_setup
        assert set(variants) == {
            "Classical",
            "SD (wo small tables)",
            "SD (wo small tables, wo redundancy)",
            "WD (wo small tables)",
        }

    def test_measure_variant_reproduces_table1_shape(self, tpch_setup):
        db, variants = tpch_setup
        graph = SchemaGraph.from_schema(db.schema, db.table_sizes())
        rows = {
            name: measure_variant(db, variant, graph)
            for name, variant in variants.items()
        }
        assert rows["Classical"].data_locality == pytest.approx(1.0)
        assert rows["SD (wo small tables)"].data_locality == pytest.approx(1.0)
        assert rows["WD (wo small tables)"].data_locality == pytest.approx(1.0)
        nored = rows["SD (wo small tables, wo redundancy)"]
        assert nored.data_locality == pytest.approx(0.7, abs=0.1)
        # Redundancy ordering: wo-red < SD < Classical (paper Table 1).
        assert (
            nored.data_redundancy
            < rows["SD (wo small tables)"].data_redundancy
            < rows["Classical"].data_redundancy
        )

    def test_run_workload_routes_wd_queries(self, tpch_setup):
        db, variants = tpch_setup
        queries = {name: ALL_QUERIES[name]() for name in ("Q3", "Q16")}
        runs = run_workload(
            db, variants["WD (wo small tables)"], queries,
            cost=paper_cost_parameters(0.002),
        )
        assert set(runs) == {"Q3", "Q16"}
        assert all(run.seconds > 0 for run in runs.values())

    def test_bulk_load_variant(self, tpch_setup):
        db, variants = tpch_setup
        stats = bulk_load_variant(db, variants["Classical"])
        assert stats.rows_in == sum(
            db.table(t).row_count for t in variants["Classical"].configs[0].tables
        )
        assert stats.copies_written > stats.rows_in  # replication
        pref_stats = bulk_load_variant(db, variants["SD (wo small tables)"])
        assert pref_stats.index_lookups > 0

    def test_scaleout_redundancy_monotone_for_cp(self, tpch_setup):
        db, _variants = tpch_setup
        from repro.design import classical_partitioning

        def build(count):
            return Variant("cp", [classical_partitioning(db, count)])

        series = scaleout_redundancy(db, build, [1, 2, 4, 8])
        values = [dr for _n, dr in series]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_estimation_accuracy_returns_points(self, tpch_setup):
        db, _variants = tpch_setup
        points = estimation_accuracy(db, 4, SMALL_TABLES, [0.5, 1.0])
        assert len(points) == 2
        assert points[1].error == pytest.approx(points[1].error)
        assert points[1].error < 0.6  # full scan should be quite accurate
        assert all(p.runtime_seconds > 0 for p in points)

    def test_actual_redundancy_shares_identical_schemes(self, tpch_setup):
        db, variants = tpch_setup
        single = variants["SD (wo small tables)"]
        doubled = Variant("dup", [single.configs[0], single.configs[0]])
        assert actual_redundancy(db, doubled) == pytest.approx(
            actual_redundancy(db, single)
        )
