"""Integration: all 22 TPC-H queries, distributed vs reference, per variant."""

import pytest

from helpers import assert_same_rows
from repro.bench import materialize_variant, tpch_variants
from repro.design import QuerySpec
from repro.partitioning import check_pref_invariants
from repro.query import ExecOptions, Executor, LocalExecutor
from repro.workloads.tpch import ALL_QUERIES, SMALL_TABLES


@pytest.fixture(scope="module")
def setup(small_tpch):
    specs = [
        QuerySpec.from_plan(name, build(), small_tpch.schema)
        for name, build in ALL_QUERIES.items()
    ]
    variants = tpch_variants(small_tpch, 5, specs, SMALL_TABLES)
    local = LocalExecutor(small_tpch)
    expected = {
        name: local.execute(build()).rows for name, build in ALL_QUERIES.items()
    }
    return small_tpch, variants, expected


@pytest.mark.parametrize(
    "variant_name",
    [
        "Classical",
        "SD (wo small tables)",
        "SD (wo small tables, wo redundancy)",
        "WD (wo small tables)",
    ],
)
def test_all_queries_match_reference(setup, variant_name):
    database, variants, expected = setup
    variant = variants[variant_name]
    partitioned = materialize_variant(database, variant)
    executors = [Executor(dp) for dp in partitioned]
    for name, build in ALL_QUERIES.items():
        executor = executors[variant.config_for(name)]
        actual = executor.execute(build()).rows
        try:
            assert_same_rows(actual, expected[name], places=4)
        except AssertionError as error:
            raise AssertionError(f"{variant_name} / {name}: {error}") from error


def test_designed_configs_hold_invariants(setup):
    database, variants, _expected = setup
    for variant in variants.values():
        for config in variant.configs:
            from repro.partitioning import partition_database

            partitioned = partition_database(database, config)
            check_pref_invariants(partitioned, config, exact=True)


def test_unoptimized_execution_also_correct(setup):
    database, variants, expected = setup
    variant = variants["SD (wo small tables)"]
    partitioned = materialize_variant(database, variant)
    executor = Executor(partitioned[0], ExecOptions(optimizations=False))
    for name in ("Q4", "Q13", "Q20", "Q22"):  # semi/anti/outer heavy
        actual = executor.execute(ALL_QUERIES[name]()).rows
        assert_same_rows(actual, expected[name], places=4)
