"""Benchmark harness: experiment drivers for every table and figure."""

from repro.bench.harness import (
    paper_cost_parameters,
    AccuracyPoint,
    LocalityRedundancy,
    QueryRun,
    Variant,
    actual_redundancy,
    bulk_load_variant,
    estimation_accuracy,
    materialize_variant,
    measure_variant,
    run_workload,
    scaleout_redundancy,
    tpcds_variants,
    tpch_variants,
)
from repro.bench.reporting import format_table

__all__ = [
    "paper_cost_parameters",
    "AccuracyPoint",
    "LocalityRedundancy",
    "QueryRun",
    "Variant",
    "actual_redundancy",
    "bulk_load_variant",
    "estimation_accuracy",
    "format_table",
    "materialize_variant",
    "measure_variant",
    "run_workload",
    "scaleout_redundancy",
    "tpcds_variants",
    "tpch_variants",
]
