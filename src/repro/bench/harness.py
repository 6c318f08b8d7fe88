"""Experiment drivers behind every table and figure of the paper.

Each public function corresponds to one experiment family; the files in
``benchmarks/`` call these and print the paper-style tables.  All results
are derived from actually materialising the partitioned databases and
physically executing queries on the simulated cluster.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.design.baselines import (
    StarDesign,
    all_hashed,
    all_replicated,
    classical_individual_stars,
    classical_partitioning,
    sd_individual_stars,
)
from repro.design.graph import SchemaGraph
from repro.design.locality import satisfied_edges
from repro.design.schema_driven import SchemaDrivenDesigner
from repro.design.workload import QuerySpec
from repro.design.workload_driven import WorkloadDrivenDesigner
from repro.partitioning.bulk_loader import BulkLoader, BulkLoadStats
from repro.partitioning.config import PartitioningConfig
from repro.partitioning.partitioner import empty_store, partition_database
from repro.partitioning.scheme import HashScheme, ReplicatedScheme
from repro.query.cost import CostParameters
from repro.query.executor import Executor
from repro.query.options import ExecOptions
from repro.query.plan import PlanNode
from repro.storage.partitioned import PartitionedDatabase
from repro.storage.table import Database


def paper_cost_parameters(scale_factor: float) -> CostParameters:
    """Cost parameters extrapolating a scaled-down run to the paper's setup.

    The paper ran TPC-H SF 10 on ten m1.medium nodes; benchmarks here run
    a small scale factor and extrapolate rows by ``10 / scale_factor``.
    CPU cost is calibrated so a full lineitem scan per node lands near the
    paper's Q1 runtime; the memory budget models the nodes' 3.75 GB.
    """
    return CostParameters(
        row_scale=10.0 / scale_factor,
        cpu_tuple_seconds=1e-6,
        memory_rows_per_node=3e6,
        spill_pass_factor=1.0,
    )


@dataclass
class Variant:
    """One partitioning design under evaluation.

    A variant is one or more physical partitioning configurations (WD has
    one per fragment, "individual stars" one per star) plus a router that
    maps query names to the configuration holding their tables.

    Attributes:
        name: Display name as used in the paper's figures.
        configs: The physical configurations.
        router: Query name -> config index (defaults to 0 for all).
        data_locality: Pre-computed DL if the design algorithm reported
            one (WD); otherwise computed from the schema graph.
    """

    name: str
    configs: list[PartitioningConfig]
    router: dict[str, int] = field(default_factory=dict)
    data_locality: float | None = None

    def config_for(self, query: str) -> int:
        return self.router.get(query, 0)


# --------------------------------------------------------------------------
# Variant construction (the designs compared in Section 5)
# --------------------------------------------------------------------------


def tpch_variants(
    database: Database,
    partition_count: int,
    workload: Sequence[QuerySpec],
    small_tables: Sequence[str],
    sampling_rate: float = 1.0,
    include_baselines: bool = False,
) -> dict[str, Variant]:
    """The TPC-H comparison variants of Sections 5.1-5.3."""
    variants: dict[str, Variant] = {}
    if include_baselines:
        variants["All Hashed"] = Variant(
            "All Hashed", [all_hashed(database, partition_count)]
        )
        variants["All Replicated"] = Variant(
            "All Replicated", [all_replicated(database, partition_count)]
        )
    variants["Classical"] = Variant(
        "Classical", [classical_partitioning(database, partition_count)]
    )
    designer = SchemaDrivenDesigner(
        database, partition_count, sampling_rate=sampling_rate
    )
    sd = designer.design(replicate=small_tables)
    variants["SD (wo small tables)"] = Variant(
        "SD (wo small tables)", [sd.config], data_locality=sd.data_locality
    )
    partitioned_tables = [
        t for t in database.schema.table_names if t not in set(small_tables)
    ]
    sd_nored = designer.design(
        replicate=small_tables, no_redundancy=partitioned_tables
    )
    variants["SD (wo small tables, wo redundancy)"] = Variant(
        "SD (wo small tables, wo redundancy)",
        [sd_nored.config],
        data_locality=sd_nored.data_locality,
    )
    wd = WorkloadDrivenDesigner(
        database, partition_count, sampling_rate=sampling_rate
    ).design(workload, replicate=small_tables)
    variants["WD (wo small tables)"] = _wd_variant(
        "WD (wo small tables)", wd, database, partition_count, small_tables,
        workload=workload,
    )
    return variants


def tpcds_variants(
    database: Database,
    partition_count: int,
    workload: Sequence[QuerySpec],
    small_tables: Sequence[str],
    fact_tables: Sequence[str],
    sampling_rate: float = 1.0,
) -> dict[str, Variant]:
    """The TPC-DS comparison variants of Figure 11(b)."""
    variants: dict[str, Variant] = {}
    variants["All Hashed"] = Variant(
        "All Hashed", [all_hashed(database, partition_count)]
    )
    variants["All Replicated"] = Variant(
        "All Replicated", [all_replicated(database, partition_count)]
    )
    variants["CP Naive"] = Variant(
        "CP Naive", [classical_partitioning(database, partition_count)]
    )
    cp_stars = classical_individual_stars(
        database, partition_count, fact_tables
    )
    variants["CP Ind. Stars"] = _star_variant("CP Ind. Stars", cp_stars)
    sd = SchemaDrivenDesigner(
        database, partition_count, sampling_rate=sampling_rate
    ).design(replicate=small_tables)
    variants["SD Naive"] = Variant(
        "SD Naive", [sd.config], data_locality=sd.data_locality
    )
    sd_stars = sd_individual_stars(
        database,
        partition_count,
        fact_tables,
        exclude=small_tables,
        sampling_rate=sampling_rate,
    )
    variants["SD Ind. Stars"] = _star_variant("SD Ind. Stars", sd_stars)
    wd = WorkloadDrivenDesigner(
        database, partition_count, sampling_rate=sampling_rate
    ).design(workload, replicate=small_tables)
    variants["WD"] = _wd_variant(
        "WD", wd, database, partition_count, small_tables, workload=workload
    )
    return variants


def _wd_variant(
    name: str,
    wd_result,
    database: Database,
    partition_count: int,
    small_tables: Sequence[str],
    workload: Sequence[QuerySpec] = (),
) -> Variant:
    """Turn a WD result into a Variant (one config per fragment, with the
    replicated small tables added to every fragment).

    Queries are routed per the paper: to the fragment that contains the
    query's tables with minimal data-redundancy for them.  When *workload*
    specs are given, routing uses their table sets; fragment membership is
    the fallback.
    """
    from repro.design.estimator import RedundancyEstimator

    configs = []
    router: dict[str, int] = {}
    replicated = set(small_tables)
    for index, fragment in enumerate(wd_result.fragments):
        config = PartitioningConfig(partition_count)
        for table, scheme in fragment.config:
            config.add(table, scheme)
        for table in small_tables:
            if table not in config and database.schema.has_table(table):
                config.add(table, ReplicatedScheme(partition_count))
        configs.append(config)
        for query in fragment.queries:
            router[query] = index
    from repro.design.workload_driven import route_to_config

    estimator = RedundancyEstimator(database, partition_count)
    for spec in workload:
        needed = set(spec.tables) - replicated
        if not needed:
            continue
        choice = route_to_config(needed, configs, estimator)
        if choice is not None:
            router[spec.name] = choice
    return Variant(
        name, configs, router=router, data_locality=wd_result.data_locality
    )


def _star_variant(name: str, stars: StarDesign) -> Variant:
    configs = list(stars.stars.values())
    router = {}
    for index, fact in enumerate(stars.stars):
        router[fact] = index
    return Variant(name, configs, router=router)


# --------------------------------------------------------------------------
# DL / DR measurement (Table 1, Figure 11)
# --------------------------------------------------------------------------


@dataclass
class LocalityRedundancy:
    """One row of Table 1 / Figure 11."""

    variant: str
    data_locality: float
    data_redundancy: float


def measure_variant(
    database: Database,
    variant: Variant,
    graph: SchemaGraph,
) -> LocalityRedundancy:
    """Actual DL and DR of a variant (DR by materialising the partitions)."""
    if variant.data_locality is not None:
        locality = variant.data_locality
    else:
        satisfied = []
        for config in variant.configs:
            satisfied.extend(satisfied_edges(graph, config))
        from repro.design.graph import data_locality as dl

        locality = dl(graph, satisfied)
    redundancy = actual_redundancy(database, variant)
    return LocalityRedundancy(variant.name, locality, redundancy)


def actual_redundancy(database: Database, variant: Variant) -> float:
    """Materialise every configuration and measure DR.

    Tables that appear in several configurations with an identical scheme
    (same kind, columns and PREF chain) are stored once.
    """
    from repro.design.workload_driven import _scheme_signature

    seen: set[tuple] = set()
    stored = 0
    base_tables: set[str] = set()
    for config in variant.configs:
        partitioned = partition_database(database, config)
        for table in config.tables:
            signature = (table, _scheme_signature(config, table))
            if signature in seen:
                continue
            seen.add(signature)
            stored += partitioned.table(table).total_rows
            base_tables.add(table)
    base = sum(database.table(t).row_count for t in base_tables)
    if base == 0:
        return 0.0
    return stored / base - 1.0


# --------------------------------------------------------------------------
# Query runtime (Figures 7, 8, 9)
# --------------------------------------------------------------------------


@dataclass
class QueryRun:
    """Simulated execution result of one query under one variant."""

    query: str
    seconds: float
    network_bytes: int
    shuffles: int
    max_node_work: float
    stats: object = None
    #: Per-operator × per-node breakdown (engine OperatorStats), in plan
    #: post-order.
    operators: list = field(default_factory=list)
    #: The run's :class:`~repro.obs.span.QueryTrace` (``analyze=True``).
    trace: object = None


def materialize_variant(
    database: Database,
    variant: Variant,
) -> list[PartitionedDatabase]:
    """Partition the database once per configuration of the variant."""
    return [
        partition_database(database, _covering(database, config))
        for config in variant.configs
    ]


def _covering(database: Database, config: PartitioningConfig) -> PartitioningConfig:
    """Extend *config* so every table of the database is available.

    Fragment configurations only hold the tables of their MAST; queries
    routed to them may also touch other tables, which are added hashed on
    their primary key (a neutral default).
    """
    covering = PartitioningConfig(config.partition_count)
    for table, scheme in config:
        covering.add(table, scheme)
    for table in database.schema.table_names:
        if table in covering:
            continue
        table_schema = database.schema.table(table)
        columns = table_schema.primary_key or (table_schema.columns[0].name,)
        covering.add(table, HashScheme(tuple(columns), config.partition_count))
    return covering


def run_workload(
    database: Database,
    variant: Variant,
    queries: Mapping[str, PlanNode],
    cost: CostParameters | None = None,
    backend=None,
    analyze: bool = True,
    options: ExecOptions | None = None,
) -> dict[str, QueryRun]:
    """Execute *queries* under *variant*, returning simulated runtimes.

    *backend* selects the engine scheduling backend shared by every
    executor of the variant — a :class:`~repro.engine.backends.Backend`
    instance or a name from :data:`~repro.engine.backends.BACKENDS`
    (default: serial execution).  With *analyze* (the default) every run
    carries its query trace, so fig* results come with per-operator
    measured locality and skew attached.  *options* is the
    :class:`~repro.query.options.ExecOptions` of every executor.
    """
    from repro.engine.backends import make_backend

    cost = cost or CostParameters()
    backend = make_backend(backend)
    executors = [
        Executor(dp, options, backend=backend, cost=cost)
        for dp in materialize_variant(database, variant)
    ]
    runs: dict[str, QueryRun] = {}
    for name, plan in queries.items():
        executor = executors[variant.config_for(name)]
        result = executor.execute(plan, analyze=analyze, query_name=name)
        runs[name] = QueryRun(
            query=name,
            seconds=result.simulated_seconds(cost),
            network_bytes=result.stats.network_bytes,
            shuffles=result.stats.shuffle_count,
            max_node_work=result.stats.max_node_work,
            stats=result.stats,
            operators=result.operators,
            trace=result.trace,
        )
    return runs


# --------------------------------------------------------------------------
# Bulk loading (Figure 10)
# --------------------------------------------------------------------------


def bulk_load_variant(
    database: Database,
    variant: Variant,
) -> BulkLoadStats:
    """Bulk load the entire database under *variant*, via the loader.

    Tables shared between configurations with identical schemes are loaded
    once (as in :func:`actual_redundancy`).
    """
    from repro.design.workload_driven import _scheme_signature

    total = BulkLoadStats()
    seen: set[tuple] = set()
    for config in variant.configs:
        loader = BulkLoader(empty_store(database.schema, config), config)
        for table in config.load_order():
            stats = loader.insert(
                table, database.table(table).rows, maintain_referencing=False
            )
            signature = (table, _scheme_signature(config, table))
            if signature not in seen:
                seen.add(signature)
                total.merge(stats)
    return total


# --------------------------------------------------------------------------
# Scale-out (Figure 12)
# --------------------------------------------------------------------------


def scaleout_redundancy(
    database: Database,
    variant_builder: Callable[[int], Variant],
    node_counts: Sequence[int],
) -> list[tuple[int, float]]:
    """DR of a design as the cluster grows (the design re-runs per size)."""
    series = []
    for count in node_counts:
        variant = variant_builder(count)
        series.append((count, actual_redundancy(database, variant)))
    return series


# --------------------------------------------------------------------------
# Estimation accuracy (Figure 13)
# --------------------------------------------------------------------------


@dataclass
class AccuracyPoint:
    """One sampling-rate point of Figure 13."""

    sampling_rate: float
    error: float
    runtime_seconds: float


def estimation_accuracy(
    database: Database,
    partition_count: int,
    small_tables: Sequence[str],
    sampling_rates: Sequence[float],
) -> list[AccuracyPoint]:
    """SD redundancy-estimate error and design runtime per sampling rate."""
    points = []
    for rate in sampling_rates:
        started = time.perf_counter()
        designer = SchemaDrivenDesigner(
            database, partition_count, sampling_rate=rate
        )
        result = designer.design(replicate=small_tables)
        runtime = time.perf_counter() - started
        estimated = result.estimated_redundancy
        # DR of the config includes the replicated small tables; compare
        # the estimate (partitioned tables only) against the same scope.
        actual = _partitioned_only_redundancy(
            database, result.config, small_tables
        )
        error = abs(estimated - actual) / actual if actual else abs(estimated)
        points.append(AccuracyPoint(rate, error, runtime))
    return points


def _partitioned_only_redundancy(
    database: Database,
    config: PartitioningConfig,
    small_tables: Sequence[str],
) -> float:
    partitioned = partition_database(database, config)
    excluded = set(small_tables)
    stored = sum(
        partitioned.table(t).total_rows
        for t in config.tables
        if t not in excluded
    )
    base = sum(
        database.table(t).row_count for t in config.tables if t not in excluded
    )
    if base == 0:
        return 0.0
    return stored / base - 1.0
