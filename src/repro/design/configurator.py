"""Enumeration of PREF partitioning configurations over a MAST (Listing 1).

Given a maximum spanning forest, every enumerated configuration follows the
same pattern: per tree one table is the *seed* (hash-partitioned on the join
attribute of its heaviest incident edge) and every other table is
recursively PREF-partitioned along the tree edges.  The configuration with
the minimum estimated partitioned size wins.

The multi-seed extension (paper Section 3.4) additionally enumerates
configurations whose trees are cut into several regions, each with its own
seed, which is how user-given no-redundancy constraints are satisfied at
the cost of some data-locality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.catalog.schema import DatabaseSchema
from repro.design.estimator import RedundancyEstimator
from repro.design.graph import GraphEdge, SchemaGraph
from repro.errors import DesignError
from repro.partitioning.config import PartitioningConfig
from repro.partitioning.scheme import (
    HashScheme,
    PrefScheme,
    RangeScheme,
    RoundRobinScheme,
)


@dataclass
class TreeConfig:
    """A configuration for one forest plus its estimated size."""

    config: PartitioningConfig
    estimated_size: float
    seeds: tuple[str, ...]
    kept_edges: tuple[GraphEdge, ...]
    cut_edges: tuple[GraphEdge, ...] = ()


def find_optimal_config(
    forest_edges: Sequence[GraphEdge],
    tables: Iterable[str],
    schema: DatabaseSchema,
    estimator: RedundancyEstimator,
    partition_count: int,
    no_redundancy: frozenset[str] = frozenset(),
    max_seeds: int = 4,
    seed_scheme: str = "hash",
) -> TreeConfig:
    """Find the minimum-redundancy configuration for a spanning forest.

    Implements Listing 1 (one seed per tree) and, when *no_redundancy*
    constraints cannot be met that way, the multi-seed extension: cut sets
    of increasing size are removed from the trees (largest kept weight
    first, i.e. maximal data-locality) until a feasible configuration
    exists.

    Args:
        forest_edges: Edges of the maximum spanning forest.
        tables: All tables to configure (isolated nodes included).
        schema: Database schema (for primary keys in the constraint check).
        estimator: Redundancy estimator over the base data.
        partition_count: Number of partitions.
        no_redundancy: Tables that must not receive duplicate tuples.
        max_seeds: Upper bound on seeds per tree for constraint search.
        seed_scheme: Scheme for seed tables — ``hash`` (the paper's
            choice), ``range`` (quantile boundaries from the data), or
            ``round_robin``.  Definition 1 admits any seed scheme.

    Returns:
        The best feasible :class:`TreeConfig`.

    Raises:
        DesignError: If no feasible configuration exists within max_seeds.
    """
    tables = list(tables)
    base = _enumerate_over_cut(
        forest_edges,
        tables,
        schema,
        estimator,
        partition_count,
        cut=(),
        no_redundancy=no_redundancy,
        seed_scheme=seed_scheme,
    )
    if base is not None:
        return base
    if not no_redundancy:  # pragma: no cover - base always feasible then
        raise DesignError("no configuration found")
    edges = sorted(forest_edges, key=lambda e: (e.weight, e.key()))
    for extra_cuts in range(1, max_seeds):
        candidates = []
        for cut in itertools.combinations(edges, extra_cuts):
            kept_weight = sum(e.weight for e in forest_edges) - sum(
                e.weight for e in cut
            )
            candidates.append((kept_weight, cut))
        # Maximal data-locality first (paper: DL monotonically decreases
        # with more seeds, so the first feasible cut level is optimal).
        candidates.sort(key=lambda item: -item[0])
        best: TreeConfig | None = None
        best_weight: int | None = None
        for kept_weight, cut in candidates:
            if best is not None and kept_weight < best_weight:
                break
            result = _enumerate_over_cut(
                forest_edges,
                tables,
                schema,
                estimator,
                partition_count,
                cut=cut,
                no_redundancy=no_redundancy,
                seed_scheme=seed_scheme,
            )
            if result is None:
                continue
            if best is None or result.estimated_size < best.estimated_size:
                best = result
                best_weight = kept_weight
        if best is not None:
            return best
    raise DesignError(
        f"no configuration satisfies no-redundancy constraints "
        f"{sorted(no_redundancy)} within {max_seeds} seeds"
    )


def _enumerate_over_cut(
    forest_edges: Sequence[GraphEdge],
    tables: list[str],
    schema: DatabaseSchema,
    estimator: RedundancyEstimator,
    partition_count: int,
    cut: tuple[GraphEdge, ...],
    no_redundancy: frozenset[str],
    seed_scheme: str = "hash",
) -> TreeConfig | None:
    """Enumerate seed choices for the forest with *cut* edges removed."""
    cut_keys = {edge.key() for edge in cut}
    kept = [edge for edge in forest_edges if edge.key() not in cut_keys]
    graph = SchemaGraph(dict.fromkeys(tables, 0), kept)
    components = graph.connected_components()
    total_size = 0.0
    combined = PartitioningConfig(partition_count)
    seeds: list[str] = []
    for component in components:
        component_edges = [edge for edge in kept if edge.tables <= component]
        best = _best_seed_config(
            component,
            component_edges,
            schema,
            estimator,
            partition_count,
            no_redundancy,
            seed_scheme,
        )
        if best is None:
            return None
        config, size, seed = best
        for table, scheme in config:
            combined.add(table, scheme)
        total_size += size
        seeds.append(seed)
    return TreeConfig(
        config=combined,
        estimated_size=total_size,
        seeds=tuple(sorted(seeds)),
        kept_edges=tuple(kept),
        cut_edges=tuple(cut),
    )


def _best_seed_config(
    component: set[str],
    edges: list[GraphEdge],
    schema: DatabaseSchema,
    estimator: RedundancyEstimator,
    partition_count: int,
    no_redundancy: frozenset[str],
    seed_scheme: str = "hash",
) -> tuple[PartitioningConfig, float, str] | None:
    """Listing 1 over one tree: try every node as the seed table."""
    best: tuple[PartitioningConfig, float, str] | None = None
    for seed in sorted(component):
        config = _build_config(
            seed, component, edges, schema, partition_count,
            estimator=estimator, seed_scheme=seed_scheme,
        )
        if not _satisfies_constraints(config, schema, no_redundancy):
            continue
        size = estimator.estimate_database_size(config)
        if best is None or size < best[1]:
            best = (config, size, seed)
    return best


def _build_config(
    seed: str,
    component: set[str],
    edges: list[GraphEdge],
    schema: DatabaseSchema,
    partition_count: int,
    estimator: RedundancyEstimator | None = None,
    seed_scheme: str = "hash",
) -> PartitioningConfig:
    """Seed scheme + recursive PREF along the tree (addPREF)."""
    config = PartitioningConfig(partition_count)
    columns = _seed_columns(seed, edges, schema)
    config.add(
        seed,
        _make_seed_scheme(
            seed_scheme, seed, columns, partition_count, estimator
        ),
    )
    adjacency: dict[str, list[GraphEdge]] = {}
    for edge in edges:
        for table in edge.tables:
            adjacency.setdefault(table, []).append(edge)
    frontier = [seed]
    while frontier:
        referenced = frontier.pop()
        for edge in adjacency.get(referenced, ()):
            referencing = edge.predicate.other_table(referenced)
            if referencing in config:
                continue
            config.add(
                referencing,
                PrefScheme(referenced_table=referenced, predicate=edge.predicate),
            )
            frontier.append(referencing)
    return config


def _make_seed_scheme(
    seed_scheme: str,
    table: str,
    columns: tuple[str, ...],
    partition_count: int,
    estimator: RedundancyEstimator | None,
):
    """Instantiate the requested seed partitioning scheme."""
    if seed_scheme == "hash":
        return HashScheme(columns, partition_count)
    if seed_scheme == "round_robin":
        return RoundRobinScheme(partition_count)
    if seed_scheme == "range":
        if estimator is None:
            raise DesignError("range seeds need data access for boundaries")
        values = sorted(
            estimator.database.table(table).column_values(columns[0])
        )
        if not values:
            raise DesignError(f"table {table!r} is empty; cannot derive ranges")
        boundaries = []
        for index in range(1, partition_count):
            position = min(
                len(values) - 1, index * len(values) // partition_count
            )
            boundaries.append(values[position])
        boundaries = tuple(sorted(set(boundaries)))
        if not boundaries:
            return HashScheme(columns, partition_count)
        return RangeScheme(columns[0], boundaries)
    raise DesignError(f"unknown seed scheme {seed_scheme!r}")


def _seed_columns(
    seed: str, edges: list[GraphEdge], schema: DatabaseSchema
) -> tuple[str, ...]:
    """Seed partitioning attributes: its heaviest incident edge's join key.

    Falls back to the primary key (then the first column) for isolated
    tables.
    """
    incident = [edge for edge in edges if seed in edge.tables]
    if incident:
        heaviest = max(incident, key=lambda e: (e.weight, e.key()))
        return heaviest.predicate.columns_of(seed)
    table = schema.table(seed)
    if table.primary_key:
        return table.primary_key
    return (table.columns[0].name,)


def _satisfies_constraints(
    config: PartitioningConfig,
    schema: DatabaseSchema,
    no_redundancy: frozenset[str],
) -> bool:
    """Structural no-redundancy check (paper Section 3.4 rule).

    A table is redundancy-free iff it is a seed, or it is PREF-partitioned
    referencing a redundancy-free table through a predicate whose
    referenced columns cover that table's primary key (then every tuple
    has at most one partitioning partner, as in classic REF partitioning).
    """
    return all(
        is_redundancy_free(table, config, schema) for table in no_redundancy
        if table in config
    )


def is_redundancy_free(
    table: str,
    config: PartitioningConfig,
    schema: DatabaseSchema,
) -> bool:
    """Whether *table* provably receives no duplicates under *config*."""
    scheme = config.scheme_of(table)
    if not isinstance(scheme, PrefScheme):
        return scheme.kind.value != "replicated"
    referenced = scheme.referenced_table
    referenced_pk = schema.table(referenced).primary_key
    if not referenced_pk:
        return False
    if not set(referenced_pk) <= set(scheme.referenced_columns):
        return False
    return is_redundancy_free(referenced, config, schema)
