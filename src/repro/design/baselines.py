"""Baseline partitioning designs the paper compares against (Section 5).

* **Classical partitioning (CP)** — the textbook warehouse design: hash
  co-partition the biggest table and its biggest connected table on their
  join key, replicate everything else.
* **All Hashed** — every table hash-partitioned on its primary key
  (maximal parallelism, zero locality).
* **All Replicated** — every table on every node (maximal locality,
  DR = n - 1).
* **Individual stars** — manually split a galaxy schema (TPC-DS) into one
  star per fact table (dimension tables duplicated at the cuts), then
  apply CP or SD per star.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.catalog.schema import DatabaseSchema
from repro.design.schema_driven import SchemaDrivenDesigner
from repro.errors import DesignError
from repro.partitioning.config import PartitioningConfig
from repro.partitioning.scheme import HashScheme, ReplicatedScheme
from repro.storage.table import Database


def classical_partitioning(
    database: Database,
    partition_count: int,
    exclude: Iterable[str] = (),
) -> PartitioningConfig:
    """CP: co-hash the two biggest connected tables, replicate the rest."""
    schema = database.schema
    sizes = {
        name: size
        for name, size in database.table_sizes().items()
        if name not in set(exclude)
    }
    if not sizes:
        raise DesignError("no tables to partition")
    biggest = max(sizes, key=lambda name: (sizes[name], name))
    partner, predicate = _biggest_connected(schema, sizes, biggest)
    config = PartitioningConfig(partition_count)
    if partner is None:
        config.add(biggest, _pk_hash(schema, biggest, partition_count))
    else:
        config.add(
            biggest,
            HashScheme(predicate.columns_of(biggest), partition_count),
        )
        config.add(
            partner,
            HashScheme(predicate.columns_of(partner), partition_count),
        )
    for table in sorted(sizes):
        if table not in config:
            config.add(table, ReplicatedScheme(partition_count))
    return config


def all_hashed(
    database: Database,
    partition_count: int,
    exclude: Iterable[str] = (),
) -> PartitioningConfig:
    """Every table hash-partitioned on its primary key."""
    config = PartitioningConfig(partition_count)
    for table in database.schema.table_names:
        if table in set(exclude):
            continue
        config.add(table, _pk_hash(database.schema, table, partition_count))
    return config


def all_replicated(
    database: Database,
    partition_count: int,
    exclude: Iterable[str] = (),
) -> PartitioningConfig:
    """Every table fully replicated."""
    config = PartitioningConfig(partition_count)
    for table in database.schema.table_names:
        if table in set(exclude):
            continue
        config.add(table, ReplicatedScheme(partition_count))
    return config


@dataclass
class StarDesign:
    """A multi-star design: one configuration per fact-table star.

    Dimension tables shared between stars exist once per star whose scheme
    differs (the paper's "duplicate dimension tables at the cut").
    """

    stars: dict[str, PartitioningConfig]
    star_tables: dict[str, frozenset[str]]


def split_into_stars(
    schema: DatabaseSchema,
    fact_tables: Iterable[str],
) -> dict[str, frozenset[str]]:
    """Star membership: each fact plus every table reachable from it via
    outgoing foreign keys (its dimensions, possibly snowflaked)."""
    stars: dict[str, frozenset[str]] = {}
    for fact in fact_tables:
        members = {fact}
        frontier = [fact]
        while frontier:
            current = frontier.pop()
            for fk in schema.foreign_keys_of(current):
                if fk.source_table == current and fk.target_table not in members:
                    members.add(fk.target_table)
                    frontier.append(fk.target_table)
        stars[fact] = frozenset(members)
    return stars


def classical_individual_stars(
    database: Database,
    partition_count: int,
    fact_tables: Iterable[str],
    exclude: Iterable[str] = (),
) -> StarDesign:
    """CP applied per star (paper's CP Individual Stars variant)."""
    stars = split_into_stars(database.schema, fact_tables)
    excluded = set(exclude)
    configs: dict[str, PartitioningConfig] = {}
    members: dict[str, frozenset[str]] = {}
    for fact, tables in stars.items():
        keep = tables - excluded
        star_db = _restricted_database(database, keep)
        configs[fact] = classical_partitioning(star_db, partition_count)
        members[fact] = frozenset(keep)
    return StarDesign(configs, members)


def sd_individual_stars(
    database: Database,
    partition_count: int,
    fact_tables: Iterable[str],
    exclude: Iterable[str] = (),
    sampling_rate: float = 1.0,
) -> StarDesign:
    """SD applied per star (paper's SD Individual Stars variant)."""
    stars = split_into_stars(database.schema, fact_tables)
    excluded = set(exclude)
    configs: dict[str, PartitioningConfig] = {}
    members: dict[str, frozenset[str]] = {}
    for fact, tables in stars.items():
        keep = tables - excluded
        star_db = _restricted_database(database, keep)
        designer = SchemaDrivenDesigner(
            star_db, partition_count, sampling_rate=sampling_rate
        )
        configs[fact] = designer.design().config
        members[fact] = frozenset(keep)
    return StarDesign(configs, members)


def _pk_hash(
    schema: DatabaseSchema, table: str, partition_count: int
) -> HashScheme:
    table_schema = schema.table(table)
    columns = table_schema.primary_key or (table_schema.columns[0].name,)
    return HashScheme(tuple(columns), partition_count)


def _biggest_connected(
    schema: DatabaseSchema,
    sizes: Mapping[str, int],
    biggest: str,
):
    """The biggest table connected to *biggest* via a foreign key."""
    best = None
    best_predicate = None
    for fk in schema.foreign_keys_of(biggest):
        other = (
            fk.target_table if fk.source_table == biggest else fk.source_table
        )
        if other not in sizes:
            continue
        if best is None or sizes[other] > sizes[best]:
            best = other
            from repro.partitioning.predicate import JoinPredicate

            best_predicate = JoinPredicate(
                fk.source_table,
                fk.source_columns,
                fk.target_table,
                fk.target_columns,
            )
    return best, best_predicate


def _restricted_database(database: Database, tables: frozenset[str]) -> Database:
    """A view of *database* restricted to *tables* (rows shared, not copied)."""
    restricted_schema = database.schema.restricted_to(tables)
    restricted = Database(restricted_schema)
    for table in tables:
        restricted._tables[table] = database.table(table)
    return restricted
