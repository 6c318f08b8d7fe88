"""Partitioning configurations: one scheme per table, with validation.

A configuration is the output of the design algorithms (paper Sections 3/4)
and the input of the partitioner: it assigns every table either a seed scheme
(HASH/RANGE/ROUND_ROBIN), REPLICATED, or PREF referencing another configured
table.  The PREF references must form a forest (no cycles), rooted at seed
tables.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.catalog.schema import DatabaseSchema
from repro.errors import InvalidConfigurationError
from repro.partitioning.predicate import JoinPredicate
from repro.partitioning.scheme import (
    PartitioningScheme,
    PatchedPrefScheme,
    PrefScheme,
    SchemeKind,
)


class PartitioningConfig:
    """An assignment of partitioning schemes to table names."""

    def __init__(self, partition_count: int) -> None:
        if partition_count < 1:
            raise InvalidConfigurationError("partition_count must be >= 1")
        self.partition_count = partition_count
        self._schemes: dict[str, PartitioningScheme] = {}

    # -- construction ---------------------------------------------------------

    def add(self, table: str, scheme: PartitioningScheme) -> "PartitioningConfig":
        """Assign *scheme* to *table* (chainable)."""
        if table in self._schemes:
            raise InvalidConfigurationError(
                f"table {table!r} already has a scheme"
            )
        count = getattr(scheme, "partition_count", None)
        if count is not None and count != self.partition_count:
            raise InvalidConfigurationError(
                f"scheme for {table!r} uses {count} partitions, "
                f"configuration uses {self.partition_count}"
            )
        if isinstance(scheme, PrefScheme) and scheme.referenced_table == table:
            raise InvalidConfigurationError(
                f"table {table!r} cannot PREF-reference itself"
            )
        self._schemes[table] = scheme
        return self

    def __contains__(self, table: str) -> bool:
        return table in self._schemes

    def scheme_of(self, table: str) -> PartitioningScheme:
        """The scheme assigned to *table*."""
        try:
            return self._schemes[table]
        except KeyError:
            raise InvalidConfigurationError(
                f"table {table!r} has no scheme in this configuration"
            ) from None

    @property
    def schemes(self) -> Mapping[str, PartitioningScheme]:
        """Read-only view of the scheme assignment."""
        return dict(self._schemes)

    @property
    def tables(self) -> tuple[str, ...]:
        """All configured table names."""
        return tuple(self._schemes)

    # -- structure -------------------------------------------------------------

    def seed_tables(self) -> tuple[str, ...]:
        """Tables with a non-PREF, non-replicated scheme."""
        return tuple(
            table
            for table, scheme in self._schemes.items()
            if scheme.kind.is_seed and scheme.kind is not SchemeKind.REPLICATED
        )

    def pref_tables(self) -> tuple[str, ...]:
        """Tables with a PREF scheme."""
        return tuple(
            table
            for table, scheme in self._schemes.items()
            if scheme.kind is SchemeKind.PREF
        )

    def referencing_tables(self, table: str) -> tuple[str, ...]:
        """Tables whose PREF scheme references *table* directly."""
        return tuple(
            name
            for name, scheme in self._schemes.items()
            if isinstance(scheme, PrefScheme)
            and scheme.referenced_table == table
        )

    def write_closure(self, table: str) -> frozenset[str]:
        """*table* plus every table that references it, transitively: the
        tables whose stored contents a write to *table* can touch (PREF
        locality maintenance copies referencing tuples along)."""
        seen: set[str] = set()
        frontier = [table]
        while frontier:
            current = frontier.pop()
            if current not in seen:
                seen.add(current)
                frontier.extend(self.referencing_tables(current))
        return frozenset(seen)

    def chain_to_seed(self, table: str) -> list[tuple[str, JoinPredicate]]:
        """The PREF chain from *table* to its seed.

        Returns ``[(referenced_table, predicate), ...]`` hops; empty for seed
        tables.  Raises on cycles or dangling references.
        """
        hops: list[tuple[str, JoinPredicate]] = []
        seen = {table}
        current = table
        while True:
            scheme = self.scheme_of(current)
            if not isinstance(scheme, PrefScheme):
                return hops
            referenced = scheme.referenced_table
            if referenced in seen:
                raise InvalidConfigurationError(
                    f"PREF cycle detected through table {referenced!r}"
                )
            seen.add(referenced)
            hops.append((referenced, scheme.predicate))
            current = referenced

    def seed_of(self, table: str) -> str:
        """The seed table of *table*'s PREF chain (itself for seed schemes)."""
        hops = self.chain_to_seed(table)
        return hops[-1][0] if hops else table

    def load_order(self) -> list[str]:
        """Tables in an order where referenced tables precede referencing ones."""
        order: list[str] = []
        placed: set[str] = set()

        def place(table: str, trail: tuple[str, ...]) -> None:
            if table in placed:
                return
            if table in trail:
                raise InvalidConfigurationError(
                    f"PREF cycle detected through table {table!r}"
                )
            scheme = self.scheme_of(table)
            if isinstance(scheme, PrefScheme):
                place(scheme.referenced_table, trail + (table,))
            placed.add(table)
            order.append(table)

        for table in self._schemes:
            place(table, ())
        return order

    # -- validation --------------------------------------------------------------

    def validate(self, schema: DatabaseSchema) -> None:
        """Check the configuration against a database schema.

        Verifies that every configured table exists, PREF references point at
        configured non-replicated tables, predicates mention real columns,
        and the PREF graph is acyclic.
        """
        for table, scheme in self._schemes.items():
            table_schema = schema.table(table)  # raises if unknown
            for column in getattr(scheme, "columns", ()):
                if not table_schema.has_column(column):
                    raise InvalidConfigurationError(
                        f"scheme for {table!r} partitions on unknown column "
                        f"{column!r}"
                    )
            if isinstance(scheme, PrefScheme):
                referenced = scheme.referenced_table
                if referenced not in self._schemes:
                    raise InvalidConfigurationError(
                        f"table {table!r} PREF-references {referenced!r}, "
                        "which has no scheme in this configuration"
                    )
                if self.scheme_of(referenced).kind is SchemeKind.REPLICATED:
                    raise InvalidConfigurationError(
                        f"table {table!r} PREF-references the replicated "
                        f"table {referenced!r}; co-partitioning with a "
                        "replicated table is degenerate"
                    )
                if isinstance(self.scheme_of(referenced), PatchedPrefScheme):
                    raise InvalidConfigurationError(
                        f"table {table!r} PREF-references the patched table "
                        f"{referenced!r}; stored copies of a patched table "
                        "do not cover all partner partitions, so chained "
                        "co-location would be unsound"
                    )
                if scheme.predicate.tables != frozenset((table, referenced)):
                    raise InvalidConfigurationError(
                        f"PREF predicate for {table!r} connects "
                        f"{set(scheme.predicate.tables)}, expected "
                        f"{{{table!r}, {referenced!r}}}"
                    )
                referenced_schema = schema.table(referenced)
                for column in scheme.predicate.columns_of(table):
                    if not table_schema.has_column(column):
                        raise InvalidConfigurationError(
                            f"PREF predicate column {table}.{column} "
                            "does not exist"
                        )
                for column in scheme.predicate.columns_of(referenced):
                    if not referenced_schema.has_column(column):
                        raise InvalidConfigurationError(
                            f"PREF predicate column {referenced}.{column} "
                            "does not exist"
                        )
        self.load_order()  # raises on cycles

    def describe(self) -> str:
        """A human-readable, deterministic description of the configuration."""
        lines = []
        for table in sorted(self._schemes):
            scheme = self._schemes[table]
            if isinstance(scheme, PrefScheme):
                lines.append(
                    f"{table}: PREF on {scheme.referenced_table} "
                    f"by {scheme.predicate}"
                )
            else:
                columns = ",".join(getattr(scheme, "columns", ()))
                suffix = f"({columns})" if columns else ""
                lines.append(f"{table}: {scheme.kind.value.upper()}{suffix}")
        return "\n".join(lines)

    def __iter__(self) -> Iterator[tuple[str, PartitioningScheme]]:
        return iter(self._schemes.items())

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"PartitioningConfig({len(self._schemes)} tables, "
            f"{self.partition_count} partitions)"
        )
