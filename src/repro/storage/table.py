"""Row-oriented in-memory tables and databases (the unpartitioned store).

Tables hold rows as plain Python tuples aligned with their
:class:`~repro.catalog.schema.TableSchema`.  This is the ``D`` of the paper:
the non-partitioned database that the design algorithms and the partitioner
take as input, and that the reference executor runs against when
cross-checking distributed results.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.catalog.schema import DatabaseSchema, TableSchema
from repro.catalog.statistics import FrequencyHistogram, build_histogram
from repro.errors import RowShapeError, UnknownObjectError

Row = tuple


class Table:
    """A named collection of rows conforming to a :class:`TableSchema`."""

    def __init__(
        self,
        schema: TableSchema,
        rows: Iterable[Sequence] = (),
        validate: bool = False,
    ) -> None:
        self.schema = schema
        self._rows: list[Row] = []
        self.extend(rows, validate=validate)

    @property
    def name(self) -> str:
        """The table name (from its schema)."""
        return self.schema.name

    @property
    def rows(self) -> list[Row]:
        """The rows, in insertion order.  Treat as read-only."""
        return self._rows

    def append(self, row: Sequence, validate: bool = False) -> None:
        """Append one row, optionally validating shape and types."""
        row = tuple(row)
        if validate:
            self._validate(row)
        self._rows.append(row)

    def extend(self, rows: Iterable[Sequence], validate: bool = False) -> None:
        """Append many rows."""
        if validate:
            for row in rows:
                self.append(row, validate=True)
        else:
            self._rows.extend(tuple(row) for row in rows)

    def _validate(self, row: Row) -> None:
        if len(row) != len(self.schema):
            raise RowShapeError(
                f"table {self.name!r}: row has {len(row)} values, "
                f"schema has {len(self.schema)} columns"
            )
        for value, column in zip(row, self.schema.columns):
            if not column.accepts(value):
                raise RowShapeError(
                    f"table {self.name!r}: value {value!r} is not legal for "
                    f"column {column}"
                )

    def column_values(self, column: str) -> list:
        """All values of *column*, in row order."""
        position = self.schema.position(column)
        return [row[position] for row in self._rows]

    def key_values(self, columns: Sequence[str]) -> list:
        """Values of a (possibly composite) key.

        Single-column keys come back as scalars, composite keys as tuples,
        matching how join keys are hashed throughout the library.
        """
        positions = self.schema.positions(columns)
        if len(positions) == 1:
            position = positions[0]
            return [row[position] for row in self._rows]
        return [tuple(row[position] for position in positions) for row in self._rows]

    def histogram(
        self,
        columns: Sequence[str],
        sampling_rate: float = 1.0,
        seed: int = 0,
    ) -> FrequencyHistogram:
        """Frequency histogram of a (composite) key, optionally sampled."""
        return build_histogram(
            self.key_values(columns), sampling_rate=sampling_rate, seed=seed
        )

    @property
    def row_count(self) -> int:
        """Number of rows."""
        return len(self._rows)

    @property
    def byte_size(self) -> int:
        """Nominal size in bytes (rows x schema row width)."""
        return self.row_count * self.schema.row_byte_width

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return f"Table({self.name!r}, {self.row_count} rows)"


class Database:
    """The unpartitioned database ``D``: a schema plus one Table per name."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self._tables: dict[str, Table] = {
            name: Table(table_schema)
            for name, table_schema in schema.tables.items()
        }

    def table(self, name: str) -> Table:
        """Return the table called *name*."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownObjectError(f"no table {name!r}") from None

    @property
    def tables(self) -> Mapping[str, Table]:
        """Read-only view of the tables by name."""
        return dict(self._tables)

    @property
    def table_names(self) -> tuple[str, ...]:
        """All table names."""
        return tuple(self._tables)

    def load(self, name: str, rows: Iterable[Sequence], validate: bool = False) -> None:
        """Bulk-append rows into table *name*."""
        self.table(name).extend(rows, validate=validate)

    @property
    def total_rows(self) -> int:
        """Total row count across all tables (|D| in the paper)."""
        return sum(table.row_count for table in self._tables.values())

    def table_sizes(self) -> dict[str, int]:
        """Row counts by table name (edge weights of the schema graph)."""
        return {name: table.row_count for name, table in self._tables.items()}

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return f"Database({len(self._tables)} tables, {self.total_rows} rows)"
