"""A single horizontal partition of a table, with PREF bookkeeping.

A partition stores its tuples column-wise — ``columns[c][i]`` is the value
of column ``c`` in stored row ``i``, ``None`` for NULL — which is exactly
the layout a scan hands to the engine, so scans alias the stored lists and
nothing derived can go stale.  Three parallel lists describe each stored
row:

* ``source_ids`` — the global id of the base tuple each stored row is a copy
  of.  PREF partitioning may place copies of the same base tuple in several
  partitions; all copies share a source id.  This is what lets tests prove
  that duplicate elimination keeps exactly one copy of every logical row.
* ``dup`` — the paper's first bitmap index: 0 for the canonical (first)
  occurrence of a base tuple across all partitions, 1 for every other copy.
* ``has_partner`` — the paper's ``hasS`` bitmap index: 1 if the tuple has at
  least one partitioning partner in the referenced table (drives the
  semi-/anti-join rewrites of Section 2.2).

Readers (the engine included) must treat every stored list as read-only;
all mutation goes through :meth:`Partition.extend`, :meth:`compress`,
:meth:`set_row` and :meth:`set_has_partner`.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from repro.errors import RowShapeError

Row = tuple


def row_key(positions: Sequence[int]) -> Callable[[Row], object]:
    """Row -> key function; scalars for single columns, tuples otherwise."""
    return itemgetter(*positions)


class Partition:
    """Columns of one partition plus the PREF bitmap indexes."""

    __slots__ = ("partition_id", "columns", "source_ids", "dup", "has_partner")

    def __init__(self, partition_id: int, width: int) -> None:
        self.partition_id = partition_id
        self.columns: list[list] = [[] for _ in range(width)]
        self.source_ids: list[int] = []
        self.dup: list[int] = []
        self.has_partner: list[int] = []

    # -- mutation ------------------------------------------------------------

    def extend(
        self,
        rows: Sequence[Row],
        source_ids: Sequence[int],
        dup: Sequence[int],
        has_partner: Sequence[int],
    ) -> None:
        """Store a batch of (copies of) tuples, in order.

        *dup* and *has_partner* are 0/1 ints parallel to *rows*.  Nothing
        is written if any row does not match the partition's width.
        """
        if not rows:
            return
        try:
            values = list(zip(*rows, strict=True))
        except ValueError:
            values = ()
        if len(values) != len(self.columns):
            raise RowShapeError(
                f"partition {self.partition_id}: rows do not all have "
                f"{len(self.columns)} values"
            )
        for column, column_values in zip(self.columns, values):
            column.extend(column_values)
        self.source_ids.extend(source_ids)
        self.dup.extend(dup)
        self.has_partner.extend(has_partner)

    def append(
        self,
        row: Sequence,
        source_id: int,
        duplicate: bool = False,
        has_partner: bool = True,
    ) -> None:
        """Store one (copy of a) tuple in this partition."""
        self.extend(
            [tuple(row)], [source_id], [int(duplicate)], [int(has_partner)]
        )

    def compress(self, keep: Sequence[object]) -> None:
        """Drop every stored row whose *keep* entry is falsy, in order."""
        self.columns = [list(compress(column, keep)) for column in self.columns]
        self.source_ids = list(compress(self.source_ids, keep))
        self.dup = list(compress(self.dup, keep))
        self.has_partner = list(compress(self.has_partner, keep))

    def set_row(self, index: int, row: Row) -> None:
        """Overwrite the values of stored row *index*."""
        if len(row) != len(self.columns):
            raise RowShapeError(
                f"partition {self.partition_id}: row has {len(row)} values, "
                f"expected {len(self.columns)}"
            )
        for column, value in zip(self.columns, row):
            column[index] = value

    def set_has_partner(self, index: int, has_partner: bool = True) -> None:
        """Set the ``hasS`` bit of stored row *index*."""
        self.has_partner[index] = int(has_partner)

    # -- reading -------------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of stored rows (counting duplicates)."""
        return len(self.source_ids)

    @property
    def duplicate_count(self) -> int:
        """Number of rows flagged as PREF duplicates."""
        return sum(self.dup)

    @property
    def rows(self) -> list[Row]:
        """The stored rows as tuples — a fresh list, not the store."""
        return list(zip(*self.columns))

    def row(self, index: int) -> Row:
        """Stored row *index* as a tuple."""
        return tuple(column[index] for column in self.columns)

    def keys(self, positions: Sequence[int]) -> Sequence:
        """The key of every stored row under the columns at *positions*.

        Scalars for a single column (the stored column itself — read-only),
        tuples otherwise; the same convention as :func:`row_key`.
        """
        if len(positions) == 1:
            return self.columns[positions[0]]
        return list(zip(*(self.columns[position] for position in positions)))

    def canonical_rows(self) -> Iterator[Row]:
        """Yield only rows whose ``dup`` bit is 0."""
        return (row for row, dup in zip(self, self.dup) if not dup)

    def __len__(self) -> int:
        return len(self.source_ids)

    def __iter__(self) -> Iterator[Row]:
        return zip(*self.columns)

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"Partition(id={self.partition_id}, rows={self.row_count}, "
            f"dups={self.duplicate_count})"
        )
