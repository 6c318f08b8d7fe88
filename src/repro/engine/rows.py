"""Row- and batch-level containers shared by the operators and executors.

Kept free of module-level ``repro.query`` imports so it can be imported
from any point of the engine/query import graph without re-entering a
package initialiser mid-import.

The execution engine moves data between physical operators as
:class:`ColumnBatch` payloads — a column-oriented container whose columns
are plain Python lists.  SQL NULL is ``None`` in the value list; a kernel
picks its no-NULL fast path with one C-level ``None in column`` scan.
A batch may be *pruned*: a column no operator above will read is an
absent slot (``None`` in :attr:`ColumnBatch.columns`), positions
unchanged.  Absent is not NULL — every read of an absent column raises.
The row-oriented helpers (``_sort_key`` and friends) remain for the
coordinator-side paths (sorting, the single-node oracle) that genuinely
work tuple by tuple.
"""

from __future__ import annotations

from itertools import compress
from operator import eq, itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Iterable,
    Iterator,
    Sequence,
)

from repro.errors import ExecutionError

if TYPE_CHECKING:
    from repro.query.relation import RelProps

Row = tuple


def _sort_key(value: object) -> tuple:
    """Total ordering across None and arbitrary mixed values.

    NULLs sort first, then booleans/numbers (NaN deterministically after
    every ordered number), then strings, then everything else grouped by
    type name.  Ranking by type keeps the comparison total even when one
    column mixes ints and strings (or stranger values) across batches —
    Python would raise TypeError on ``3 < "a"``, and a merely per-type
    key would make ``sorted`` order-dependent.
    """
    if value is None:
        return (0, 0, 0)
    if isinstance(value, bool):
        return (1, 0, int(value))
    if isinstance(value, (int, float)):
        if value != value:  # NaN: no order among numbers; pin it after them
            return (1, 1, 0)
        return (1, 0, value)
    if isinstance(value, str):
        return (2, 0, value)
    return (3, 0, (type(value).__name__, str(value)))


_NUMBER_TYPES = frozenset({bool, int, float})


def row_sort_key(column: Sequence, position: int) -> Callable[[Row], object]:
    """A sort key of rows whose value at *position* is drawn from
    *column*, ordering them as :func:`_sort_key` of that value does.

    When the column holds only ``bool``/``int``/``float`` with no NaN,
    or only ``str``, the bare value orders (and ties) exactly as its
    :func:`_sort_key` does, so the key is a C-level ``itemgetter``;
    otherwise it is :func:`_sort_key` of the value.
    """
    types = set(map(type, column))
    if types == {str} or (
        types <= _NUMBER_TYPES
        # A NaN is the one value unequal to itself.
        and (float not in types or all(map(eq, column, column)))
    ):
        return itemgetter(position)
    return lambda row: _sort_key(row[position])


def _null_free_key(key: tuple) -> bool:
    """SQL equality: a join key containing NULL never matches anything.

    Keyed join paths must skip NULL-bearing keys on both sides instead of
    letting Python's ``None == None`` pair them up.
    """
    return all(value is not None for value in key)


def _null_pad(props: RelProps) -> Row:
    """Null padding for outer joins; hidden dup bits pad to 0, not NULL,
    so padded rows survive PREF duplicate elimination exactly once."""
    from repro.query.relation import is_hidden

    return tuple(0 if is_hidden(column) else None for column in props.columns)


class ColumnBatch:
    """A batch of rows stored column-wise: the engine's data payload.

    Attributes:
        columns: One slot per column of the relation: a plain Python list
            (all of equal length, SQL NULL stored as ``None``), or
            ``None`` for a column pruned because nothing above reads it.
            Read a column through :meth:`column`, which raises on a
            pruned slot; the transforms carry pruned slots through.
        length: Number of rows (kept explicitly so zero-column batches —
            e.g. a scalar aggregate's input projection — still know their
            cardinality).

    Batches are immutable by convention: operators build new batches from
    old columns (which may be aliased, never mutated in place).
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: list[list], length: int | None = None) -> None:
        if length is None:
            length = len(columns[0]) if columns else 0
        self.columns = columns
        self.length = length

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Row], width: int) -> "ColumnBatch":
        """Transpose *rows* (each of *width* fields) into a batch."""
        if not rows:
            return cls([[] for _ in range(width)], 0)
        return cls([list(column) for column in zip(*rows)], len(rows))

    @classmethod
    def empty(cls, width: int) -> "ColumnBatch":
        """A zero-row batch of *width* columns."""
        return cls([[] for _ in range(width)], 0)

    @staticmethod
    def concat(batches: Sequence["ColumnBatch"], width: int) -> "ColumnBatch":
        """Concatenate *batches* (all of *width* columns, all pruned
        alike) in order."""
        batches = [batch for batch in batches if batch.length]
        if not batches:
            return ColumnBatch.empty(width)
        if len(batches) == 1:
            return batches[0]
        columns: list[list | None] = []
        for index in range(width):
            first = batches[0].columns[index]
            if first is None:
                columns.append(None)
                continue
            merged = list(first)
            for batch in batches[1:]:
                merged.extend(batch.column(index))
            columns.append(merged)
        return ColumnBatch(columns, sum(batch.length for batch in batches))

    # -- shape -------------------------------------------------------------

    @property
    def width(self) -> int:
        """Number of columns (pruned slots included)."""
        return len(self.columns)

    def column(self, index: int) -> list:
        """The values of column *index*; raises if it was pruned."""
        column = self.columns[index]
        if column is None:
            raise ExecutionError(
                f"column {index} was pruned as dead, but something reads it"
            )
        return column

    def present(self) -> frozenset[int]:
        """The positions of the columns that are not pruned."""
        return frozenset(
            index
            for index, column in enumerate(self.columns)
            if column is not None
        )

    def prune(self, live: Collection[int]) -> "ColumnBatch":
        """This batch with only the columns at *live* left (aliased)."""
        return ColumnBatch(
            [
                column if index in live else None
                for index, column in enumerate(self.columns)
            ],
            self.length,
        )

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnBatch):
            return NotImplemented
        return self.length == other.length and self.columns == other.columns

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return f"ColumnBatch({self.width} cols x {self.length} rows)"

    def has_nulls(self, index: int) -> bool:
        """True if column *index* contains any NULL."""
        return None in self.column(index)

    # -- row views ---------------------------------------------------------

    def to_rows(self) -> list[Row]:
        """The batch as a list of row tuples (raises if pruned)."""
        return list(self.iter_rows())

    def iter_rows(self) -> Iterator[Row]:
        """Iterate over the rows as tuples (raises if pruned: an absent
        column has no value to put in a row, and NULL would be a wrong
        one)."""
        if not self.columns:
            return iter([()] * self.length)
        return zip(*map(self.column, range(len(self.columns))))

    # -- transforms (always produce new batches) ---------------------------

    def select(self, positions: Sequence[int]) -> "ColumnBatch":
        """A batch holding only the columns at *positions* (aliased)."""
        return ColumnBatch([self.column(p) for p in positions], self.length)

    def compress(self, mask: Sequence[object]) -> "ColumnBatch":
        """Rows whose *mask* entry is truthy (None counts as false)."""
        if len(mask) != self.length:
            # itertools.compress would stop at the shorter input.
            raise ExecutionError(
                f"a mask of {len(mask)} entries cannot filter "
                f"{self.length} rows"
            )
        columns = [
            None if column is None else list(compress(column, mask))
            for column in self.columns
        ]
        for column in columns:
            if column is not None:
                return ColumnBatch(columns, len(column))
        return ColumnBatch(columns, sum(map(bool, mask)))

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """The rows at *indices*, in that order (indices may repeat)."""
        if len(indices) > 1:
            # One C-level call per column, the getter built once for all.
            gather = itemgetter(*indices)
        else:
            # itemgetter() raises on no index and returns a bare value
            # for one.
            def gather(column: list) -> list:
                return [column[index] for index in indices]

        return ColumnBatch(
            [
                None if column is None else list(gather(column))
                for column in self.columns
            ],
            len(indices),
        )

    def key_tuples(self, positions: Sequence[int]) -> list[tuple]:
        """Per-row key tuples over the columns at *positions*.

        Matches the row engine's ``tuple(row[p] for p in positions)``;
        with no positions every row keys to ``()``.
        """
        if not positions:
            return [()] * self.length
        return list(zip(*(self.column(p) for p in positions)))

    def key_values(self, positions: Sequence[int]) -> list:
        """Shuffle keys: the bare column for one position, tuples else."""
        if len(positions) == 1:
            return self.column(positions[0])
        return self.key_tuples(positions)


def distinct_batch(batch: ColumnBatch) -> ColumnBatch:
    """Row-level DISTINCT preserving first-occurrence order.

    The batch equivalent of ``list(dict.fromkeys(rows))``.
    """
    rows = dict.fromkeys(batch.iter_rows())
    if len(rows) == batch.length:
        return batch
    return ColumnBatch.from_rows(list(rows), batch.width)


def pad_take(
    column: list, indices: Sequence[int], pad_value: object
) -> list:
    """``[column[i] for i in indices]`` with ``-1`` mapping to *pad_value*.

    The outer-join gather: ``-1`` marks a probe row with no match, whose
    build-side columns fill with the null pad.
    """
    return [pad_value if i < 0 else column[i] for i in indices]


def all_false_mask(masks: Iterable[Sequence[object]], length: int) -> list[bool]:
    """Per-row ``True`` where every mask entry is falsy.

    Used by PREF dedup: a row is canonical when all governing dup bits
    are 0.
    """
    masks = list(masks)
    if not masks:
        return [True] * length
    if len(masks) == 1:
        return [not value for value in masks[0]]
    return [not any(values) for values in zip(*masks)]
