"""A single horizontal partition of a table, with PREF bookkeeping.

A partition stores its tuples column-wise — ``columns[c][i]`` is the value
of column ``c`` in stored row ``i``, ``None`` for NULL — which is exactly
the layout a scan hands to the engine, so scans alias the stored lists.
Three parallel lists describe each stored row:

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

Besides those five stored fields a partition holds exactly one derived
slot, :attr:`Partition.key_index`, kept between queries.  It holds two
kinds of entry, each a function of the stored columns built by one
routine: the hash tables joins build over its key columns
(:func:`build_key_table`, keyed by the key positions) and the buckets a
shuffle routes its rows into (:func:`build_buckets`, keyed by the key
positions and the target count).  The rule that keeps them right: every
mutator drops the slot, and no reader mutates an entry — a build
installs a new mapping and a probe or a shuffle only reads.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import compress, repeat
from operator import is_not, itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.errors import RowShapeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.partitioning.scheme import KeyMemo

Row = tuple


def row_key(positions: Sequence[int]) -> Callable[[Row], object]:
    """Row -> key function; scalars for single columns, tuples otherwise."""
    return itemgetter(*positions)


def index_lists(slots: Iterable[int], slot_count: int) -> list[list[int]]:
    """``lists[s]`` = the ascending indices ``i`` with ``slots[i] == s``."""
    lists: list[list[int]] = [[] for _ in range(slot_count)]
    for index, slot in enumerate(slots):
        lists[slot].append(index)
    return lists


def build_buckets(keys: Sequence, route: KeyMemo, count: int) -> list[array]:
    """The shuffle buckets of rows with *keys*: per target ``t`` of
    *count*, the ascending indices ``i`` with ``route[keys[i]] == t``, as
    an ``array('l')`` (no int object per row)."""
    return [array("l", rows) for rows in index_lists(route.map(keys), count)]


def build_key_table(
    columns: Sequence[list], try_unique: bool = True, compact: bool = False
) -> tuple[dict, bool]:
    """The hash table of a join's build side: ``(table, unique)``.

    *columns* are the key columns; a key is the bare value of one column
    or the tuple of several (as :func:`row_key`).  A key holding NULL
    never matches (SQL equality), so it never enters the table.  A key
    maps to its row indices, ascending; *unique* is True when no key
    repeats, and then every value is a bare row index.

    With *try_unique* the build is optimistic: ``dict(zip(keys,
    range(n)))`` runs at C speed and, when no key repeats (the common FK
    -> PK case), is the finished table.  Otherwise — or when the caller
    already knows keys repeat — one Python pass groups the rows: into a
    list per key, or with *compact* into the form worth keeping, a bare
    index for a key stored once and an ``array('l')`` for a repeated one
    (no int object or collectable list per row, at about twice the build
    time of the lists).
    """
    keys = columns[0] if len(columns) == 1 else list(zip(*columns))
    rows: Sequence[int] = range(len(keys))
    if any(None in column for column in columns):
        if len(columns) == 1:
            valid = list(map(is_not, keys, repeat(None)))
        else:
            valid = [None not in key for key in keys]
        rows = list(compress(rows, valid))
        keys = list(compress(keys, valid))
    if try_unique:
        table = dict(zip(keys, rows))
        if len(table) == len(keys):
            return table, True
    if compact:
        return _compact_groups(zip(rows, keys))
    lists: defaultdict = defaultdict(list)
    for index, key in zip(rows, keys):
        lists[key].append(index)
    return lists, False


def _compact_groups(pairs: Iterable[tuple[int, object]]) -> tuple[dict, bool]:
    """The compact table of ``(row index, key)`` *pairs*: one C-level
    ``setdefault`` a pair, and only a repeated key's rows take the branch
    that starts or extends its array."""
    table: dict = {}
    setdefault = table.setdefault
    unique = True
    for index, key in pairs:
        slot = setdefault(key, index)
        if slot is not index:  # the key was stored before
            if slot.__class__ is int:
                table[key] = array("l", (slot, index))
                unique = False
            else:
                slot.append(index)
    return table, unique


class Partition:
    """Columns of one partition plus the PREF bitmap indexes."""

    __slots__ = (
        "partition_id", "columns", "source_ids", "dup", "has_partner",
        "key_index",
    )

    def __init__(self, partition_id: int, width: int) -> None:
        self.partition_id = partition_id
        self.columns: list[list] = [[] for _ in range(width)]
        self.source_ids: list[int] = []
        self.dup: list[int] = []
        self.has_partner: list[int] = []
        #: Derived, not stored: key positions -> the compact join table
        #: over those columns, or None where it was built once and not
        #: kept (:meth:`key_table`); (key positions, count) -> the shuffle
        #: buckets (:meth:`buckets`).  The whole slot is None after a write.
        self.key_index: dict[tuple, dict | list[array] | None] | None = None

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
        self.key_index = None
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
        self.key_index = None
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
        self.key_index = None
        for column, value in zip(self.columns, row):
            column[index] = value

    def set_has_partner(self, index: int, has_partner: bool = True) -> None:
        """Set the ``hasS`` bit of stored row *index*."""
        self.key_index = None
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

    def key_table(
        self, positions: tuple[int, ...], try_unique: bool = True
    ) -> tuple[dict, bool]:
        """:func:`build_key_table` over the columns at *positions*.

        From the second build since the last write on, a table in which
        some key repeats is built compact and kept in :attr:`key_index`
        until the next write.  A unique one is a single C-level call to
        rebuild and is not worth its memory, so it is built per call.

        Concurrent readers race benignly: their builds are identical and
        the last install wins.  A write must not overlap a read (the
        serving layer's readers-writer lock sees to it), or a table built
        from the old columns could be installed after the write's drop.
        """
        index = self.key_index or {}
        table = index.get(positions)
        if table is not None:
            return table, False
        # The first build since a write only notes the positions: a
        # partition written between every two reads (bulk loading) never
        # pays for the compact form, and the next build keeps it.
        compact = positions in index
        table, unique = build_key_table(
            [self.columns[position] for position in positions],
            try_unique,
            compact,
        )
        if not unique:
            # Installed whole, never updated in place: a concurrent reader
            # holding the previous mapping still sees a consistent one.
            self.key_index = {**index, positions: table if compact else None}
        return table, unique

    def buckets(
        self, positions: tuple[int, ...], count: int, route: KeyMemo
    ) -> list[array]:
        """:func:`build_buckets` over the columns at *positions*: the
        stored rows a shuffle on those columns sends to each of *count*
        targets, built on the first call since the last write and kept in
        :attr:`key_index` until the next one.

        *route* must be a pure ``key -> stable_hash(key) % count`` memo
        (the store's :meth:`~repro.storage.partitioned.PartitionedDatabase.
        router`), so the buckets are a function of the columns alone.
        Concurrent readers race as :meth:`key_table`'s do.
        """
        index = self.key_index or {}
        entry = (positions, count)
        kept = index.get(entry)
        if kept is None:
            kept = build_buckets(self.keys(positions), route, count)
            self.key_index = {**index, entry: kept}
        return kept

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
