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
all mutation goes through :meth:`Partition.extend`, :meth:`compress` and
:meth:`set_row`.  Every mutator changes the stored lists in place and
never replaces one: ``extend`` appends, ``set_row`` assigns, and
``compress`` deletes the dropped rows.  A rebuilt list is a young
object holding every stored value, and each cyclic-GC collection the
next queries trigger walks it; removing a few rows costs per removed run
instead.  Scans alias the lists across writes, which is safe because a
write never overlaps a read (the serving layer's readers-writer lock).

Besides those five stored fields a partition holds exactly one derived
slot, :attr:`Partition.key_index`, kept between queries.  It holds three
kinds of entry, each a function of the stored columns built by one
routine: the hash tables joins build over its key columns
(:func:`build_key_table`, keyed by the key positions), the buckets a
shuffle routes its rows into (:func:`build_buckets`, keyed by the key
positions and the target count), and per column read by a filter the
rows of its non-NULL values in sorted order (:func:`build_sorted_column`,
keyed by ``("sorted", position)``) and whether it holds a NULL (keyed
by ``("null", position)``).  The rule that keeps them right: every
mutator drops every entry but the NULL flags, which it updates exactly
(a flag it cannot vouch for goes too), and no reader mutates an entry —
a build installs a new mapping and a probe, a shuffle or a filter only
reads.
Beside the slot, a write count (:attr:`Partition.writes`) tells a
reader whether the stored rows changed since it last looked.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import compress, islice, repeat
from math import sqrt
from operator import is_not, itemgetter, le, truth
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.errors import RowShapeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.partitioning.scheme import KeyMemo

Row = tuple

#: Dropped runs, per square root of the stored row count, up to which
#: :meth:`Partition.compress` deletes run by run; past them, one C-level
#: rewrite per stored list is cheaper.  A run costs a ``del`` per list
#: (a call and a memmove of the later pointers); the rewrite touches
#: every kept value.  On 18 lists (a ``lineitem`` partition) with runs
#: of 1–3 rows the break-even was about 38, 75, 160, 290 and 390 runs at
#: 200, 600, 1 200, 5 000 and 20 000 rows: it grows with the rows, but
#: more slowly than they do (0.19 runs a row at 200, 0.02 at 20 000),
#: so a share per row would keep deleting at 20 000 rows far past the
#: point where the rewrite is 3× cheaper.  3.5·√rows is within a third
#: of every measured point (EXPERIMENTS "Compress deletes in place").
COMPRESS_RUNS_PER_ROOT = 3.5

#: The call of :meth:`Partition.sorted_column` since the last write that
#: sorts the column; the calls before only count.  A sort costs 2-4 full
#: passes of a filter over the column (ten ``tpch_pref`` lineitem
#: partitions, one comparison: 1.9-3.7 in two runs over four columns),
#: so the third pass has cost about what the sort would, and sorting on
#: the next call at most doubles the cost of a column read too few times
#: to repay it.  Sorting on the second call made ``ingest_mixed``'s Q6,
#: the second read of lineitem after each round of writes, 1.8x slower
#: (EXPERIMENTS "Filters read sorted entries").
SORT_ON_CALL = 4

#: ``bytes.translate`` table mapping every nonzero byte to 1.
_TRUTH = bytes([0, *[1] * 255])


def row_key(positions: Sequence[int]) -> Callable[[Row], object]:
    """Row -> key function; scalars for single columns, tuples otherwise."""
    return itemgetter(*positions)


def index_lists(slots: Iterable[int], slot_count: int) -> list[list[int]]:
    """``lists[s]`` = the ascending indices ``i`` with ``slots[i] == s``."""
    lists: list[list[int]] = [[] for _ in range(slot_count)]
    for index, slot in enumerate(slots):
        lists[slot].append(index)
    return lists


def _keep_flags(keep: Sequence[object]) -> bytes:
    """*keep* as one byte a row: 1 where the entry is truthy, else 0.
    A list of bools or small ints converts at C speed; any other mask
    (None entries, floats, a buffer of wider items) takes one ``truth``
    call an entry."""
    try:
        flags = bytes(keep)
    except (TypeError, ValueError):
        flags = b""
    if len(flags) != len(keep):
        return bytes(map(truth, keep))
    return flags.translate(_TRUTH)


def build_buckets(keys: Sequence, route: KeyMemo, count: int) -> list[array]:
    """The shuffle buckets of rows with *keys*: per target ``t`` of
    *count*, the ascending indices ``i`` with ``route[keys[i]] == t``, as
    an ``array('l')`` (no int object per row)."""
    return [array("l", rows) for rows in index_lists(route.map(keys), count)]


#: What :func:`build_sorted_column` gives a column with no total order
#: (values that do not compare, or a NaN): no filter reads it.
UNORDERED = "unordered"


def build_sorted_column(column: Sequence) -> array | str:
    """The rows of *column*'s non-NULL values in ascending order of
    value, as an ``array('l')`` (``column[rows[i]]`` ascends with ``i``;
    the values themselves are read through the column), or
    :data:`UNORDERED`.

    NULLs are left out: a comparison with NULL is never true.  Equal
    values keep their rows ascending (the sort is stable).
    """
    rows: Sequence[int] = range(len(column))
    if None in column:
        rows = list(compress(rows, map(is_not, column, repeat(None))))
    try:
        order = sorted(rows, key=column.__getitem__)
    except TypeError:  # e.g. str beside int
        return UNORDERED
    values = list(map(column.__getitem__, order))
    # A NaN compares false both ways, so wherever the sort left it, the
    # run stops ascending next to it (or, alone, it is unequal to itself).
    if not all(map(le, values, islice(values, 1, None))) or (
        values and values[0] != values[0]
    ):
        return UNORDERED
    return array("l", order)


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
    keys, rows = _null_free_keys(columns)
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


def unique_key_table(columns: Sequence[list]) -> dict | None:
    """:func:`build_key_table`'s optimistic build alone: the table of
    the key *columns* when no NULL-free key repeats (key -> its one row
    index), else None."""
    keys, rows = _null_free_keys(columns)
    table = dict(zip(keys, rows))
    return table if len(table) == len(keys) else None


def _null_free_keys(columns: Sequence[list]) -> tuple[Sequence, Sequence[int]]:
    """The keys of the key *columns* (as :func:`row_key`) that hold no
    NULL, and the rows they belong to, ascending: ``(keys, rows)``."""
    keys = columns[0] if len(columns) == 1 else list(zip(*columns))
    rows: Sequence[int] = range(len(keys))
    if any(None in column for column in columns):
        if len(columns) == 1:
            valid = list(map(is_not, keys, repeat(None)))
        else:
            valid = [None not in key for key in keys]
        rows = list(compress(rows, valid))
        keys = list(compress(keys, valid))
    return keys, rows


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
        "key_index", "writes",
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
        #: buckets (:meth:`buckets`); ("sorted", position) -> the column's
        #: rows in order of value, or the calls so far that asked for them
        #: (:meth:`sorted_column`); ("null", position) -> whether the
        #: column holds a NULL (:meth:`holds_null`).  A write keeps only
        #: the NULL flags, updated (the slot is None when none is left).
        self.key_index: dict[tuple, object] | None = None
        #: Writes so far: every mutator adds one where it drops
        #: :attr:`key_index`'s entries, so a reader that noted the count can tell
        #: whether the stored rows changed since (the executor's prepared
        #: plans do).
        self.writes = 0

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
        if self.key_index is not None:
            self._keep_null_flags(lambda position: None in values[position], False)
        self.writes += 1
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
        """Drop every stored row whose *keep* entry is falsy, in order.

        The stored lists lose the rows in place (see the module
        docstring): up to :data:`COMPRESS_RUNS_PER_ROOT` times the
        square root of the row count, dropped runs are deleted run by run
        from the highest down; past that, each list is rewritten in one
        C-level pass.  A mask whose length is not the
        row count raises :class:`RowShapeError` and changes nothing.
        """
        if len(keep) != len(self.source_ids):
            # itertools.compress would stop at the shorter input.
            raise RowShapeError(
                f"partition {self.partition_id}: a mask of {len(keep)} "
                f"entries cannot filter {len(self.source_ids)} rows"
            )
        flags = _keep_flags(keep)
        if self.key_index is not None:
            self._keep_null_flags(lambda position: False, True)
        self.writes += 1
        stored = [*self.columns, self.source_ids, self.dup, self.has_partner]
        # A dropped run starts at every 0 that opens the partition or
        # follows a 1.
        runs = (b"\x01" + flags).count(b"\x01\x00")
        if runs > COMPRESS_RUNS_PER_ROOT * sqrt(len(flags)):
            for values in stored:
                values[:] = compress(values, flags)
            return
        stop = flags.rfind(0) + 1
        while stop:
            start = flags.rfind(1, 0, stop) + 1
            for values in stored:
                del values[start:stop]
            stop = flags.rfind(0, 0, start) + 1

    def set_row(self, index: int, row: Row) -> None:
        """Overwrite the values of stored row *index*."""
        if len(row) != len(self.columns):
            raise RowShapeError(
                f"partition {self.partition_id}: row has {len(row)} values, "
                f"expected {len(self.columns)}"
            )
        if self.key_index is not None:
            self._keep_null_flags(lambda position: row[position] is None, True)
        self.writes += 1
        for column, value in zip(self.columns, row):
            column[index] = value

    def _keep_null_flags(
        self, stores_null: Callable[[int], bool], removes: bool
    ) -> None:
        """What every mutator does to :attr:`key_index` before it writes:
        drop every entry but the NULL flags, which stay exact.  A flag
        turns True where the write stores a NULL in its column
        (``stores_null(position)``); else a True flag goes when the write
        *removes* stored values (a drop, an overwrite), which may have
        held the column's last NULL, and a False one stays."""
        kept = {}
        for entry, flag in self.key_index.items():
            if entry[0] == "null":
                if stores_null(entry[1]):
                    kept[entry] = True
                elif not (flag and removes):
                    kept[entry] = flag
        self.key_index = kept or None

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

        From the second build since the last write on (or the first
        after a :meth:`note_key_table`), a table in which some key
        repeats is built compact and kept in :attr:`key_index` until the
        next write.  A unique one is a single C-level call to
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

    def asked_key_table(self, positions: tuple[int, ...]) -> bool:
        """Whether a join asked for the table over the columns at
        *positions* since the last write: :meth:`key_table` kept or noted
        one, or :meth:`note_key_table` noted the ask."""
        return positions in (self.key_index or ())

    def note_key_table(self, positions: tuple[int, ...]) -> None:
        """Note an ask for the table over the columns at *positions* that
        a join answered without it, by building its other input: the next
        :meth:`key_table` call builds the compact table and keeps it, as
        after a first build here."""
        index = self.key_index or {}
        if positions not in index:
            self.key_index = {**index, positions: None}

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

    def sorted_column(self, position: int) -> array | None:
        """:func:`build_sorted_column` over the column at *position*,
        built on call :data:`SORT_ON_CALL` since the last write and kept
        in :attr:`key_index` until the next one; None before that and for
        an :data:`UNORDERED` column.

        The calls before only count themselves (an int entry), so a
        partition written every few reads never pays for a sort it
        cannot repay.  Concurrent readers race as :meth:`key_table`'s do
        (a lost count only delays the sort).
        """
        index = self.key_index or {}
        entry = ("sorted", position)
        kept = index.get(entry, 0)
        if kept.__class__ is int:  # the calls so far
            if kept + 1 < SORT_ON_CALL:
                self.key_index = {**index, entry: kept + 1}
                return None
            kept = build_sorted_column(self.columns[position])
            self.key_index = {**index, entry: kept}
        return None if kept is UNORDERED else kept

    def holds_null(self, position: int) -> bool:
        """Whether the column at *position* holds a NULL: one scan of it
        on the first call, kept in :attr:`key_index` and updated by each
        write (which may drop it, see :meth:`_keep_null_flags`)."""
        index = self.key_index or {}
        entry = ("null", position)
        flag = index.get(entry)
        if flag is None:
            flag = None in self.columns[position]
            self.key_index = {**index, entry: flag}
        return flag

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
