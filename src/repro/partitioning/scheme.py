"""Declarative partitioning-scheme descriptors.

A scheme describes *how* a table is split across the partitions of a
shared-nothing cluster; the :mod:`repro.partitioning.partitioner` applies
these descriptors to data.  The paper uses HASH as the seed scheme and PREF
for co-partitioned tables; RANGE, ROUND_ROBIN and REPLICATED are provided as
well since the definition of PREF admits any seed scheme.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import PartitioningError
from repro.partitioning.predicate import JoinPredicate


class SchemeKind(enum.Enum):
    """Discriminator for partitioning-scheme descriptors."""

    HASH = "hash"
    RANGE = "range"
    ROUND_ROBIN = "round_robin"
    REPLICATED = "replicated"
    PREF = "pref"

    @property
    def is_seed(self) -> bool:
        """Seed schemes place tuples independently of any other table."""
        return self is not SchemeKind.PREF


@dataclass(frozen=True)
class HashScheme:
    """Hash-partition on one or more columns.

    Attributes:
        columns: Partitioning columns (the hash key).
        partition_count: Number of partitions.
    """

    columns: tuple[str, ...]
    partition_count: int
    kind: SchemeKind = SchemeKind.HASH

    def __post_init__(self) -> None:
        if not self.columns:
            raise PartitioningError("hash scheme needs at least one column")
        _check_count(self.partition_count)

    def partition_of(self, key: object) -> int:
        """Partition id for a key value (scalar or tuple for composites)."""
        return stable_hash(key) % self.partition_count


@dataclass(frozen=True)
class RangeScheme:
    """Range-partition on a single column with sorted upper boundaries.

    Partition i holds values <= boundaries[i]; the last partition holds the
    remainder, so ``partition_count == len(boundaries) + 1``.
    """

    column: str
    boundaries: tuple
    kind: SchemeKind = SchemeKind.RANGE

    def __post_init__(self) -> None:
        if list(self.boundaries) != sorted(self.boundaries):
            raise PartitioningError("range boundaries must be sorted")
        if not self.boundaries:
            raise PartitioningError("range scheme needs at least one boundary")

    @property
    def columns(self) -> tuple[str, ...]:
        """The partitioning columns (always a single column for RANGE)."""
        return (self.column,)

    @property
    def partition_count(self) -> int:
        """Number of partitions (boundaries + 1)."""
        return len(self.boundaries) + 1

    def partition_of(self, key: object) -> int:
        """Partition id via binary search over the boundaries."""
        import bisect

        return bisect.bisect_left(self.boundaries, key)


@dataclass(frozen=True)
class RoundRobinScheme:
    """Deal rows to partitions in turn (no partitioning column)."""

    partition_count: int
    kind: SchemeKind = SchemeKind.ROUND_ROBIN

    def __post_init__(self) -> None:
        _check_count(self.partition_count)

    @property
    def columns(self) -> tuple[str, ...]:
        """Round-robin has no partitioning columns."""
        return ()


@dataclass(frozen=True)
class ReplicatedScheme:
    """Store a full copy of the table on every node."""

    partition_count: int
    kind: SchemeKind = SchemeKind.REPLICATED

    def __post_init__(self) -> None:
        _check_count(self.partition_count)

    @property
    def columns(self) -> tuple[str, ...]:
        """Replication has no partitioning columns."""
        return ()


@dataclass(frozen=True)
class PrefScheme:
    """Predicate-based reference partitioning (paper Definition 1).

    The table carrying this scheme (the *referencing* table R) is
    co-partitioned with ``referenced_table`` (S): a copy of r goes to every
    partition i where some s in Pi(S) satisfies the partitioning predicate;
    tuples without any partner are dealt round-robin.

    Attributes:
        referenced_table: Name of S.
        predicate: Equi-join predicate between the referencing table and S.
    """

    referenced_table: str
    predicate: JoinPredicate
    kind: SchemeKind = SchemeKind.PREF

    def __post_init__(self) -> None:
        if self.referenced_table not in self.predicate.tables:
            raise PartitioningError(
                f"PREF predicate {self.predicate} does not mention the "
                f"referenced table {self.referenced_table!r}"
            )

    def referencing_columns(self, referencing_table: str) -> tuple[str, ...]:
        """Predicate columns on the referencing table's side."""
        return self.predicate.columns_of(referencing_table)

    @property
    def referenced_columns(self) -> tuple[str, ...]:
        """Predicate columns on the referenced table's side."""
        return self.predicate.columns_of(self.referenced_table)


@dataclass(frozen=True)
class PatchedPrefScheme(PrefScheme):
    """PREF with per-tuple duplication capped at ``max_copies``.

    Stored placement keeps the ``max_copies`` lowest partner partition
    ids (the lowest is the canonical dup=0 copy, exactly as for plain
    PREF); the remaining partner partitions are recorded in the table's
    per-partition *patch list* and serviced by a residual shuffle at
    scan time.  Bounded redundancy is traded for a bounded amount of
    remote work proportional to the overflow.
    """

    max_copies: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_copies < 1:
            raise PartitioningError(
                f"max_copies must be >= 1, got {self.max_copies}"
            )


PartitioningScheme = (
    HashScheme
    | RangeScheme
    | RoundRobinScheme
    | ReplicatedScheme
    | PrefScheme
    | PatchedPrefScheme
)

SeedScheme = HashScheme | RangeScheme | RoundRobinScheme


def stable_hash(key: object) -> int:
    """A deterministic, process-independent hash for partitioning keys.

    Python's builtin ``hash`` is salted for strings, which would make
    partition assignments differ between runs; benchmarks and tests require
    stable placement.

    Keys that compare equal hash equal over every supported value type
    (``None``, ``bool``, ``int``, ``float``, ``str`` and tuples of them):
    ``True``, ``1`` and ``1.0`` are one key, as they are to a join and to
    a ``dict`` — which is what lets :class:`KeyMemo` stand in for
    per-row calls exactly.
    """
    if type(key) is int:
        # splitmix64-style mixer: arithmetic patterns in key domains (e.g.
        # sequential surrogate keys) must not correlate with partition ids.
        value = key & 0xFFFFFFFFFFFFFFFF
        value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        value = (value ^ (value >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        return (value ^ (value >> 31)) & 0x7FFFFFFFFFFFFFFF
    if isinstance(key, tuple):
        value = 0x345678
        for part in key:
            value = (value * 1000003) ^ stable_hash(part)
        return value & 0x7FFFFFFFFFFFFFFF
    if isinstance(key, str):
        value = 0xCBF29CE484222325
        for char in key:
            value = ((value ^ ord(char)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return value & 0x7FFFFFFFFFFFFFFF
    if isinstance(key, int):
        # bool (and any other int subclass) hashes as its int value.
        return stable_hash(int(key))
    if isinstance(key, float):
        if key.is_integer():
            return stable_hash(int(key))
        return stable_hash(repr(key))
    if key is None:
        return 0x9E3779B9
    return stable_hash(repr(key))


class KeyMemo(dict):
    """A dict that fills itself from ``fn(key)`` on a miss.

    The bulk-hashing kernel: ``memo.map(keys)`` is one C-level pass of
    dict lookups, and ``fn`` runs once per *distinct* key — join and
    grouping keys repeat, so most rows are hits.  ``fn`` must be a pure
    function that gives equal keys equal values (``stable_hash`` does);
    then the output equals ``[fn(key) for key in keys]`` exactly, and a
    memo shared between threads only ever races to store the same value.

    With a *limit* the memo holds at most that many keys: a miss that
    would store one more clears it whole first.  A pure ``fn`` makes a
    clear invisible in the answers; it only costs the misses that refill.
    """

    __slots__ = ("fn", "limit")

    def __init__(
        self, fn: Callable[[object], object], limit: int | None = None
    ) -> None:
        super().__init__()
        self.fn = fn
        self.limit = limit

    def __missing__(self, key: object) -> object:
        value = self.fn(key)
        if self.limit is not None and len(self) >= self.limit:
            self.clear()
        self[key] = value
        return value

    def map(self, keys: Iterable) -> list:
        """``[fn(key) for key in keys]``, computing each distinct key once."""
        return list(map(self.__getitem__, keys))


def hash_router(count: int, limit: int | None = None) -> KeyMemo:
    """A memo routing keys to ``stable_hash(key) % count``.

    A composite key is folded as :func:`stable_hash` folds a tuple, over
    a second memo of its parts: a string or number that recurs across
    keys (one customer name in many group keys) is hashed once per
    router, not once per distinct key.  *limit* bounds each of the two
    memos (see :class:`KeyMemo`).
    """
    parts = KeyMemo(stable_hash, limit)

    def route(key: object) -> int:
        if not isinstance(key, tuple):
            return stable_hash(key) % count
        value = 0x345678
        for part in key:
            value = (value * 1000003) ^ parts[part]
        return (value & 0x7FFFFFFFFFFFFFFF) % count

    return KeyMemo(route, limit)


def key_has_null(key: object) -> bool:
    """True if a partitioning key (scalar or composite) contains SQL NULL.

    NULL never satisfies an equality predicate, so a referencing tuple
    whose PREF key contains NULL is partner-less by definition — the
    referenced keys must not be probed for it (Python's ``None == None``
    would otherwise pair NULL keys up).
    """
    if isinstance(key, tuple):
        return any(part is None for part in key)
    return key is None


def _check_count(partition_count: int) -> None:
    if partition_count < 1:
        raise PartitioningError(
            f"partition_count must be >= 1, got {partition_count}"
        )
