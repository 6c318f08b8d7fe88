"""Relation properties: Part/Dup of paper Section 2.2.

The rewrite process annotates every (intermediate) result ``o`` with:

* ``Part(o)`` — here :class:`PartInfo`: how the result is distributed over
  the cluster, which base tables' physical placement its rows still follow
  (*anchors*), and — for PREF results — the PREF scheme and seed table.
* ``Dup(o)`` — whether the result may contain PREF duplicates.  We refine
  the paper's boolean into the explicit tuple of *governing dup columns*:
  the hidden bitmap-index columns whose conjunction (all bits == 0)
  identifies the canonical copy of each logical row.  ``Dup(o) == 1`` iff
  the governing tuple is non-empty.

Hidden columns carry the PREF bitmap indexes through the plan: a scan of a
PREF table ``R`` (aliased ``r``) exposes ``__dup@r`` and ``__has@r``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence

from repro.partitioning.scheme import PrefScheme
from repro.query.expressions import resolve_column

HIDDEN_PREFIX = "__"


def dup_column(alias: str) -> str:
    """Name of the hidden dup-bitmap column for a scan aliased *alias*."""
    return f"__dup@{alias}"


def has_column(alias: str) -> str:
    """Name of the hidden hasS-bitmap column for a scan aliased *alias*."""
    return f"__has@{alias}"


def is_hidden(column: str) -> bool:
    """True for internal bitmap-index columns."""
    return column.startswith(HIDDEN_PREFIX)


class Method(enum.Enum):
    """How an (intermediate) result is distributed across the cluster."""

    #: Rows sit in the physical placement of one or more base tables whose
    #: seed scheme (hash/range/round-robin) put them there.
    SEED = "seed"
    #: Rows were shuffled by hash on :attr:`PartInfo.hash_columns`.
    HASHED = "hashed"
    #: Rows follow a PREF scheme (referencing table placement).
    PREF = "pref"
    #: A full copy of the result is available on every node.
    REPLICATED = "replicated"
    #: The result lives on the coordinator only.
    GATHERED = "gathered"
    #: Rows are spread over the nodes with no exploitable property.
    NONE = "none"


@dataclass(frozen=True)
class PartInfo:
    """The ``Part(o)`` annotation of an (intermediate) result.

    Attributes:
        method: Distribution method (see :class:`Method`).
        count: Number of partitions (cluster size), 1 for GATHERED.
        hash_columns: For SEED-of-a-hash-table or HASHED results, the
            current column names rows are hash-distributed by; empty
            otherwise.  Used for the paper's locality case (1).
        anchors: Base tables whose rows still sit in their original
            physical placement inside this result.  Cleared by shuffles.
            Used for locality cases (2) and (3).
        pref_scheme: For PREF results, the scheme of the referencing table.
        pref_table: The physical referencing table the scheme belongs to.
        seed_table: For PREF results, the seed table of the PREF chain.
    """

    method: Method
    count: int
    hash_columns: tuple[str, ...] = ()
    anchors: frozenset[str] = frozenset()
    pref_scheme: PrefScheme | None = None
    pref_table: str | None = None
    seed_table: str | None = None

    def without_anchors(self) -> "PartInfo":
        """The same info with placement provenance dropped."""
        return replace(self, anchors=frozenset())

    def rename_hash_columns(self, mapping: dict[str, str]) -> "PartInfo":
        """Track hash columns through a projection rename.

        If any hash column is projected away the hash property is lost and
        the method degrades to NONE (for HASHED) while SEED keeps its
        anchors but loses the case-(1) columns.
        """
        if not self.hash_columns:
            return self
        renamed = tuple(mapping.get(column, "") for column in self.hash_columns)
        if all(renamed):
            return replace(self, hash_columns=renamed)
        if self.method is Method.HASHED:
            return replace(self, method=Method.NONE, hash_columns=())
        return replace(self, hash_columns=())


@dataclass
class RelProps:
    """Static properties of an (intermediate) result, computed at rewrite.

    Attributes:
        columns: Output column names (visible and hidden), in row order.
        origins: Per column, the ``(base_table, base_column)`` it carries
            unchanged, or None for computed/hidden columns.
        widths: Nominal per-column byte widths for the network cost model.
        part: The ``Part(o)`` annotation.
        governing: Hidden dup columns governing PREF duplicate elimination;
            ``Dup(o) == 1`` iff non-empty.
    """

    columns: tuple[str, ...]
    origins: tuple[tuple[str, str] | None, ...]
    widths: tuple[int, ...]
    part: PartInfo
    governing: tuple[str, ...] = ()
    #: Groups of column names known to hold equal values (established by
    #: executed equi-joins); placement checks treat members of one group
    #: as interchangeable.
    equivalences: tuple[frozenset[str], ...] = ()

    @property
    def dup(self) -> bool:
        """The paper's ``Dup(o)`` flag."""
        return bool(self.governing)

    def same_value(self, a: str, b: str) -> bool:
        """True if columns *a* and *b* are known to carry equal values."""
        name_a = self.columns[self.position(a)]
        name_b = self.columns[self.position(b)]
        if name_a == name_b:
            return True
        for group in self.equivalences:
            if name_a in group and name_b in group:
                return True
        return False

    def position(self, name: str) -> int:
        """Resolve a (possibly abbreviated) column name to its position."""
        return resolve_column(name, self.columns)

    def positions(self, names: Sequence[str]) -> tuple[int, ...]:
        """Resolve several column names."""
        return tuple(self.position(name) for name in names)

    def origin_of(self, name: str) -> tuple[str, str] | None:
        """The base (table, column) behind column *name*, if any."""
        return self.origins[self.position(name)]

    @property
    def visible_columns(self) -> tuple[str, ...]:
        """Columns excluding the hidden bitmap-index columns."""
        return tuple(c for c in self.columns if not is_hidden(c))

    def row_bytes(self) -> int:
        """Nominal bytes per row (all columns)."""
        return sum(self.widths)
