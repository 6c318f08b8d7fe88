"""Predicate transfer: Bloom filters pushed across the join graph.

Implements the pre-filtering idea of "Predicate Transfer: Efficient
Pre-Filtering on Multi-Join Queries" (Yang et al.) on top of the PREF
rewriter's annotated plans.  This module is the *plan-time* half and is
purely structural — it reads the annotated plan and nothing else:

1. collect every base-table scan (with its scan-adjacent filter chain)
   and every equi-join edge whose key columns trace back, origin-intact,
   to those scans;
2. wrap the anchor (scan plus adjacent filters) of every scan an eligible
   edge touches — pruned and build-only sites alike — in a
   :class:`~repro.query.plan.BloomProbe` node whose ``extra["bloom"]``
   lists the site's incoming :class:`TransferEdge` descriptors.

No row is read and no filter is built here, so the annotation depends on
the plan and the partitioning configuration only.  The *run-time* half is
the engine's (:class:`~repro.engine.operators.BloomTransfer`): it builds
each filter from the source scan's own surviving output, keeps it only if
it prunes, and hands every probe its keep-masks, so the physical operators
drop partner-less rows *before* any shuffle or join probe touches them.

Soundness rests on three facts: filters are built from a superset of the
keys that side can present to the join (anchor output, narrowed only by
other sound filters), Bloom filters have no false negatives, and pruning
is a pure function of the join-key value (all copies of a base tuple
carry the same key, so PREF duplicate bits and ``hasS`` bits stay
consistent).
Eligibility is per join kind: both sides of INNER and SEMI joins may be
pruned, but only the non-preserved (right) side of LEFT_OUTER and ANTI
joins — pruning the preserved side would drop rows the join keeps.  NULL
keys are never inserted and probe as False, which is exactly SQL 3VL:
a NULL join key matches nothing, so the row cannot survive the join.

When co-partitioning already localises a join (locality cases 1-3), the
filters no longer save network on that edge, but still shrink every
operator above the scan; transfers stay enabled there and the knob
(``predicate_transfer=...``) defaults to off globally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import PlanningError
from repro.query.plan import BloomProbe, Filter, Join, JoinKind, OrderBy, Scan
from repro.query.relation import Method
from repro.query.rewrite import Annotated

#: Join kinds whose *right* input may be pruned (rows there are kept only
#: when a partner exists, or serve purely as a match-existence set).
_PRUNE_RIGHT = frozenset(
    (JoinKind.INNER, JoinKind.SEMI, JoinKind.LEFT_OUTER, JoinKind.ANTI)
)
#: Join kinds whose *left* input may be pruned (left rows without a
#: partner never reach the output).
_PRUNE_LEFT = frozenset((JoinKind.INNER, JoinKind.SEMI))


@dataclass(frozen=True, order=True)
class TransferEdge:
    """A directed transfer edge: prune *target* with keys from *source*.

    Data-free: the filter itself is built at run time from the source
    site's surviving rows, and kept only if it prunes the target.

    Attributes:
        target: Alias of the probed scan.
        source: Alias of the scan whose keys build the filter.
        columns: The probed column names (for EXPLAIN).
        positions: Key column positions in the probed scan's output.
        source_positions: The matching positions in the source's output.
    """

    target: str
    source: str
    columns: tuple[str, ...]
    positions: tuple[int, ...]
    source_positions: tuple[int, ...]


class _Site(NamedTuple):
    """One base-table scan and the top of its scan-adjacent filter chain."""

    scan: Annotated
    anchor: Annotated


def apply_predicate_transfer(annotated: Annotated) -> Annotated:
    """Insert :class:`BloomProbe` nodes into an annotated physical plan.

    Mutates the annotated tree in place (it is built fresh per query) and
    returns its root.  A no-op when the plan has no eligible join edges.
    """
    parents: dict[int, Annotated] = {}
    for node, parent in _walk(annotated):
        if parent is not None:
            parents[id(node)] = parent
    sites = _collect_sites(annotated, parents)
    edges = _collect_edges(annotated, sites)
    touched = {e.source for e in edges} | {e.target for e in edges}
    for alias in sorted(touched):
        incoming = tuple(e for e in edges if e.target == alias)
        _attach(alias, sites[alias].anchor, incoming, parents)
    return annotated


# -- graph collection --------------------------------------------------------


def _walk(annotated: Annotated, parent: Annotated | None = None):
    yield annotated, parent
    for child in annotated.inputs:
        yield from _walk(child, annotated)


def _collect_sites(
    annotated: Annotated, parents: dict[int, Annotated]
) -> dict[str, _Site]:
    """Every base-table scan, keyed by alias, with its filter chain."""
    sites: dict[str, _Site] = {}
    for node, _parent in _walk(annotated):
        if not isinstance(node.node, Scan):
            continue
        anchor = node
        while True:
            parent = parents.get(id(anchor))
            if (
                parent is None
                or not isinstance(parent.node, Filter)
                or len(parent.inputs) != 1
            ):
                break
            anchor = parent
        sites[node.node.name] = _Site(node, anchor)
    return sites


def _reachable(annotated: Annotated) -> set[str]:
    """Scan aliases below *annotated* along prune-safe operator paths.

    Every operator in the tree passes key values through per row (or per
    group keyed by them), except OrderBy: a nested ORDER BY ... LIMIT
    could keep different rows once inputs shrink, so descent stops there.
    """
    if isinstance(annotated.node, OrderBy):
        return set()
    if isinstance(annotated.node, Scan):
        return {annotated.node.name}
    found: set[str] = set()
    for child in annotated.inputs:
        found |= _reachable(child)
    return found


def _collect_edges(
    annotated: Annotated, sites: dict[str, _Site]
) -> list[TransferEdge]:
    edges: set[TransferEdge] = set()
    for node, _parent in _walk(annotated):
        if not isinstance(node.node, Join) or len(node.inputs) != 2:
            continue
        join = node.node
        if not join.on:
            continue
        left, right = node.inputs
        left_aliases = _reachable(left)
        right_aliases = _reachable(right)
        resolved = []
        for lcol, rcol in join.on:
            lhit = _resolve(left, lcol, left_aliases, sites)
            rhit = _resolve(right, rcol, right_aliases, sites)
            if lhit is None or rhit is None:
                continue
            resolved.append((lhit, rhit))
        # Group key pairs by the scan pair they connect; each group is one
        # (composite-key) edge in each eligible direction.
        grouped: dict[tuple[str, str], list] = {}
        for (lalias, lpos, lname), (ralias, rpos, rname) in resolved:
            grouped.setdefault((lalias, ralias), []).append(
                (lpos, lname, rpos, rname)
            )
        for (lalias, ralias), pairs in grouped.items():
            pairs.sort()
            lpositions = tuple(p[0] for p in pairs)
            lcolumns = tuple(p[1] for p in pairs)
            rpositions = tuple(p[2] for p in pairs)
            rcolumns = tuple(p[3] for p in pairs)
            if join.kind in _PRUNE_RIGHT and _prunable(sites[ralias]):
                edges.add(
                    TransferEdge(ralias, lalias, rcolumns, rpositions, lpositions)
                )
            if join.kind in _PRUNE_LEFT and _prunable(sites[lalias]):
                edges.add(
                    TransferEdge(lalias, ralias, lcolumns, lpositions, rpositions)
                )
    return sorted(edges)


def _prunable(site: _Site) -> bool:
    """Replicated scans are never probe targets: no shuffle to save."""
    return site.scan.props.part.method is not Method.REPLICATED


def _resolve(
    side: Annotated,
    column: str,
    aliases: set[str],
    sites: dict[str, _Site],
) -> tuple[str, int, str] | None:
    """Trace a join-key column back to a scan output: (alias, pos, name).

    The column must still carry its base origin and keep the scan's own
    alias-qualified name, so intermediate projections cannot have swapped
    the value for something else.
    """
    try:
        origin = side.props.origin_of(column)
    except PlanningError:
        return None
    if origin is None or "." not in column:
        return None
    alias, base = column.split(".", 1)
    if alias not in aliases:
        return None
    site = sites.get(alias)
    if site is None or origin != (site.scan.node.table, base):
        return None
    try:
        position = site.scan.props.columns.index(column)
    except ValueError:
        return None
    return alias, position, column


# -- plan surgery ------------------------------------------------------------


def _attach(
    alias: str,
    anchor: Annotated,
    incoming: tuple[TransferEdge, ...],
    parents: dict[int, Annotated],
) -> None:
    """Wrap site *alias*'s anchor in a BloomProbe listing its incoming
    edges (none for a site that only builds filters for others)."""
    columns = tuple(dict.fromkeys(c for e in incoming for c in e.columns))
    sources = tuple(dict.fromkeys(e.source for e in incoming))
    probe = Annotated(
        BloomProbe(anchor.node, columns, sources),
        anchor.props,
        (anchor,),
        extra={"strategy": "bloom_probe", "site": alias, "bloom": incoming},
    )
    # A touched site sits below the Join that produced its edge.
    parent = parents[id(anchor)]
    parent.inputs = tuple(
        probe if child is anchor else child for child in parent.inputs
    )
