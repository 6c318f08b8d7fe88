"""Predicate transfer: Bloom filters pushed across the join graph.

Implements the pre-filtering idea of "Predicate Transfer: Efficient
Pre-Filtering on Multi-Join Queries" (Yang et al.) on top of the PREF
rewriter's annotated plans.  After the locality rewrite, the scheduler:

1. collects every base-table scan (with its scan-adjacent filter chain)
   and every equi-join edge whose key columns trace back, origin-intact,
   to those scans;
2. simulates the transfer on the coordinator — masks start from the
   scan-adjacent predicates, then a forward pass (small relations first)
   and a backward pass push Bloom filters built from each side's
   surviving keys across every eligible edge;
3. wraps each scan whose simulation pruned at least one row in a
   :class:`~repro.query.plan.BloomProbe` node carrying the built filters,
   so the physical operators drop partner-less rows *before* any
   shuffle or join probe touches them.

Soundness rests on three facts: filters are built from a superset of the
keys that side can present at runtime (base values after scan-adjacent
filters only), Bloom filters have no false negatives, and pruning is a
pure function of the join-key value (all copies of a base tuple carry the
same key, so PREF duplicate bits and ``hasS`` bits stay consistent).
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

from dataclasses import dataclass, field

from repro.catalog.statistics import build_histogram
from repro.engine.bloom import BloomFilter
from repro.engine.rows import ColumnBatch
from repro.query.plan import BloomProbe, Filter, Join, JoinKind, OrderBy, Scan
from repro.query.relation import Method
from repro.query.rewrite import Annotated
from repro.storage.partitioned import PartitionedDatabase

#: Join kinds whose *right* input may be pruned (rows there are kept only
#: when a partner exists, or serve purely as a match-existence set).
_PRUNE_RIGHT = frozenset(
    (JoinKind.INNER, JoinKind.SEMI, JoinKind.LEFT_OUTER, JoinKind.ANTI)
)
#: Join kinds whose *left* input may be pruned (left rows without a
#: partner never reach the output).
_PRUNE_LEFT = frozenset((JoinKind.INNER, JoinKind.SEMI))


@dataclass(frozen=True)
class TransferFilter:
    """One Bloom filter attached to a scan by the transfer scheduler.

    Attributes:
        positions: Key column positions in the probed scan's output batch.
        columns: The probed column names (for EXPLAIN).
        source: Alias of the scan whose keys built the filter.
        bloom: The filter itself (ships to pool workers with the operator).
        built_keys: Distinct non-NULL keys inserted at build time.
    """

    positions: tuple[int, ...]
    columns: tuple[str, ...]
    source: str
    bloom: BloomFilter
    built_keys: int


@dataclass
class _Site:
    """One base-table scan with its scan-adjacent filter chain."""

    scan: Annotated
    anchor: Annotated
    alias: str
    table: str
    conditions: list = field(default_factory=list)
    columns: list[list] | None = None
    alive: list[int] | None = None
    filters: list[TransferFilter] = field(default_factory=list)


@dataclass(frozen=True)
class _Edge:
    """A directed transfer edge: prune *target* with keys from *source*."""

    source_alias: str
    target_alias: str
    source_positions: tuple[int, ...]
    target_positions: tuple[int, ...]
    target_columns: tuple[str, ...]


def apply_predicate_transfer(
    annotated: Annotated,
    partitioned: PartitionedDatabase,
    fpr: float = 0.01,
) -> Annotated:
    """Insert :class:`BloomProbe` nodes into an annotated physical plan.

    Mutates the annotated tree in place (it is built fresh per query) and
    returns its root.  A no-op when the plan has no eligible join edges
    or when no filter would prune anything.
    """
    parents: dict[int, Annotated] = {}
    for node, parent in _walk(annotated):
        if parent is not None:
            parents[id(node)] = parent
    sites = _collect_sites(annotated, parents)
    edges = _collect_edges(annotated, sites)
    if not edges:
        return annotated
    touched = {e.source_alias for e in edges} | {e.target_alias for e in edges}
    for alias in touched:
        _materialize(sites[alias], partitioned)
    rank = {
        alias: position
        for position, alias in enumerate(
            sorted(touched, key=lambda a: (len(sites[a].alive), a))
        )
    }
    forward = sorted(
        (e for e in edges if rank[e.source_alias] < rank[e.target_alias]),
        key=lambda e: (rank[e.target_alias], rank[e.source_alias], e.target_columns),
    )
    backward = sorted(
        (e for e in edges if rank[e.source_alias] > rank[e.target_alias]),
        key=lambda e: (-rank[e.target_alias], -rank[e.source_alias], e.target_columns),
    )
    for edge in forward + backward:
        _transfer(sites[edge.source_alias], sites[edge.target_alias], edge, fpr)
    for site in sites.values():
        if site.filters:
            _attach(site, parents, annotated)
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
        site = _Site(
            scan=node,
            anchor=node,
            alias=node.node.name,
            table=node.node.table,
        )
        current = node
        while True:
            parent = parents.get(id(current))
            if (
                parent is None
                or not isinstance(parent.node, Filter)
                or len(parent.inputs) != 1
            ):
                break
            site.conditions.append(parent.node.condition)
            site.anchor = parent
            current = parent
        sites[site.alias] = site
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
) -> list[_Edge]:
    edges: set[_Edge] = set()
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
                    _Edge(lalias, ralias, lpositions, rpositions, rcolumns)
                )
            if join.kind in _PRUNE_LEFT and _prunable(sites[lalias]):
                edges.add(
                    _Edge(ralias, lalias, rpositions, lpositions, lcolumns)
                )
    return sorted(
        edges, key=lambda e: (e.target_alias, e.source_alias, e.target_columns)
    )


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
    except Exception:
        return None
    if origin is None or "." not in column:
        return None
    alias, base = column.split(".", 1)
    if alias not in aliases:
        return None
    site = sites.get(alias)
    if site is None or origin != (site.table, base):
        return None
    try:
        position = site.scan.props.columns.index(column)
    except ValueError:
        return None
    return alias, position, column


# -- the transfer simulation -------------------------------------------------


def _materialize(site: _Site, partitioned: PartitionedDatabase) -> None:
    """Load the scan's base columns and apply its adjacent predicates."""
    if site.columns is not None:
        return
    table = partitioned.table(site.table)
    replicated = site.scan.props.part.method is Method.REPLICATED
    partitions = (
        table.partitions[:1] if replicated else table.partitions
    )
    width = len(site.scan.props.columns)
    pieces = []
    for partition in partitions:
        if not partition.row_count:
            continue
        # Aliases the stored lists: the simulation only reads them.
        columns = list(partition.columns)
        if site.scan.props.part.method is Method.PREF:
            columns += [partition.dup, partition.has_partner]
        pieces.append(ColumnBatch(columns, partition.row_count))
    batch = ColumnBatch.concat(pieces, width)
    site.columns = batch.columns if batch.columns else [[] for _ in range(width)]
    alive = list(range(batch.length))
    for condition in site.conditions:
        if not alive:
            break
        predicate = condition.bind_batch(site.scan.props.columns)
        mask = predicate(batch)
        alive = [index for index in alive if mask[index]]
    site.alive = alive


def _keys_at(columns: list[list], positions: tuple[int, ...], alive: list[int]):
    if len(positions) == 1:
        column = columns[positions[0]]
        return [column[index] for index in alive]
    selected = [columns[p] for p in positions]
    return [tuple(column[index] for column in selected) for index in alive]


def _transfer(source: _Site, target: _Site, edge: _Edge, fpr: float) -> None:
    if not target.alive:
        return
    source_keys = set(
        _keys_at(source.columns, edge.source_positions, source.alive)
    )
    source_keys.discard(None)
    # Sized from the catalog's frequency statistics over the surviving
    # source keys; an empty source still builds a (tiny) filter that
    # prunes every probe — no partner can exist.
    histogram = build_histogram(list(source_keys))
    bloom = BloomFilter.sized(max(1, histogram.distinct_count), fpr)
    built = bloom.add_many(source_keys)
    target_keys = _keys_at(target.columns, edge.target_positions, target.alive)
    hits = bloom.probe_many(target_keys)
    survivors = [
        index for index, hit in zip(target.alive, hits) if hit
    ]
    pruned = len(target.alive) - len(survivors)
    if pruned <= 0:
        return
    target.alive = survivors
    target.filters.append(
        TransferFilter(
            positions=edge.target_positions,
            columns=edge.target_columns,
            source=source.alias,
            bloom=bloom,
            built_keys=built,
        )
    )


# -- plan surgery ------------------------------------------------------------


def _attach(
    site: _Site, parents: dict[int, Annotated], root: Annotated
) -> None:
    """Wrap the site's anchor in a BloomProbe carrying its filters."""
    columns = tuple(
        dict.fromkeys(c for f in site.filters for c in f.columns)
    )
    sources = tuple(dict.fromkeys(f.source for f in site.filters))
    anchor = site.anchor
    probe = Annotated(
        BloomProbe(anchor.node, columns, sources),
        anchor.props,
        (anchor,),
        pristine=frozenset(),
        extra={"strategy": "bloom_probe", "bloom": tuple(site.filters)},
    )
    parent = parents.get(id(anchor))
    if parent is None:
        # A scan at the root joins nothing; edges require a Join above.
        return
    parent.inputs = tuple(
        probe if child is anchor else child for child in parent.inputs
    )
