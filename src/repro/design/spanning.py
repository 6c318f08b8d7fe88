"""Maximum spanning trees/forests over schema graphs.

The design algorithms extract a maximum spanning tree (MAST) per connected
component: discarding the cheapest edges minimises the network cost of the
remote joins that remain (paper Section 3.2).  Ties are broken
deterministically, and :func:`enumerate_maximum_spanning_forests` can list
alternative forests of equal total weight (the paper evaluates each).
"""

from __future__ import annotations

from typing import Iterator

from repro.design.graph import GraphEdge, SchemaGraph, _UnionFind


def _sorted_edges(graph: SchemaGraph) -> list[GraphEdge]:
    """Edges by descending weight with a deterministic tie-break."""
    return sorted(graph.edges, key=lambda e: (-e.weight, e.key()))


def maximum_spanning_forest(graph: SchemaGraph) -> list[GraphEdge]:
    """Kruskal's algorithm on descending weights.

    Returns the MAST edges of every connected component (their union, the
    maximum spanning forest).
    """
    uf = _UnionFind(graph.tables)
    chosen: list[GraphEdge] = []
    for edge in _sorted_edges(graph):
        a, b = sorted(edge.tables)
        if uf.union(a, b):
            chosen.append(edge)
    return chosen


def forest_weight(edges: list[GraphEdge]) -> int:
    """Total weight of a set of edges."""
    return sum(edge.weight for edge in edges)


def enumerate_maximum_spanning_forests(
    graph: SchemaGraph,
    limit: int = 8,
) -> Iterator[list[GraphEdge]]:
    """Yield up to *limit* distinct maximum spanning forests.

    All yielded forests have the optimal total weight; the first one equals
    :func:`maximum_spanning_forest`.  Uses depth-first branching over the
    weight-sorted edge list with an upper-bound prune, which is fast for
    the modest tie counts real schema graphs exhibit.
    """
    best = forest_weight(maximum_spanning_forest(graph))
    edges = _sorted_edges(graph)
    tables = list(graph.tables)
    target_edges = len(tables) - len(graph.connected_components())
    seen: set[frozenset] = set()
    emitted = 0

    def remaining_bound(index: int, need: int) -> int:
        return sum(edge.weight for edge in edges[index : index + need])

    def branch(index: int, uf_pairs: list[tuple[str, str]], chosen: list[GraphEdge]):
        nonlocal emitted
        if emitted >= limit:
            return
        if len(chosen) == target_edges:
            key = frozenset(edge.key() for edge in chosen)
            if key not in seen and forest_weight(chosen) == best:
                seen.add(key)
                emitted += 1
                yield list(chosen)
            return
        if index >= len(edges):
            return
        need = target_edges - len(chosen)
        if forest_weight(chosen) + remaining_bound(index, need) < best:
            return
        edge = edges[index]
        uf = _UnionFind(tables)
        for a, b in uf_pairs:
            uf.union(a, b)
        a, b = sorted(edge.tables)
        if uf.find(a) != uf.find(b):
            # Include the edge.
            yield from branch(index + 1, uf_pairs + [(a, b)], chosen + [edge])
        # Exclude the edge.
        yield from branch(index + 1, uf_pairs, chosen)

    yield from branch(0, [], [])
