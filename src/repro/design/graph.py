"""Schema graphs (paper Sections 3.1 and 4.2).

A schema graph ``GS = (N, E, l, w)`` has one node per table, one edge per
potential co-partitioning join (a referential constraint for the
schema-driven algorithm, an equi-join predicate of a query for the
workload-driven one).  Edge labels are the join predicates; edge weights
are the network cost of a remote join over the edge, approximated by the
size of the smaller incident table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.catalog.schema import DatabaseSchema
from repro.errors import DesignError
from repro.partitioning.predicate import JoinPredicate


@dataclass(frozen=True)
class GraphEdge:
    """An edge of a schema graph: a join predicate plus its weight."""

    predicate: JoinPredicate
    weight: int

    @property
    def tables(self) -> frozenset[str]:
        """The two tables the edge connects."""
        return self.predicate.tables

    def key(self) -> tuple:
        """Identity of the edge irrespective of predicate orientation."""
        normalised = self.predicate.normalised()
        return (
            normalised.left_table,
            normalised.left_columns,
            normalised.right_table,
            normalised.right_columns,
        )

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return f"{self.predicate} (w={self.weight})"


class _UnionFind:
    """Union-find over table names with path compression."""

    def __init__(self, items) -> None:
        self.parent = {item: item for item in items}

    def find(self, item: str) -> str:
        parent = self.parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


class SchemaGraph:
    """An undirected, labeled, weighted graph over tables."""

    def __init__(
        self,
        sizes: Mapping[str, int],
        edges: Iterable[GraphEdge] = (),
    ) -> None:
        self.sizes: dict[str, int] = dict(sizes)
        self.edges: list[GraphEdge] = []
        self._edge_keys: set[tuple] = set()
        for edge in edges:
            self.add_edge(edge)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_schema(
        cls,
        schema: DatabaseSchema,
        sizes: Mapping[str, int],
        exclude: Iterable[str] = (),
    ) -> "SchemaGraph":
        """Build the SD schema graph from referential constraints.

        Args:
            schema: Database schema whose foreign keys become edges.
            sizes: Table row counts (weights use the smaller side).
            exclude: Tables to leave out (e.g. small replicated tables).
        """
        excluded = set(exclude)
        graph = cls(
            {name: sizes[name] for name in schema.table_names if name not in excluded}
        )
        for fk in schema.foreign_keys:
            if fk.source_table in excluded or fk.target_table in excluded:
                continue
            predicate = JoinPredicate(
                fk.source_table,
                fk.source_columns,
                fk.target_table,
                fk.target_columns,
            )
            weight = min(sizes[fk.source_table], sizes[fk.target_table])
            graph.add_edge(GraphEdge(predicate, weight))
        return graph

    @classmethod
    def from_predicates(
        cls,
        predicates: Iterable[JoinPredicate],
        sizes: Mapping[str, int],
    ) -> "SchemaGraph":
        """Build a per-query schema graph from its equi-join predicates."""
        predicates = list(predicates)
        tables: set[str] = set()
        for predicate in predicates:
            tables |= predicate.tables
        missing = tables - set(sizes)
        if missing:
            raise DesignError(f"no size known for tables {sorted(missing)}")
        graph = cls({table: sizes[table] for table in tables})
        for predicate in predicates:
            weight = min(sizes[t] for t in predicate.tables)
            graph.add_edge(GraphEdge(predicate, weight))
        return graph

    def add_edge(self, edge: GraphEdge) -> None:
        """Add an edge (duplicate predicates are collapsed)."""
        for table in edge.tables:
            if table not in self.sizes:
                raise DesignError(f"edge references unknown table {table!r}")
        if edge.key() in self._edge_keys:
            return
        self._edge_keys.add(edge.key())
        self.edges.append(edge)

    # -- structure -----------------------------------------------------------------

    @property
    def tables(self) -> tuple[str, ...]:
        """All tables in the graph (including isolated ones)."""
        return tuple(self.sizes)

    def total_weight(self) -> int:
        """Sum of all edge weights (the DL denominator)."""
        return sum(edge.weight for edge in self.edges)

    def connected_components(self) -> list[set[str]]:
        """Connected components over tables (isolated nodes included), in
        the order of their first table."""
        uf = _UnionFind(self.sizes)
        for edge in self.edges:
            uf.union(*sorted(edge.tables))
        components: dict[str, set[str]] = {}
        for table in self.sizes:
            components.setdefault(uf.find(table), set()).add(table)
        return list(components.values())

    def subgraph(self, tables: Iterable[str]) -> "SchemaGraph":
        """The induced subgraph over *tables*."""
        keep = set(tables)
        return SchemaGraph(
            {table: size for table, size in self.sizes.items() if table in keep},
            (edge for edge in self.edges if edge.tables <= keep),
        )

    def merged_with(self, other: "SchemaGraph") -> "SchemaGraph":
        """Union of nodes and edges (the WD merge step)."""
        sizes = dict(self.sizes)
        sizes.update(other.sizes)
        merged = SchemaGraph(sizes)
        for edge in self.edges:
            merged.add_edge(edge)
        for edge in other.edges:
            merged.add_edge(edge)
        return merged

    def contains(self, other: "SchemaGraph") -> bool:
        """True if *other*'s nodes and edges are all present here."""
        if not set(other.sizes) <= set(self.sizes):
            return False
        return other._edge_keys <= self._edge_keys

    def is_acyclic(self) -> bool:
        """True if the graph is a forest."""
        uf = _UnionFind(self.sizes)
        return all(uf.union(*sorted(edge.tables)) for edge in self.edges)

    def __iter__(self) -> Iterator[GraphEdge]:
        return iter(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return f"SchemaGraph({len(self.sizes)} tables, {len(self.edges)} edges)"


def data_locality(graph: SchemaGraph, satisfied: Iterable[GraphEdge]) -> float:
    """DL = sum of satisfied edge weights / sum of all edge weights.

    Paper Section 3.2.  ``satisfied`` is the set of edges whose joins
    execute locally (co-partitioned edges plus edges incident to
    replicated tables).
    """
    total = graph.total_weight()
    if total == 0:
        return 1.0
    satisfied_keys = {edge.key() for edge in satisfied}
    covered = sum(
        edge.weight for edge in graph.edges if edge.key() in satisfied_keys
    )
    return covered / total
