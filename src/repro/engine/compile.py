"""The physical compiler: lowers annotated logical plans to operators.

Mirrors the dispatch of the old monolithic interpreter, but instead of
executing each node it *binds* it: expressions are compiled against the
child's column layout, pruning decisions and join/aggregate strategies
are resolved, and everything ends up in self-contained operator objects a
backend can schedule partition by partition.

The compiler also appends the implicit finalisation the interpreter
performed inline: a PREF duplicate-elimination pass when the root result
still carries governing dup columns, then a gather onto the coordinator.
Every shuffle and aggregate exchange is handed the store's routing memo
for its target count (``PartitionedDatabase.router``), so a key routed
by an earlier query is not hashed again.  Operator ids are assigned in
``walk()`` order (post-order, with an
operator's declared ``after`` producers ahead of it), which keeps
deferred join-event flushing (see :mod:`repro.engine.context`)
byte-compatible with serial execution.

Last comes the live-column pass (:func:`assign_live_columns`): top-down
from the gather, every operator is told which of its output positions
some ancestor reads, and materialises only those.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ExecutionError
from repro.query.expressions import referenced_positions
from repro.query.plan import (
    Aggregate,
    BloomProbe,
    DedupFilter,
    Filter,
    Join,
    JoinKind,
    OrderBy,
    PartnerFilter,
    Project,
    Repartition,
    Scan,
)
from repro.query.relation import Method, PartInfo, has_column
from repro.query.rewrite import Annotated
from repro.engine.operators import (
    BloomTransfer,
    PhysicalAggregate,
    PhysicalBloomProbe,
    PhysicalDedup,
    PhysicalFilter,
    PhysicalGather,
    PhysicalHashJoin,
    PhysicalMask,
    PhysicalOperator,
    PhysicalOrderBy,
    PhysicalPartnerFilter,
    PhysicalProject,
    PhysicalRepartition,
    PhysicalScan,
)
from repro.storage.partitioned import PartitionedDatabase


def compile_plan(
    annotated: Annotated, partitioned: PartitionedDatabase
) -> PhysicalOperator:
    """Lower *annotated* into a physical operator tree, rooted at the
    implicit gather that lands the result on the coordinator."""
    compiler = _Compiler(partitioned)
    root = compiler.lower(annotated)
    if annotated.props.governing:
        # Final PREF dedup before results leave the cluster (the
        # interpreter's _finalise); charged at full input size.  Its
        # result no longer carries governing dup columns, which the
        # corrected props record for EXPLAIN ANALYZE.
        dedup_props = replace(annotated.props, governing=())
        root = PhysicalDedup(
            replace(annotated, props=dedup_props),
            root,
            annotated.props.positions(annotated.props.governing),
            indexed=False,
        )
    gather_part = PartInfo(Method.GATHERED, 1)
    gather_props = replace(
        root.annotated.props, part=gather_part, governing=()
    )
    root = PhysicalGather(replace(annotated, props=gather_props), root)
    for op_id, op in enumerate(root.walk()):
        op.op_id = op_id
    assign_live_columns(root, root.live)
    return root


def assign_live_columns(op: PhysicalOperator, demand: frozenset[int]) -> None:
    """Give *op* and its subtree their live output positions.

    *demand* is what the parent reads of *op*'s output.  An operator that
    passes columns through materialises ``demand`` and asks each child
    for that plus whatever it reads itself; one that computes its output
    (project, aggregate) or works on whole rows (order-by, gather, local
    DISTINCT) stays fully live.  A read
    the rules below do not declare fails loudly at run time: a dead
    column is an absent slot, never NULL.
    """
    node = op.annotated.node
    if isinstance(op, PhysicalScan):
        op.live = demand
        return
    if isinstance(op, PhysicalHashJoin):
        _assign_join(op, demand)
        return
    (child,) = op.inputs
    columns = child.props.columns
    if isinstance(op, PhysicalMask):
        op.live = demand
        needs = demand | op.reads
    elif isinstance(op, PhysicalBloomProbe):
        # The probed keys, and the keys filters for other sites are built
        # from (which only happen to be live when the join above the
        # probe is the one that produced the edge).
        op.live = demand
        needs = demand | op.key_positions()
    elif isinstance(op, PhysicalRepartition) and not op.local_distinct:
        op.live = demand
        needs = demand.union(op.key_positions, op.governing)
    elif isinstance(op, PhysicalProject):
        needs = referenced_positions(
            [expr for _name, expr in node.outputs], columns
        )
    elif isinstance(op, PhysicalAggregate):
        needs = frozenset(op.group_positions) | referenced_positions(
            [spec.expr for spec in node.aggregates], columns
        )
    else:  # order-by, gather, locally distinct repartition: whole rows
        needs = child.live
    assign_live_columns(child, needs)


def _assign_join(op: PhysicalHashJoin, demand: frozenset[int]) -> None:
    left, right = op.inputs
    op.live = demand
    if op.node.kind in (JoinKind.SEMI, JoinKind.ANTI):
        # The output is the left input; the build side is only probed.
        op.left_out, op.right_out = demand, frozenset()
    else:
        op.left_out = frozenset(q for q in demand if q < left.width)
        op.right_out = frozenset(
            q - left.width for q in demand if q >= left.width
        )
    assign_live_columns(
        left, op.left_out.union(op.left_positions, op.left_residual)
    )
    assign_live_columns(
        right, op.right_out.union(op.right_positions, op.right_residual)
    )


def _scan_adjacent(annotated: Annotated) -> bool:
    """True when *annotated* reads base partitions index-style.

    A Bloom probe inserted over a scan is transparent to the index cost
    model: operators above still charge output rows only, exactly as
    they would directly over the scan.
    """
    while isinstance(annotated.node, BloomProbe):
        annotated = annotated.inputs[0]
    return isinstance(annotated.node, Scan)


class _Compiler:
    """Compiles one annotated plan against one partitioned database."""

    def __init__(self, partitioned: PartitionedDatabase) -> None:
        self.partitioned = partitioned
        self.count = partitioned.partition_count
        #: The one predicate-transfer pass the plan's Bloom probes share.
        self.transfer = BloomTransfer()

    def lower(self, annotated: Annotated) -> PhysicalOperator:
        node = annotated.node
        if isinstance(node, Scan):
            return self._scan(annotated)
        if isinstance(node, Filter):
            return self._filter(annotated)
        if isinstance(node, BloomProbe):
            return self._bloom_probe(annotated)
        if isinstance(node, Project):
            return self._project(annotated)
        if isinstance(node, DedupFilter):
            return self._dedup(annotated)
        if isinstance(node, PartnerFilter):
            return self._partner_filter(annotated)
        if isinstance(node, Repartition):
            return self._repartition(annotated)
        if isinstance(node, Join):
            return self._join(annotated)
        if isinstance(node, Aggregate):
            return self._aggregate(annotated)
        if isinstance(node, OrderBy):
            return self._order_by(annotated)
        raise ExecutionError(f"cannot compile node {node!r}")

    # -- leaves ------------------------------------------------------------

    def _scan(self, annotated: Annotated) -> PhysicalOperator:
        node: Scan = annotated.node
        table = self.partitioned.table(node.table)
        if annotated.props.part.method is Method.REPLICATED:
            return PhysicalScan(annotated, table, 1, None)
        prune = annotated.extra.get("prune")
        allowed = prune.partitions(table) if prune is not None else None
        return PhysicalScan(annotated, table, len(table.partitions), allowed)

    # -- pipeline operators ------------------------------------------------

    def _filter(self, annotated: Annotated) -> PhysicalOperator:
        child = self.lower(annotated.inputs[0])
        indexed = _scan_adjacent(annotated.inputs[0])
        return PhysicalFilter(annotated, child, indexed)

    def _bloom_probe(self, annotated: Annotated) -> PhysicalOperator:
        child = self.lower(annotated.inputs[0])
        indexed = _scan_adjacent(annotated.inputs[0])
        return PhysicalBloomProbe(annotated, child, indexed, self.transfer)

    def _project(self, annotated: Annotated) -> PhysicalOperator:
        node: Project = annotated.node
        child = self.lower(annotated.inputs[0])
        fns = [expr.bind_batch(child.props.columns) for _name, expr in node.outputs]
        local_distinct = annotated.extra.get("distinct") == "local"
        return PhysicalProject(annotated, child, fns, local_distinct)

    def _dedup(self, annotated: Annotated) -> PhysicalOperator:
        child = self.lower(annotated.inputs[0])
        positions = child.props.positions(child.props.governing)
        indexed = _scan_adjacent(annotated.inputs[0])
        return PhysicalDedup(annotated, child, positions, indexed)

    def _partner_filter(self, annotated: Annotated) -> PhysicalOperator:
        node: PartnerFilter = annotated.node
        child = self.lower(annotated.inputs[0])
        position = child.props.position(has_column(node.table))
        indexed = _scan_adjacent(annotated.inputs[0])
        return PhysicalPartnerFilter(
            annotated, child, position, node.expect, indexed
        )

    # -- exchanges and multi-input operators -------------------------------

    def _repartition(self, annotated: Annotated) -> PhysicalOperator:
        node: Repartition = annotated.node
        child = self.lower(annotated.inputs[0])
        key_positions = child.props.positions(node.keys)
        governing = (
            child.props.positions(child.props.governing) if node.dedup else ()
        )
        return PhysicalRepartition(
            annotated,
            child,
            key_positions,
            governing,
            self.partitioned.router(node.count),
        )

    def _join(self, annotated: Annotated) -> PhysicalOperator:
        left = self.lower(annotated.inputs[0])
        right = self.lower(annotated.inputs[1])
        return PhysicalHashJoin(annotated, left, right, self.count)

    def _aggregate(self, annotated: Annotated) -> PhysicalOperator:
        child = self.lower(annotated.inputs[0])
        return PhysicalAggregate(
            annotated, child, self.count, self.partitioned.router(self.count)
        )

    def _order_by(self, annotated: Annotated) -> PhysicalOperator:
        child = self.lower(annotated.inputs[0])
        return PhysicalOrderBy(annotated, child)
