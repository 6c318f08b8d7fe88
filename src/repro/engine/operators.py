"""Self-contained physical operators with a per-partition task protocol.

Every operator is an isolated, schedulable unit.  A backend drives each
operator through up to three phases:

1. ``prepare_partition(ctx, p)`` — per-*input*-partition work that needs
   no cross-partition state (e.g. routing one source partition of a
   repartition, computing one node's aggregation partials).  Only barrier
   operators define these; ``prepare_count`` says how many.
2. ``exchange(ctx)`` — the barrier itself, run exactly once after every
   prepare task of this operator *and* every partition task of its
   inputs has completed.  This is where rows cross node boundaries
   (shuffle routing merge, broadcast shipping, partial-state merge,
   gather) and where exchange round-trips are accounted.
3. ``run_partition(ctx, p)`` — produces output partition *p*.  For
   pipeline operators (``barrier == False``) this is the whole operator
   and partitions are mutually independent, which is what lets a backend
   run them concurrently; for barrier operators it finishes per-partition
   post-exchange work (e.g. local DISTINCT after a shuffle).

Data moves between operators as :class:`~repro.engine.rows.ColumnBatch`
payloads — one batch per output partition — and the hot loops run as
columnar kernels (masks, gathers, zipped key building) instead of
per-row tuple code.  A pipeline operator runs its expression kernels
once over the whole partition batch.  The accounting is
aggregate-identical to the row-at-a-time engine this replaced: the same
counters reach the same totals (per-row counter bumps are summed into
one call), histogram-backed calls like ``add_output`` keep exactly one
call per task, and float aggregation still accumulates in source row
order — so canonical traces and :class:`~repro.query.cost.ExecutionStats`
are unchanged.

Operators materialise only their *live* columns — the output positions
some ancestor reads, assigned top-down by the compiler's live-column
pass (:func:`repro.engine.compile.assign_live_columns`).  A dead column
is an absent slot in the batch, positions unchanged; the accounting
keeps charging the rewriter's logical row widths.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, compress, count
from operator import and_, itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.engine.bloom import TRANSFER_FPR, BloomFilter
from repro.engine.context import ExecutionContext
from repro.engine.rows import (
    ColumnBatch,
    Row,
    _null_free_key,
    _null_pad,
    _sort_key,
    all_false_mask,
    distinct_batch,
    pad_take,
)
from repro.partitioning.scheme import KeyMemo
from repro.query.aggregates import aggregate_function, state_bytes
from repro.query.expressions import referenced_positions
from repro.query.plan import Aggregate, Join, JoinKind, OrderBy, Repartition
from repro.query.relation import Method, RelProps
from repro.query.rewrite import Annotated
from repro.storage.partition import Partition, build_key_table, index_lists
from repro.storage.partitioned import PartitionedTable

#: A compiled batch kernel (see ``Expression.bind_batch``).
BatchFn = Callable[[ColumnBatch], list]

#: Rows per group from which an aggregate folds group by group (index
#: lists, then a loop with the state in a local: less per row, a fixed
#: cost per group) instead of row by row (no per-group cost).  Measured,
#: not configured: EXPERIMENTS.md, "Columnar aggregation state".
GROUP_FOLD_ROWS = 64


def _group_ids(keys: Iterable) -> tuple[list[int], list]:
    """Dense group ids of *keys* in one C-level pass, and the distinct
    keys in first-occurrence order (group ``g`` has key ``distinct[g]``)."""
    ids: dict = defaultdict(count().__next__)
    gids = list(map(ids.__getitem__, keys))
    return gids, list(ids)


def _key_matches(
    table: dict, keys: Iterable
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """Probe *keys* against a build table (a key's value: one row index,
    or a list or array of them): the matching (probe row, build row)
    pairs, in probe order and then build order, and per probe row its
    ``(start, stop)`` run in those pairs — empty for a miss."""
    left_idx: list[int] = []
    right_idx: list[int] = []
    spans: list[tuple[int, int]] = []
    for i, matches in enumerate(map(table.get, keys)):
        start = len(right_idx)
        if matches is None:
            pass
        elif matches.__class__ is int:
            left_idx.append(i)
            right_idx.append(matches)
        else:
            left_idx.extend([i] * len(matches))
            right_idx.extend(matches)
        spans.append((start, len(right_idx)))
    return left_idx, right_idx, spans


class PhysicalOperator:
    """Base class: output storage, placement helpers, task protocol."""

    #: True if the operator needs all input partitions before it can
    #: produce any output partition (it performs an exchange).
    barrier: bool = False
    #: Number of pre-exchange per-partition tasks (barrier operators).
    prepare_count: int = 0
    #: Human-readable name for per-operator stats (set by subclasses).
    name: str = "op"
    #: Operators elsewhere in the plan (not inputs) whose whole output
    #: this operator's ``exchange()`` reads.  ``walk`` yields them before
    #: this operator, so the schedule has run them when the exchange does.
    after: Sequence["PhysicalOperator"] = ()

    def __init__(
        self,
        annotated: Annotated,
        inputs: Sequence["PhysicalOperator"],
        output_count: int,
    ) -> None:
        self.annotated = annotated
        self.props: RelProps = annotated.props
        self.inputs = list(inputs)
        self.output_count = output_count
        self.op_id = -1  # assigned in post-order by the compiler
        self.width = len(self.props.columns)
        #: Output positions the stored batches hold; narrowed by the
        #: compiler's live-column pass.
        self.live: frozenset[int] = frozenset(range(self.width))
        self._partitions: list[ColumnBatch | None] = [None] * output_count
        #: Task state besides the output partitions (barrier operators):
        #: what ``prepare_partition(p)`` left, by ``p``, and what
        #: ``exchange()`` left.
        self.prepared: dict[int, object] = {}
        self.exchanged: object = None

    # -- identity ----------------------------------------------------------

    @property
    def label(self) -> str:
        """Stable display label, e.g. ``HashJoin(...)``."""
        return self.name

    def walk(self, _seen: set[int] | None = None):
        """Yield the plan below this operator in dependency order: the
        inputs and the ``after`` producers before the operator that reads
        them, each operator once."""
        seen = set() if _seen is None else _seen
        if id(self) in seen:
            return
        seen.add(id(self))
        for producer in (*self.inputs, *self.after):
            yield from producer.walk(seen)
        yield self

    # -- output storage ----------------------------------------------------

    @property
    def is_single_copy(self) -> bool:
        """True if the output holds one logical copy (repl/gathered)."""
        return self.props.part.method in (Method.REPLICATED, Method.GATHERED)

    def partition_batch(self, p: int) -> ColumnBatch:
        """Output partition *p* (must have been produced already)."""
        batch = self._partitions[p]
        assert batch is not None, f"partition {p} of {self.label} not ready"
        return batch

    def node_batch(self, node: int) -> ColumnBatch:
        """The batch node *node* works on (single copies live in slot 0)."""
        return self.partition_batch(0 if self.output_count == 1 else node)

    def node_stored(self, node: int) -> Partition | None:
        """The stored partition that :meth:`node_batch` aliases row for
        row, if any (only a scan's output can)."""
        return None

    def store_batch(self, p: int, batch: ColumnBatch) -> None:
        """Publish output partition *p*."""
        self._partitions[p] = batch

    def total_rows(self) -> int:
        """Row count over all produced partitions."""
        return sum(
            batch.length for batch in self._partitions if batch is not None
        )

    # -- task protocol -----------------------------------------------------

    def prepare_partition(self, ctx: ExecutionContext, p: int) -> None:
        """Pre-exchange work for input partition *p* (barrier ops only)."""
        raise NotImplementedError

    def exchange(self, ctx: ExecutionContext) -> None:
        """The exchange barrier (barrier ops only)."""
        raise NotImplementedError

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        """Produce output partition *p*."""
        raise NotImplementedError

    # -- what the backends ask ---------------------------------------------

    def remote_eligible(self, phase: str) -> bool:
        """Whether the thread pool may run *phase*'s tasks on its workers.

        Exchanges run on the calling thread, and so do a barrier's
        partition tasks, which read what the exchange left (a shuffle's
        receiver gathers from every sender).  Prepare tasks and the
        partition tasks of a pipeline operator are per-partition batch
        kernels and may go to the pool.
        """
        if phase == "exchange":
            return False
        return phase == "prepare" or not self.barrier


# --------------------------------------------------------------------------
# Leaf and pipeline operators
# --------------------------------------------------------------------------


class PhysicalScan(PhysicalOperator):
    """Materialise one base-table partition per task.

    Scans are not charged: consumers charge their inputs (and filters
    directly over a scan charge only their output, modelling index access
    on the nodes).
    """

    name = "scan"

    def __init__(
        self,
        annotated: Annotated,
        table: PartitionedTable,
        output_count: int,
        allowed: frozenset[int] | None,
    ) -> None:
        super().__init__(annotated, [], output_count)
        self.table = table
        self.allowed = allowed
        self.attach_bitmaps = self.props.part.method is Method.PREF
        self.replicated = self.props.part.method is Method.REPLICATED

    @property
    def label(self) -> str:
        return f"scan({self.table.schema.name})"

    def _stored(self, partition, *bitmaps: list) -> ColumnBatch:
        """The partition's live columns (and *bitmaps*) as a batch.

        Only the outer list is new: the columns alias the store, so an
        operator that mutated a batch column in place would corrupt data.
        """
        return ColumnBatch(
            [*partition.columns, *bitmaps], partition.row_count
        ).prune(self.live)

    def node_stored(self, node: int) -> Partition | None:
        """None when the batch is not the store's own columns: patched-PREF
        deliveries were appended to a copy, or ``allowed`` pruned the
        partition."""
        p = 0 if self.output_count == 1 else node
        batch = self._partitions[p]
        partition = self.table.partitions[p]
        if batch is None or batch.length != partition.row_count:
            return None
        for column, stored in zip(batch.columns, partition.columns):
            if column is not None and column is not stored:
                return None
        return partition

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        if self.replicated:
            batch = self._stored(self.table.partitions[0])
            ctx.add_output(self, batch.length, 0)
            self.store_batch(0, batch)
            return
        partition = self.table.partitions[p]
        if self.allowed is not None and partition.partition_id not in self.allowed:
            self.store_batch(p, ColumnBatch.empty(self.width))
            return
        ctx.add_partition_scanned(self)
        if self.attach_bitmaps:
            batch = self._stored(partition, partition.dup, partition.has_partner)
            deliveries = self.table.patches_for(partition.partition_id)
            if deliveries:
                # Residual shuffle for patched PREF: overflow copies whose
                # storage was capped at max_copies are delivered to their
                # partner partitions at scan time.  They behave exactly
                # like stored dup=1 copies, so every downstream rewrite
                # that is correct for plain PREF stays correct.  The
                # stored columns are aliased read-only — copy before
                # extending.
                columns = [
                    None if column is None else list(column)
                    for column in batch.columns
                ]
                for row, _source_id in deliveries:
                    for column, value in zip(columns, (*row, 1, 1)):
                        if column is not None:
                            column.append(value)
                extra = len(deliveries)
                batch = ColumnBatch(columns, batch.length + extra)
                ctx.add_network(
                    self, extra * self.table.schema.row_byte_width, extra
                )
                ctx.add_patch(self, extra)
        else:
            batch = self._stored(partition)
        ctx.add_output(self, batch.length, p)
        self.store_batch(p, batch)


class PhysicalFilter(PhysicalOperator):
    """Batch filter.  Directly over a base-table scan it is served by an
    index: only the qualifying rows are charged."""

    name = "filter"

    def __init__(
        self,
        annotated: Annotated,
        child: PhysicalOperator,
        predicate: BatchFn,
        indexed: bool,
    ) -> None:
        super().__init__(annotated, [child], child.output_count)
        self.predicate = predicate
        self.indexed = indexed

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        child = self.inputs[0]
        batch = child.partition_batch(p)
        # Unknown (None) is falsy, so compress rejects it for free.
        out = batch.prune(self.live).compress(self.predicate(batch))
        ctx.account(
            self, child.props.part.method, p,
            out.length if self.indexed else batch.length,
        )
        ctx.add_output(self, out.length, p)
        self.store_batch(p, out)


class _Pruning(NamedTuple):
    """What the transfer pass leaves one probe."""

    #: Keep-mask per output partition; None when no filter was kept.
    masks: list[list[bool]] | None = None
    #: The kept filters, and their summed wire size.
    filters: int = 0
    filter_bytes: int = 0


class BloomTransfer:
    """The predicate-transfer pass of one compiled plan, shared by its
    probes and run once — in the exchange of whichever probe the schedule
    reaches first — over the outputs of every probe's child.

    Sites are ranked by surviving rows; a forward sweep (small relations
    first) and a backward sweep push a Bloom filter, built from the source
    site's *surviving* keys, across every edge.  A filter that prunes
    nothing is dropped; a kept one narrows its target's keep-masks, so
    later edges build from the narrowed key set.
    """

    def __init__(self) -> None:
        #: Site alias -> its probe, filled in as the compiler lowers them.
        self.probes: dict[str, "PhysicalBloomProbe"] = {}
        self._pruning: dict[str, _Pruning] | None = None

    def pruning(self, site: str) -> _Pruning:
        """The outcome for *site*; the first call runs the pass."""
        if self._pruning is None:
            self._pruning = self._run()
        return self._pruning[site]

    def _run(self) -> dict[str, _Pruning]:
        batches = {
            site: [
                probe.inputs[0].partition_batch(p)
                for p in range(probe.output_count)
            ]
            for site, probe in self.probes.items()
        }
        alive = {
            site: sum(batch.length for batch in parts)
            for site, parts in batches.items()
        }
        pruning = dict.fromkeys(batches, _Pruning())
        ranked = sorted(batches, key=lambda site: (alive[site], site))
        rank = {site: position for position, site in enumerate(ranked)}
        edges = [e for probe in self.probes.values() for e in probe.edges]
        forward = sorted(
            (e for e in edges if rank[e.source] < rank[e.target]),
            key=lambda e: (rank[e.target], rank[e.source], e),
        )
        backward = sorted(
            (e for e in edges if rank[e.source] > rank[e.target]),
            key=lambda e: (-rank[e.target], -rank[e.source], e),
        )
        for edge in forward + backward:
            if not alive[edge.target]:
                continue
            keys: set = set()
            alive_at_source = pruning[edge.source].masks
            for p, batch in enumerate(batches[edge.source]):
                column = batch.key_values(edge.source_positions)
                if alive_at_source is not None:
                    column = compress(column, alive_at_source[p])
                keys.update(column)
            keys.discard(None)
            # An empty source still builds a (tiny) filter that prunes
            # every probe — no partner can exist.
            bloom = BloomFilter.sized(max(1, len(keys)), TRANSFER_FPR)
            bloom.add_many(keys)
            answers = KeyMemo(bloom.might_contain)
            kept = pruning[edge.target]
            masks = [
                answers.map(batch.key_values(edge.positions))
                for batch in batches[edge.target]
            ]
            if kept.masks is not None:
                masks = [
                    list(map(and_, old, new))
                    for old, new in zip(kept.masks, masks)
                ]
            survivors = sum(mask.count(True) for mask in masks)
            if survivors == alive[edge.target]:
                continue
            alive[edge.target] = survivors
            pruning[edge.target] = _Pruning(
                masks, kept.filters + 1, kept.filter_bytes + bloom.byte_size
            )
        return pruning


class PhysicalBloomProbe(PhysicalOperator):
    """Predicate-transfer probe: drop rows whose join keys miss a Bloom
    filter built from the other side of a join edge.

    A barrier: its ``exchange()`` takes this site's outcome of the plan's
    one :class:`BloomTransfer` pass (running it if no probe has yet),
    which reads the outputs of the *other* probes' children too — the
    ``after`` declaration.  The coordinator builds the filters and ships
    the kept ones to every other node, which the accounting charges as
    one filter payload per non-coordinator partition.  Probing is per-key
    and NULL-rejecting, so results are invariant in the knob (a pruned
    row could never have survived the downstream join).  A probe that
    kept no filter hands its child's batches on and charges nothing.
    """

    barrier = True
    name = "bloom_probe"

    def __init__(
        self,
        annotated: Annotated,
        child: PhysicalOperator,
        indexed: bool,
        transfer: BloomTransfer,
    ) -> None:
        super().__init__(annotated, [child], child.output_count)
        self.site: str = annotated.extra["site"]
        #: The incoming :class:`~repro.query.predicate_transfer.TransferEdge`s.
        self.edges = tuple(annotated.extra["bloom"])
        self.indexed = indexed
        self.transfer = transfer
        transfer.probes[self.site] = self

    @property
    def after(self) -> list[PhysicalOperator]:
        return [
            probe.inputs[0]
            for probe in self.transfer.probes.values()
            if probe is not self
        ]

    def key_positions(self) -> set[int]:
        """The child positions the pass reads at this site: the probed
        keys of the incoming edges, the build keys of the outgoing ones."""
        reads = {q for edge in self.edges for q in edge.positions}
        for probe in self.transfer.probes.values():
            for edge in probe.edges:
                if edge.source == self.site:
                    reads.update(edge.source_positions)
        return reads

    def exchange(self, ctx: ExecutionContext) -> None:
        self.exchanged = self.transfer.pruning(self.site)

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        child = self.inputs[0]
        batch = child.partition_batch(p)
        masks, _filters, filter_bytes = self.exchanged
        out = batch.prune(self.live)
        if masks is not None:
            out = out.compress(masks[p])
            if p != 0:
                # Shipping the coordinator-built filters to this node.
                ctx.add_network(self, filter_bytes, 0)
            ctx.account(
                self, child.props.part.method, p,
                out.length if self.indexed else batch.length,
            )
            ctx.add_bloom(self, batch.length, batch.length - out.length)
        ctx.add_output(self, out.length, p)
        self.store_batch(p, out)


class PhysicalProject(PhysicalOperator):
    """Column projection / computation, optionally locally distinct."""

    name = "project"

    def __init__(
        self,
        annotated: Annotated,
        child: PhysicalOperator,
        fns: Sequence[BatchFn],
        local_distinct: bool,
    ) -> None:
        super().__init__(annotated, [child], child.output_count)
        self.fns = list(fns)
        self.local_distinct = local_distinct

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        child = self.inputs[0]
        batch = child.partition_batch(p)
        out = ColumnBatch([fn(batch) for fn in self.fns], batch.length)
        if self.local_distinct:
            out = distinct_batch(out)
        ctx.account(self, child.props.part.method, p, batch.length)
        ctx.add_output(self, out.length, p)
        self.store_batch(p, out)


class PhysicalDedup(PhysicalOperator):
    """PREF duplicate elimination via the governing dup-bitmap columns.

    Used both for explicit DedupFilter plan nodes and for the implicit
    final dedup before gathering the result.  Elimination via the dup
    bitmap index costs only the kept rows when applied directly over a
    scan.
    """

    name = "dedup"

    def __init__(
        self,
        annotated: Annotated,
        child: PhysicalOperator,
        positions: Sequence[int],
        indexed: bool,
    ) -> None:
        super().__init__(annotated, [child], child.output_count)
        self.positions = tuple(positions)
        self.indexed = indexed

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        child = self.inputs[0]
        batch = child.partition_batch(p)
        keep = all_false_mask(
            [batch.column(q) for q in self.positions], batch.length
        )
        out = batch.prune(self.live).compress(keep)
        ctx.account(
            self, child.props.part.method, p,
            out.length if self.indexed else batch.length,
        )
        ctx.add_dup_eliminated(self, batch.length - out.length)
        ctx.add_output(self, out.length, p)
        self.store_batch(p, out)


class PhysicalPartnerFilter(PhysicalOperator):
    """The paper's hasS-index rewrite: semi/anti join as a bitmap filter."""

    name = "partner_filter"

    def __init__(
        self,
        annotated: Annotated,
        child: PhysicalOperator,
        position: int,
        expect: bool,
        indexed: bool,
    ) -> None:
        super().__init__(annotated, [child], child.output_count)
        self.position = position
        self.expect = 1 if expect else 0
        self.indexed = indexed

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        child = self.inputs[0]
        batch = child.partition_batch(p)
        expect = self.expect
        keep = [value == expect for value in batch.column(self.position)]
        out = batch.prune(self.live).compress(keep)
        ctx.account(
            self, child.props.part.method, p,
            out.length if self.indexed else batch.length,
        )
        ctx.add_output(self, out.length, p)
        self.store_batch(p, out)


# --------------------------------------------------------------------------
# Exchange operators
# --------------------------------------------------------------------------


class PhysicalRepartition(PhysicalOperator):
    """Hash shuffle, split like the paper's exchange: senders route,
    receivers gather, and each shipped value is copied once.

    ``prepare_partition(p)`` routes source *p* and copies no rows: its
    state is ``(routed batch, bucket indices)``, the batch holding the
    live columns (aliased unless governing dup bits dropped rows) and one
    ascending index list per target.  A source that is a bare stored
    partition (no governing bits to apply) takes the partition's kept
    buckets (``Partition.buckets``), built once per write; any other
    source is routed through *route*, the store's routing memo.
    ``exchange()`` publishes the senders' states and does no row work.
    ``run_partition(p)`` builds target *p*: per live column one new list,
    extended by one ``itemgetter`` per (source, target) in source order —
    the serial interpreter's row order."""

    barrier = True
    name = "repartition"

    def __init__(
        self,
        annotated: Annotated,
        child: PhysicalOperator,
        key_positions: Sequence[int],
        governing_positions: Sequence[int],
        route: KeyMemo,
    ) -> None:
        node: Repartition = annotated.node
        super().__init__(annotated, [child], node.count)
        self.key_positions = tuple(key_positions)
        self.governing = tuple(governing_positions)
        self.row_bytes = child.props.row_bytes()
        self.local_distinct = annotated.extra.get("distinct") == "local"
        self.child_method = child.props.part.method
        self.prepare_count = child.output_count
        #: key -> target partition (``stable_hash(key) % count``).
        self._route = route

    def prepare_partition(self, ctx: ExecutionContext, p: int) -> None:
        child = self.inputs[0]
        batch = child.partition_batch(p)
        count = self.output_count
        # Keys and dup bits are read here; only live columns are routed.
        routed = batch.prune(self.live)
        stored = None if self.governing else child.node_stored(p)
        if stored is not None:
            bucket_indices = stored.buckets(self.key_positions, count, self._route)
        else:
            keys = batch.key_values(self.key_positions)
            if self.governing:
                keep = all_false_mask(
                    [batch.column(q) for q in self.governing], batch.length
                )
                keys = list(compress(keys, keep))
                routed = routed.compress(keep)
            bucket_indices = index_lists(self._route.map(keys), count)
        skipped = batch.length - routed.length
        if self.child_method is Method.REPLICATED:
            # Every node already holds the full content; each just keeps
            # its own hash range — no network traffic.
            for index in range(count):
                ctx.add_work(self, index, batch.length)
        else:
            # Gathered inputs live on the coordinator: source index 0.
            ctx.account(self, self.child_method, p, batch.length)
            local = len(bucket_indices[p]) if p < count else 0
            moved = routed.length - local
            if moved:
                ctx.add_network(self, self.row_bytes * moved, moved)
        ctx.add_dup_eliminated(self, skipped)
        self.prepared[p] = (routed, bucket_indices)

    def exchange(self, ctx: ExecutionContext) -> None:
        ctx.add_shuffle(self)
        self.exchanged = [self.prepared[p] for p in range(self.prepare_count)]

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        # (source columns, getter, one row) per non-empty bucket, in
        # source order; itemgetter returns a bare value for one index.
        gathers = []
        length = 0
        for routed, buckets in self.exchanged:
            bucket = buckets[p]
            if bucket:
                gathers.append(
                    (routed.columns, itemgetter(*bucket), len(bucket) == 1)
                )
                length += len(bucket)
        columns: list[list | None] = [None] * self.width
        for index in self.live:
            column = columns[index] = []
            for source, getter, one_row in gathers:
                if one_row:
                    column.append(getter(source[index]))
                else:
                    column.extend(getter(source[index]))
        batch = ColumnBatch(columns, length)
        if self.local_distinct:
            deduped = distinct_batch(batch)
            ctx.add_dup_eliminated(self, batch.length - deduped.length)
            batch = deduped
        ctx.add_output(self, batch.length, p)
        self.store_batch(p, batch)


class _Broadcast(NamedTuple):
    """What a broadcast join's ``exchange()`` leaves its partition tasks."""

    ship_left: bool
    shipped: ColumnBatch
    #: The exchange already stored the whole result (both inputs turned
    #: out to be single copies); the partition tasks have nothing to do.
    done: bool


class PhysicalHashJoin(PhysicalOperator):
    """Hash join (or nested loop without keys) in one of three modes:

    * ``local`` — inputs are co-partitioned; every node joins its own
      rows independently (one task per node, no exchange);
    * ``both_replicated`` — both inputs are full copies; join once;
    * ``broadcast`` — ship the smaller input to every node in the
      exchange, then probe per node concurrently.

    The keyed join is fully columnar: build and probe keys come from one
    ``zip`` over the key columns, match pairs accumulate as index lists,
    and the output is a gather over both inputs — with ``-1`` marking
    LEFT OUTER pad rows.  Output order is the row engine's contract:
    left-row order, matches in right-insertion order, the pad emitted
    when no match survives the residual.
    """

    name = "join"

    def __init__(
        self,
        annotated: Annotated,
        left: PhysicalOperator,
        right: PhysicalOperator,
        cluster_count: int,
    ) -> None:
        node: Join = annotated.node
        self.strategy = annotated.extra.get("strategy", "local")
        self.case = annotated.extra.get("case")
        self.single = self.case == "both_replicated"
        output_count = 1 if self.single else cluster_count
        super().__init__(annotated, [left, right], output_count)
        self.node = node
        self.count = cluster_count
        if self.strategy == "broadcast":
            self.barrier = True
        combined = left.props.columns + right.props.columns
        self.residual = (
            node.residual.bind(combined) if node.residual is not None else None
        )
        self.residual_batch = (
            node.residual.bind_batch(combined)
            if node.residual is not None
            else None
        )
        residual_reads = referenced_positions([node.residual], combined)
        #: Input positions the residual reads, per side.
        self.left_residual = frozenset(
            q for q in residual_reads if q < left.width
        )
        self.right_residual = frozenset(
            q - left.width for q in residual_reads if q >= left.width
        )
        #: Input positions that reach the output, per side; narrowed with
        #: ``live`` by the compiler's live-column pass.
        self.left_out = left.live
        self.right_out = right.live
        self.left_positions = tuple(left.props.position(l) for l, _ in node.on)
        self.right_positions = tuple(
            right.props.position(r) for _, r in node.on
        )
        self.pad = (
            _null_pad(right.props) if node.kind is JoinKind.LEFT_OUTER else None
        )
        self.exchanged = _Broadcast(False, ColumnBatch.empty(0), False)
        # Build-side caches, keyed by batch identity: broadcast probes
        # join every node's rows against the *same* shipped build batch,
        # so the hash table (or partner key set) is built once per query
        # instead of once per node.  Racing tasks may rebuild it
        # redundantly but always identically.
        self._table_cache: tuple[ColumnBatch, dict, bool] | None = None
        self._keyset_cache: tuple[ColumnBatch, set] | None = None
        # Set once a build side turns out to have duplicate keys; later
        # partitions of the same join then skip the optimistic
        # unique-build attempt (pure work avoidance, no semantic change).
        self._dup_build = False

    @property
    def label(self) -> str:
        return f"join[{self.strategy}]"

    # -- batch-level join --------------------------------------------------

    def _join_batches(
        self,
        left_batch: ColumnBatch,
        right_batch: ColumnBatch,
        stored: Partition | None = None,
    ) -> ColumnBatch:
        """Join two batches; *stored* is the partition *right_batch*
        aliases, if any, whose kept key index then serves as the build."""
        node = self.node
        if not node.on:
            rows = self._nested_loop(
                left_batch.to_rows(), right_batch.to_rows()
            )
            return ColumnBatch.from_rows(rows, self.width)
        left_keys = left_batch.key_values(self.left_positions)
        if node.kind in (JoinKind.SEMI, JoinKind.ANTI):
            return self._semi_anti(left_batch, left_keys, right_batch, stored)
        return self._equi_join(left_batch, left_keys, right_batch, stored)

    def _table(
        self, right_batch: ColumnBatch, stored: Partition | None
    ) -> tuple[dict, bool]:
        """The build side's hash table and whether its keys are unique
        (see :func:`~repro.storage.partition.build_key_table`).

        A stored build side answers from the partition's key index, so a
        table with repeated keys is built once per write, not per query;
        any other build side is built here, once per batch.
        """
        if stored is not None:
            table, unique = stored.key_table(
                self.right_positions, not self._dup_build
            )
        else:
            cached = self._table_cache
            if cached is not None and cached[0] is right_batch:
                return cached[1], cached[2]
            table, unique = build_key_table(
                [right_batch.column(p) for p in self.right_positions],
                not self._dup_build,
            )
            self._table_cache = (right_batch, table, unique)
        if not unique:
            self._dup_build = True
        return table, unique

    def _combined(
        self,
        left_batch: ColumnBatch,
        left_idx: list[int],
        right_batch: ColumnBatch,
        right_idx: list[int],
    ) -> ColumnBatch:
        """Candidate pairs as one wide batch for residual evaluation
        (only the columns the residual reads are gathered)."""
        return ColumnBatch(
            left_batch.prune(self.left_residual).take(left_idx).columns
            + right_batch.prune(self.right_residual).take(right_idx).columns,
            len(left_idx),
        )

    def _emit(
        self,
        left_batch: ColumnBatch,
        left_idx: list[int],
        right_batch: ColumnBatch,
        right_idx: list[int],
    ) -> ColumnBatch:
        """Gather the output batch; ``-1`` in *right_idx* is the pad."""
        return self._emit_aligned(
            left_batch.prune(self.left_out).take(left_idx),
            right_batch,
            right_idx,
        )

    def _emit_aligned(
        self,
        left_out: ColumnBatch,
        right_batch: ColumnBatch,
        right_idx: list[int],
    ) -> ColumnBatch:
        """Output when *left_out* (already pruned to ``self.left_out``)
        is aligned row-for-row with *right_idx*: its columns pass through
        with no gather at all (the unique-build joins rely on this)."""
        pad = self.pad
        right = right_batch.prune(self.right_out)
        if pad is None:
            columns = left_out.columns + right.take(right_idx).columns
        else:
            columns = left_out.columns + [
                None
                if column is None
                else pad_take(column, right_idx, pad[index])
                for index, column in enumerate(right.columns)
            ]
        return ColumnBatch(columns, len(right_idx))

    def _equi_join(
        self,
        left_batch: ColumnBatch,
        left_keys: list,
        right_batch: ColumnBatch,
        stored: Partition | None,
    ) -> ColumnBatch:
        table, unique = self._table(right_batch, stored)
        residual = self.residual_batch
        pad = self.pad
        if residual is None and unique:
            # Unique build side (the usual FK -> PK case): every probe
            # hit pairs with exactly one build row, so the output's left
            # half is the probe batch itself (or a compress of it) in
            # order, and the whole probe runs as C-level map/compress.
            # NULL probe keys miss for free: the table holds no NULLs.
            raw = list(map(table.get, left_keys))
            left_out = left_batch.prune(self.left_out)
            if pad is not None:
                right_idx = [-1 if m is None else m for m in raw]
                return self._emit_aligned(left_out, right_batch, right_idx)
            if None not in raw:  # every probe row matched (FK -> PK)
                return self._emit_aligned(left_out, right_batch, raw)
            mask = [m is not None for m in raw]
            return self._emit_aligned(
                left_out.compress(mask),
                right_batch,
                list(compress(raw, mask)),
            )
        if residual is None:
            # NULL-bearing probe keys miss for free: the table only
            # holds NULL-free keys, and no tuple equals one of those.
            left_idx: list[int] = []
            right_idx: list[int] = []
            for i, matches in enumerate(map(table.get, left_keys)):
                if matches is None:
                    if pad is not None:
                        left_idx.append(i)
                        right_idx.append(-1)
                elif matches.__class__ is int:
                    left_idx.append(i)
                    right_idx.append(matches)
                else:
                    left_idx.extend([i] * len(matches))
                    right_idx.extend(matches)
            return self._emit(left_batch, left_idx, right_batch, right_idx)
        # A residual restricts which key matches survive: evaluate it
        # once over every candidate pair, then keep survivors in
        # left-row order, padding rows whose matches all failed.
        left_idx, right_idx, spans = _key_matches(table, left_keys)
        mask = residual(
            self._combined(left_batch, left_idx, right_batch, right_idx)
        )
        final_left: list[int] = []
        final_right: list[int] = []
        for i, (start, stop) in enumerate(spans):
            emitted = False
            for pos in range(start, stop):
                if mask[pos]:
                    final_left.append(i)
                    final_right.append(right_idx[pos])
                    emitted = True
            if pad is not None and not emitted:
                final_left.append(i)
                final_right.append(-1)
        return self._emit(left_batch, final_left, right_batch, final_right)

    def _semi_anti(
        self,
        left_batch: ColumnBatch,
        left_keys: list,
        right_batch: ColumnBatch,
        stored: Partition | None,
    ) -> ColumnBatch:
        expect = self.node.kind is JoinKind.SEMI
        residual = self.residual_batch
        if residual is None:
            cached = self._keyset_cache
            if cached is not None and cached[0] is right_batch:
                keys = cached[1]
            else:
                right_keys = right_batch.key_values(self.right_positions)
                if len(self.right_positions) == 1:
                    keys = set(right_keys)
                    keys.discard(None)
                elif any(
                    right_batch.has_nulls(p) for p in self.right_positions
                ):
                    keys = {key for key in right_keys if _null_free_key(key)}
                else:
                    keys = set(right_keys)
                self._keyset_cache = (right_batch, keys)
            # A NULL-bearing left key is never a partner — which keeps
            # the row under ANTI and drops it under SEMI.  Bare (single
            # column) keys need no NULL branch at all: None is never in
            # *keys*, so membership alone is already the SQL test.
            if len(self.left_positions) == 1:
                if expect:
                    keep = list(map(keys.__contains__, left_keys))
                else:
                    keep = [key not in keys for key in left_keys]
            elif any(left_batch.has_nulls(p) for p in self.left_positions):
                keep = [
                    (_null_free_key(key) and key in keys) == expect
                    for key in left_keys
                ]
            elif expect:
                keep = [key in keys for key in left_keys]
            else:
                keep = [key not in keys for key in left_keys]
            return left_batch.prune(self.left_out).compress(keep)
        # A residual restricts which key matches count as partners: a
        # left row matches only if some key-equal right row also
        # satisfies the residual on the combined row.
        partners, _unique = self._table(right_batch, stored)
        left_idx, right_idx, spans = _key_matches(partners, left_keys)
        mask = residual(
            self._combined(left_batch, left_idx, right_batch, right_idx)
        )
        keep = [
            any(mask[pos] for pos in range(start, stop)) == expect
            for start, stop in spans
        ]
        return left_batch.prune(self.left_out).compress(keep)

    def _nested_loop(self, left_rows: list[Row], right_rows: list[Row]) -> list[Row]:
        node = self.node
        residual = self.residual
        pad = self.pad
        if node.kind in (JoinKind.SEMI, JoinKind.ANTI):
            expect = node.kind is JoinKind.SEMI
            result = []
            for row in left_rows:
                matched = any(
                    residual is None or residual(row + other)
                    for other in right_rows
                )
                if matched == expect:
                    result.append(row)
            return result
        out: list[Row] = []
        for row in left_rows:
            emitted = False
            for other in right_rows:
                combined = row + other
                if residual is None or residual(combined):
                    out.append(combined)
                    emitted = True
            if pad is not None and not emitted:
                out.append(row + pad)
        return out

    # -- broadcast exchange ------------------------------------------------

    def exchange(self, ctx: ExecutionContext) -> None:
        """Ship the smaller input to every node (paper's remote join)."""
        node = self.node
        left, right = self.inputs
        ctx.add_shuffle(self)
        if node.kind in (JoinKind.SEMI, JoinKind.ANTI, JoinKind.LEFT_OUTER):
            # The preserved side must stay partitioned; ship the other one.
            ship_left = False
        else:
            ship_left = left.total_rows() <= right.total_rows()
        shipped_op, kept_op = (left, right) if ship_left else (right, left)
        shipped = ColumnBatch.concat(
            [
                shipped_op.partition_batch(p)
                for p in range(shipped_op.output_count)
            ],
            shipped_op.width,
        )
        if shipped_op.props.part.method is not Method.REPLICATED:
            bytes_each = shipped_op.props.row_bytes()
            ctx.add_network(
                self,
                bytes_each * shipped.length * max(self.count - 1, 1),
                shipped.length * max(self.count - 1, 1),
            )
        self.exchanged = _Broadcast(ship_left, shipped, kept_op.is_single_copy)
        if kept_op.is_single_copy:
            # Both inputs are now fully available on every node; computing
            # per partition would emit the result once per node.  Compute
            # once instead.
            kept = kept_op.partition_batch(0)
            if ship_left:
                out = self._join_batches(shipped, kept)
            else:
                out = self._join_batches(kept, shipped)
            ctx.add_work(self, 0, kept.length + shipped.length + out.length)
            ctx.add_join_event(
                self,
                0,
                kept.length if ship_left else shipped.length,
                shipped.length if ship_left else kept.length,
            )
            ctx.add_output(self, out.length, 0)
            self.store_batch(0, out)
            for index in range(1, self.output_count):
                self.store_batch(index, ColumnBatch.empty(self.width))

    # Broadcast probes are heavy batch kernels, so partition tasks stay
    # remote-eligible even though the operator is a barrier; when the
    # exchange already computed the whole result (both inputs single
    # copies), the leftover partition tasks are no-ops.

    def remote_eligible(self, phase: str) -> bool:
        return phase != "exchange"

    # -- per-partition execution -------------------------------------------

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        if self.strategy == "broadcast":
            self._run_broadcast_partition(ctx, p)
            return
        left, right = self.inputs
        # The stored partition travels as an argument, never through an
        # attribute: a pool runs this join's partition tasks concurrently.
        if self.single:
            left_batch = left.partition_batch(0)
            right_batch = right.partition_batch(0)
            out = self._join_batches(
                left_batch, right_batch, right.node_stored(0)
            )
            ctx.add_work(self, 0, left_batch.length + right_batch.length)
            ctx.add_join_event(self, 0, right_batch.length, left_batch.length)
            ctx.add_output(self, out.length, 0)
            self.store_batch(0, out)
            return
        left_batch = left.node_batch(p)
        right_batch = right.node_batch(p)
        out = self._join_batches(left_batch, right_batch, right.node_stored(p))
        ctx.add_work(
            self, p, left_batch.length + right_batch.length + out.length
        )
        ctx.add_join_event(self, p, right_batch.length, left_batch.length)
        ctx.add_output(self, out.length, p)
        self.store_batch(p, out)

    def _run_broadcast_partition(self, ctx: ExecutionContext, p: int) -> None:
        ship_left, shipped, done = self.exchanged
        if done:
            return  # stored by exchange()
        left, right = self.inputs
        kept_op = right if ship_left else left
        kept = kept_op.node_batch(p)
        if ship_left:
            out = self._join_batches(shipped, kept)
        else:
            out = self._join_batches(kept, shipped)
        ctx.add_work(self, p, kept.length + shipped.length + out.length)
        build_rows = kept.length if ship_left else shipped.length
        probe_rows = shipped.length if ship_left else kept.length
        ctx.add_join_event(self, p, build_rows, probe_rows)
        ctx.add_output(self, out.length, p)
        self.store_batch(p, out)


class PhysicalAggregate(PhysicalOperator):
    """Aggregation in one of three modes:

    * ``single`` — the input is one copy (gathered/replicated); one task;
    * ``local`` — groups are partition-local; one task per partition;
    * ``two_phase`` — per-partition partials (``prepare_partition``, run
      concurrently), then the compact states ship to their hash targets
      and merge in the exchange.

    A group's state is a slot in one state column per aggregate (see
    :class:`~repro.query.aggregates.AggregateFunction`); a partial is
    ``(keys, state columns)``.
    Groups are numbered in first-occurrence order and every fold runs in
    ascending row order (merges in source order), so output row order and
    float accumulation match the serial row engine bit for bit.
    """

    name = "aggregate"

    def __init__(
        self,
        annotated: Annotated,
        child: PhysicalOperator,
        cluster_count: int,
        route: KeyMemo,
    ) -> None:
        node: Aggregate = annotated.node
        self.strategy = annotated.extra["strategy"]
        self.scalar = not node.group_by
        if self.strategy == "single":
            output_count = 1
        elif self.strategy == "local":
            output_count = child.output_count
        else:
            output_count = 1 if self.scalar else cluster_count
        super().__init__(annotated, [child], output_count)
        self.count = cluster_count
        #: The exchange's group key -> target (``stable_hash(key) % count``).
        self._route = route
        #: A single position groups, and routes, on the bare value (as a
        #: one-column shuffle key does), several on tuples.
        self.group_positions = child.props.positions(node.group_by)
        #: Argument kernels; None marks COUNT(*) (no argument expression).
        self.agg_fns = [
            spec.expr.bind_batch(child.props.columns) if spec.expr else None
            for spec in node.aggregates
        ]
        #: One declaration per aggregate; its state is one state column.
        self.functions = [aggregate_function(spec.func) for spec in node.aggregates]
        widths = [function.width for function in self.functions]
        #: Wire bytes of a shipped state's key and fixed-width columns; the
        #: data-sized ones (COUNT DISTINCT) are charged state by state.
        self.fixed_state_bytes = 8 * max(len(node.group_by), 1) + sum(
            filter(None, widths)
        )
        self.data_sized = [slot for slot, width in enumerate(widths) if width is None]
        if self.strategy == "two_phase":
            # The partition tasks only hand out the merged groups.
            self.barrier = True
            self.prepare_count = child.output_count

    @property
    def label(self) -> str:
        return f"aggregate[{self.strategy}]"

    def _result_batch(self, keys: list, columns: list[list]) -> ColumnBatch:
        """The final rows of the groups *keys* with state *columns*; a
        scalar aggregate over no input still yields its one row."""
        if self.scalar and not keys:
            keys = [()]
            columns = [[function.fold((), ())] for function in self.functions]
        if len(self.group_positions) == 1:
            out = [keys]
        else:
            out = [list(column) for column in zip(*keys)]
            out = out or [[] for _ in self.group_positions]
        for function, states in zip(self.functions, columns):
            out.append(function.result(states))
        return ColumnBatch(out, len(keys))

    def _partial_states(self, batch: ColumnBatch) -> tuple[list, list[list]]:
        """Columnar partial aggregation: ``(group keys, state columns)``.

        Either shape folds a group's values in ascending row order, so
        the state columns are identical; which runs is decided by the
        batch alone (see :data:`GROUP_FOLD_ROWS`).
        """
        # Argument kernels produce whole value columns (NULL stays None);
        # COUNT(*) has no argument and no column.
        folds = [
            (function, fn(batch) if fn is not None else None)
            for function, fn in zip(self.functions, self.agg_fns)
        ]
        if self.scalar:
            # One group over every row: no key pass.
            group_rows = [range(batch.length)] if batch.length else []
            keys = [()] * len(group_rows)
        else:
            by = [batch.column(position) for position in self.group_positions]
            # Key tuples stream into the pass; only the distinct ones stay.
            gids, keys = _group_ids(by[0] if len(by) == 1 else zip(*by))
            if batch.length < GROUP_FOLD_ROWS * len(keys):
                return keys, [
                    function.fold_rows(gids, values, len(keys))
                    for function, values in folds
                ]
            group_rows = index_lists(gids, len(keys))
        return keys, [
            [function.fold(values, rows) for rows in group_rows]
            for function, values in folds
        ]

    # -- two-phase ---------------------------------------------------------

    def prepare_partition(self, ctx: ExecutionContext, p: int) -> None:
        child = self.inputs[0]
        batch = child.partition_batch(p)
        ctx.account(self, child.props.part.method, p, batch.length)
        self.prepared[p] = self._partial_states(batch)

    def exchange(self, ctx: ExecutionContext) -> None:
        """Ship compact states to their hash targets and merge: the
        sources' partials concatenate in source order and each state
        column merges with one by-row fold."""
        ctx.add_shuffle(self)
        partials = [self.prepared[index] for index in range(self.prepare_count)]
        route = self._route
        shipped_bytes = 0
        shipped_count = 0
        for source, (keys, columns) in enumerate(partials):
            targets = [0] * len(keys) if self.scalar else route.map(keys)
            shipped_count += len(keys) - targets.count(source)
            for slot in self.data_sized:
                shipped_bytes += sum(
                    state_bytes(state)
                    for state, target in zip(columns[slot], targets)
                    if target != source
                )
        if shipped_count:
            shipped_bytes += shipped_count * self.fixed_state_bytes
            ctx.add_network(self, shipped_bytes, shipped_count)
        gids, keys = _group_ids(chain.from_iterable(keys for keys, _ in partials))
        merged = self._result_batch(
            keys,
            [
                function.merge_rows(
                    gids,
                    chain.from_iterable(columns[slot] for _, columns in partials),
                    len(keys),
                )
                for slot, function in enumerate(self.functions)
            ],
        )
        if self.scalar:
            self.exchanged = [merged]
        else:
            self.exchanged = [
                merged.take(groups)
                for groups in index_lists(route.map(keys), self.count)
            ]

    # -- execution ---------------------------------------------------------

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        child = self.inputs[0]
        if self.strategy == "single":
            batch = child.partition_batch(0)
            ctx.add_work(self, 0, batch.length)
            out = self._result_batch(*self._partial_states(batch))
            ctx.add_output(self, out.length, 0)
            self.store_batch(0, out)
            return
        if self.strategy == "local":
            batch = child.partition_batch(p)
            out = self._result_batch(*self._partial_states(batch))
            ctx.add_work(self, p, batch.length + out.length)
            ctx.add_output(self, out.length, p)
            self.store_batch(p, out)
            return
        staged = self.exchanged[p]
        ctx.add_work(self, 0 if self.scalar else p, staged.length)
        ctx.add_output(self, staged.length, p)
        self.store_batch(p, staged)


class PhysicalOrderBy(PhysicalOperator):
    """Gather every partition on the coordinator, sort, apply the limit.

    Sorting happens on row tuples: a coordinator-side, once-per-query
    path where Python's stable ``sort`` over materialised rows beats
    columnar reordering.
    """

    barrier = True
    name = "order_by"

    def __init__(self, annotated: Annotated, child: PhysicalOperator) -> None:
        node: OrderBy = annotated.node
        super().__init__(annotated, [child], 1)
        self.sort_positions = [
            (child.props.position(column), ascending)
            for column, ascending in node.keys
        ]
        self.limit = node.limit

    def exchange(self, ctx: ExecutionContext) -> None:
        rows = _gather(self.inputs[0], self, ctx).to_rows()
        for position, ascending in reversed(self.sort_positions):
            rows.sort(
                key=lambda row: _sort_key(row[position]), reverse=not ascending
            )
        if self.limit is not None:
            rows = rows[: self.limit]
        ctx.add_work(self, 0, len(rows))
        self.exchanged = ColumnBatch.from_rows(rows, self.width)

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        ctx.add_output(self, self.exchanged.length, 0)
        self.store_batch(0, self.exchanged)


class PhysicalGather(PhysicalOperator):
    """Implicit root: collect the final result on the coordinator."""

    barrier = True
    name = "gather"

    def __init__(self, annotated: Annotated, child: PhysicalOperator) -> None:
        super().__init__(annotated, [child], 1)

    def exchange(self, ctx: ExecutionContext) -> None:
        self.exchanged = _gather(self.inputs[0], self, ctx)

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        ctx.add_output(self, self.exchanged.length, 0)
        self.store_batch(0, self.exchanged)


def _gather(
    child: PhysicalOperator, op: PhysicalOperator, ctx: ExecutionContext
) -> ColumnBatch:
    """Move every partition of *child* to the coordinator, metering it."""
    if child.is_single_copy:
        return child.partition_batch(0)
    row_bytes = child.props.row_bytes()
    batches = []
    for index in range(child.output_count):
        partition = child.partition_batch(index)
        batches.append(partition)
        if index != 0 and partition.length:
            ctx.add_network(
                op, row_bytes * partition.length, partition.length
            )
    return ColumnBatch.concat(batches, child.width)
