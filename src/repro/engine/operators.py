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

from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain, compress, count, islice, repeat
from operator import and_, itemgetter, le, not_
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.engine.bloom import TRANSFER_FPR, BloomFilter
from repro.engine.context import ExecutionContext
from repro.engine.rows import (
    ColumnBatch,
    _null_free_key,
    _null_pad,
    all_false_mask,
    distinct_batch,
    pad_take,
    row_sort_key,
)
from repro.partitioning.scheme import KeyMemo
from repro.query.aggregates import aggregate_function, state_bytes
from repro.query.expressions import (
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Literal,
    referenced_positions,
    resolve_column,
)
from repro.query.expressions import and_ as conjunction
from repro.query.plan import Aggregate, Join, JoinKind, OrderBy, Repartition
from repro.query.relation import Method, RelProps
from repro.query.rewrite import Annotated
from repro.storage.partition import (
    Partition,
    build_key_table,
    index_lists,
    unique_key_table,
)
from repro.storage.partitioned import PartitionedTable

#: A compiled batch kernel (see ``Expression.bind_batch``).
BatchFn = Callable[..., list]

#: Rows per group from which an aggregate folds group by group (index
#: lists, then a loop with the state in a local: less per row, a fixed
#: cost per group) instead of row by row (no per-group cost).  Measured,
#: not configured: EXPERIMENTS.md, "Columnar aggregation state".
GROUP_FOLD_ROWS = 64

#: Candidate pairs a keyless join materialises at once.  It pairs every
#: probe row with every build row, so this bounds its memory, not its work.
KEYLESS_PAIRS = 1 << 18

#: Key-equal build rows a SEMI/ANTI join with a residual scores per probe
#: row in its first round; each later round scores twice as many, and
#: only for the probe rows no earlier round decided.
SEMI_CHUNK = 16

#: Share of a stored partition's rows up to which a filter over it reads
#: the candidates of its most selective sargable column from the
#: partition's sorted column (then gathers and tests only those rows)
#: instead of evaluating every row.  The sorted path costs about in
#: proportion to its candidates (sorting them back into stored order,
#: gathering); the full pass costs about the same at any share.  Over
#: ``tpch_pref``'s ten lineitem partitions (16 905 rows) with
#: ``l_shipdate < x`` alone, the cheapest full pass, they crossed at
#: about 0.45 and 0.75 of the rows in two runs, and at about 0.8 with
#: two more conjuncts to test; at 0.3 the sorted path took 0.37 and
#: 0.75 of the full pass's time (EXPERIMENTS "Filters read sorted
#: entries").
SORTED_SHARE = 0.3

#: Stored rows below which a filter runs the full kernel without asking
#: for a sorted column: on a partition of a few rows the sorted path's
#: fixed cost (bisection, sorting the candidates, the gather, the
#: ``examined`` record) is more than one kernel pass over every row.
#: Over ten hashed partitions of n rows, a one-row equality and a
#: 20 %-range filter took 1.1-1.3x the full pass's time on the sorted
#: path at 2-32 rows, and broke even at 64 (0.97-1.02x, traced task
#: time and untraced query time alike); Q21's 0-6-row ``nation``
#: partitions under all-hashed went 0.164 -> 0.104 ms a run
#: (EXPERIMENTS "Prepared plans").
SORTED_MIN_ROWS = 64

#: Comparison -> the same comparison with its operands swapped.
_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


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


def _keys_may_repeat(table: PartitionedTable, positions: Sequence[int]) -> bool:
    """Whether a partition of *table* may store two rows with one key
    over the columns at *positions*, by the catalog alone: not when they
    cover the primary key, since a partition never stores a tuple twice.
    A wrong guess costs time, never an answer."""
    names = table.schema.column_names
    primary = {names.index(column) for column in table.schema.primary_key}
    return bool(positions) and not (primary and primary.issubset(positions))


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

    Scans are not charged: consumers charge their inputs.  A mask directly
    over a scan charges only its output, the index access the paper's
    MySQL nodes make; a filter there runs that way too, reading its
    candidates from a stored partition's sorted column when one is
    selective enough (:class:`PhysicalFilter`).
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


class PhysicalMask(PhysicalOperator):
    """A pipeline operator that keeps the input rows a mask selects.

    A subclass says which rows (:meth:`keep`) and which input positions
    that reads (``reads``).  Directly over a base-table scan the mask is
    charged as an index access: only the kept rows count.
    """

    def __init__(
        self,
        annotated: Annotated,
        child: PhysicalOperator,
        reads: Iterable[int],
        indexed: bool,
    ) -> None:
        super().__init__(annotated, [child], child.output_count)
        #: The input positions :meth:`keep` reads.
        self.reads = frozenset(reads)
        self.indexed = indexed

    def keep(self, batch: ColumnBatch) -> Sequence[object]:
        """Per row of *batch*, whether it stays (falsy entries drop)."""
        raise NotImplementedError

    def select(self, ctx: ExecutionContext, p: int) -> ColumnBatch:
        """Input partition *p*'s kept rows, pruned to the live columns."""
        batch = self.inputs[0].partition_batch(p)
        return batch.prune(self.live).compress(self.keep(batch))

    def count_dropped(self, ctx: ExecutionContext, rows: int) -> None:
        """Account the *rows* the mask dropped (nothing, by default)."""

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        child = self.inputs[0]
        rows = child.partition_batch(p).length
        out = self.select(ctx, p)
        ctx.account(
            self, child.props.part.method, p,
            out.length if self.indexed else rows,
        )
        self.count_dropped(ctx, rows - out.length)
        ctx.add_output(self, out.length, p)
        self.store_batch(p, out)


def _conjuncts(condition: Expression) -> list[Expression]:
    """The top-level conjuncts of *condition* (nested ANDs flattened)."""
    if isinstance(condition, BooleanOp) and condition.op == "and":
        return [c for operand in condition.operands for c in _conjuncts(operand)]
    return [condition]


def _orderable(value: object) -> bool:
    """A literal a sorted column may be bisected by: a number or string,
    not NULL and not NaN."""
    return isinstance(value, (int, float, str)) and value == value


def _sarg(conjunct: Expression, columns: Sequence[str]) -> tuple | None:
    """``(position, op, literal)`` when *conjunct* is ``column op
    literal`` (either side) with ``op`` in ``= < <= > >=``, or
    ``(position, "in", literals)`` for ``column IN (literals)``; else None."""
    if isinstance(conjunct, Comparison) and conjunct.op in _FLIPPED:
        column, literal, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(column, Literal):
            column, literal, op = literal, column, _FLIPPED[op]
        if (
            isinstance(column, ColumnRef)
            and isinstance(literal, Literal)
            and _orderable(literal.value)
        ):
            return resolve_column(column.name, columns), op, literal.value
    elif (
        isinstance(conjunct, InList)
        and not conjunct.negated
        and isinstance(conjunct.operand, ColumnRef)
        and all(map(_orderable, conjunct.values))
    ):
        position = resolve_column(conjunct.operand.name, columns)
        return position, "in", frozenset(conjunct.values)
    return None


def _spans(
    column: list, rows: Sequence[int], bounds: Sequence[tuple]
) -> list[tuple[int, int]]:
    """The ``(start, stop)`` runs of *rows* (ordered by their value in
    *column*) on which every ``(conjunct, op, literal)`` bound holds;
    raises TypeError where a literal does not compare with the values."""
    value = column.__getitem__
    start, stop = 0, len(rows)
    members = None
    for _conjunct, op, literal in bounds:
        if op == "in":
            members = literal if members is None else members & literal
            continue
        if op in ("=", ">="):
            start = max(start, bisect_left(rows, literal, key=value))
        elif op == ">":
            start = max(start, bisect_right(rows, literal, key=value))
        if op in ("=", "<="):
            stop = min(stop, bisect_right(rows, literal, key=value))
        elif op == "<":
            stop = min(stop, bisect_left(rows, literal, key=value))
    if start >= stop:
        return []
    if members is None:
        return [(start, stop)]
    spans = []
    for literal in members:
        first = bisect_left(rows, literal, start, stop, key=value)
        last = bisect_right(rows, literal, first, stop, key=value)
        if first < last:
            spans.append((first, last))
    return spans


def _null_free(stored: Partition, positions: Iterable[int]) -> bool:
    """Whether no stored column at *positions* holds a NULL, by the
    partition's kept flags (a position past its columns is a PREF
    bitmap's, which the flags do not cover)."""
    width = len(stored.columns)
    return all(q < width and not stored.holds_null(q) for q in positions)


class PhysicalFilter(PhysicalMask):
    """Batch filter: the plan node's condition as one batch kernel.

    Over a partition that a scan serves as stored (``node_stored``), the
    filter reads what the partition keeps: its NULL flags tell the
    kernel whether it needs its ``None`` scan, and its sorted columns
    answer the sargable conjuncts (``column op literal``, ``column IN
    (literals)``) by bisection.  When the column with the fewest
    candidates has at most :data:`SORTED_SHARE` of the rows, only those
    rows (in stored order) are gathered and tested against the other
    conjuncts.  Either way the output is the same batch.
    """

    name = "filter"

    def __init__(
        self, annotated: Annotated, child: PhysicalOperator, indexed: bool
    ) -> None:
        condition = annotated.node.condition
        columns = child.props.columns
        super().__init__(
            annotated,
            child,
            referenced_positions([condition], columns),
            indexed,
        )
        self.predicate: BatchFn = condition.bind_batch(columns)
        self.conjuncts = _conjuncts(condition)
        #: Stored column position -> ``(conjunct index, op, literal)`` of
        #: the conjuncts its sorted column answers (none unless the child
        #: is a scan).
        self.sargable: dict[int, list[tuple]] = defaultdict(list)
        if isinstance(child, PhysicalScan):
            width = len(child.table.schema.column_names)
            for index, conjunct in enumerate(self.conjuncts):
                sarg = _sarg(conjunct, columns)
                if sarg is not None and sarg[0] < width:
                    self.sargable[sarg[0]].append((index, *sarg[1:]))
        #: Input position -> (kernel, reads) of the conjuncts left once
        #: its sorted column has answered; built when first needed.
        self.residuals: dict[int, tuple[BatchFn | None, frozenset[int]]] = {}
        #: The columns whose sorted entries served some partition.
        self.examined_on: set[str] = set()

    def select(self, ctx: ExecutionContext, p: int) -> ColumnBatch:
        # Unknown (None) is falsy, so compress rejects it for free.
        child = self.inputs[0]
        batch = child.partition_batch(p)
        stored = child.node_stored(p)
        candidates = (
            None
            if stored is None or batch.length < SORTED_MIN_ROWS
            else self._candidates(stored, batch.length)
        )
        if candidates is None:
            null_free = stored is not None and _null_free(stored, self.reads)
            keep = self.predicate(batch, null_free)
            return batch.prune(self.live).compress(keep)
        position, rows = candidates
        ctx.record(self).examined += len(rows)
        self.examined_on.add(child.props.columns[position])
        residual, reads = self._residual(position)
        if residual is not None:
            probe = batch.prune(reads).take(rows)
            rows = list(compress(rows, residual(probe, _null_free(stored, reads))))
        return batch.prune(self.live).take(rows)

    def _candidates(
        self, stored: Partition, length: int
    ) -> tuple[int, list[int]] | None:
        """``(position, rows)``: the stored rows, ascending, that the
        sorted column with the fewest candidates lets through, or None
        when no column is kept or none is selective enough."""
        best = None
        for position, bounds in self.sargable.items():
            rows = stored.sorted_column(position)
            if rows is None:
                continue
            try:
                spans = _spans(stored.columns[position], rows, bounds)
            except TypeError:  # the full kernel decides (or raises)
                continue
            found = sum(stop - start for start, stop in spans)
            if best is None or found < best[0]:
                best = (found, position, rows, spans)
        if best is None or best[0] > SORTED_SHARE * length:
            return None
        _found, position, rows, spans = best
        return position, sorted(
            chain.from_iterable(rows[start:stop] for start, stop in spans)
        )

    def _residual(self, position: int) -> tuple[BatchFn | None, frozenset[int]]:
        """The kernel of the conjuncts *position*'s sorted column does not
        answer (None when it answers all) and the positions it reads."""
        kept = self.residuals.get(position)
        if kept is None:
            answered = {bound[0] for bound in self.sargable[position]}
            rest = [
                conjunct
                for index, conjunct in enumerate(self.conjuncts)
                if index not in answered
            ]
            columns = self.inputs[0].props.columns
            kept = (
                conjunction(*rest).bind_batch(columns) if rest else None,
                referenced_positions(rest, columns),
            )
            self.residuals[position] = kept
        return kept


class PhysicalDedup(PhysicalMask):
    """PREF duplicate elimination via the governing dup-bitmap columns.

    Used both for explicit DedupFilter plan nodes and for the implicit
    final dedup before gathering the result.
    """

    name = "dedup"

    def keep(self, batch: ColumnBatch) -> list[bool]:
        return all_false_mask(
            [batch.column(q) for q in self.reads], batch.length
        )

    def count_dropped(self, ctx: ExecutionContext, rows: int) -> None:
        ctx.add_dup_eliminated(self, rows)


class PhysicalPartnerFilter(PhysicalMask):
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
        super().__init__(annotated, child, (position,), indexed)
        self.position = position
        self.expect = 1 if expect else 0

    def keep(self, batch: ColumnBatch) -> list[bool]:
        expect = self.expect
        return [value == expect for value in batch.column(self.position)]


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


class PhysicalHashJoin(PhysicalOperator):
    """Hash join in one of three modes:

    * ``local`` — inputs are co-partitioned; every node joins its own
      rows independently (one task per node, no exchange);
    * ``both_replicated`` — both inputs are full copies; join once;
    * ``broadcast`` — ship the smaller input to every node in the
      exchange, then probe per node concurrently.

    The join is fully columnar: build and probe keys come from one
    ``zip`` over the key columns, match pairs accumulate as index lists,
    and the output is a gather over both inputs — with ``-1`` marking
    LEFT OUTER pad rows.  A keyless (cross or theta) join keys every row
    to ``()``, so the same kernel pairs every left row with every right
    row.  Output order is the row engine's contract: left-row order,
    matches in right-insertion order, the pad emitted when no match
    survives the residual.
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
        self.residual: BatchFn | None = (
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
        #: Whether a stored right input's first join since a write may
        #: build the left input instead (:meth:`_equi_join`): an INNER
        #: equi-join with no residual over a scan whose keys may repeat.
        self.left_build = (
            node.kind is JoinKind.INNER
            and self.residual is None
            and isinstance(right, PhysicalScan)
            and _keys_may_repeat(right.table, self.right_positions)
        )
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
        rows = left_batch.length
        step = KEYLESS_PAIRS // max(right_batch.length, 1) or 1
        if not self.left_positions and rows > step:
            # Output is in probe-row order: join the probe rows a chunk at
            # a time and concatenate.
            chunks = (range(i, min(i + step, rows)) for i in range(0, rows, step))
            return ColumnBatch.concat(
                [self._join_batches(left_batch.take(c), right_batch) for c in chunks],
                self.width,
            )
        left_keys = left_batch.key_values(self.left_positions)
        if self.node.kind in (JoinKind.SEMI, JoinKind.ANTI):
            return self._semi_anti(left_batch, left_keys, right_batch, stored)
        return self._equi_join(left_batch, left_keys, right_batch, stored)

    def _table(
        self, right_batch: ColumnBatch, stored: Partition | None
    ) -> tuple[dict, bool]:
        """The build side's hash table and whether its keys are unique
        (see :func:`~repro.storage.partition.build_key_table`).

        A stored build side answers from the partition's key index, so a
        table with repeated keys is built once per write, not per query;
        any other build side is built here, once per batch.  A keyless
        build has no key positions to index: it is built here too, from
        one column keying every row to ``()``.
        """
        if stored is not None and self.right_positions:
            table, unique = stored.key_table(
                self.right_positions, not self._dup_build
            )
        else:
            cached = self._table_cache
            if cached is not None and cached[0] is right_batch:
                return cached[1], cached[2]
            columns = [right_batch.column(p) for p in self.right_positions]
            table, unique = build_key_table(
                columns or [right_batch.key_tuples(())], not self._dup_build
            )
            self._table_cache = (right_batch, table, unique)
        if not unique:
            self._dup_build = True
        return table, unique

    def _residual_mask(
        self,
        left_batch: ColumnBatch,
        left_idx: list[int],
        right_batch: ColumnBatch,
        right_idx: list[int],
    ) -> list:
        """The residual's verdict on each (probe row, build row) pair."""
        return self.residual(
            ColumnBatch(
                left_batch.prune(self.left_residual).take(left_idx).columns
                + right_batch.prune(self.right_residual).take(right_idx).columns,
                len(left_idx),
            )
        )

    def _residual_partnered(
        self,
        table: dict,
        left_batch: ColumnBatch,
        left_keys: list,
        right_batch: ColumnBatch,
    ) -> list[bool]:
        """Per probe row, whether some key-equal build row satisfies the
        residual.  Rounds score :data:`SEMI_CHUNK` build rows of every
        undecided probe row, then twice as many, and so on: a probe row
        leaves at its first partner or when its build rows run out."""
        partnered = [False] * left_batch.length
        pending = [
            (i, (matches,) if matches.__class__ is int else matches)
            for i, matches in enumerate(map(table.get, left_keys))
            if matches is not None
        ]
        start, width = 0, SEMI_CHUNK
        while pending:
            stop = start + width
            left_idx: list[int] = []
            right_idx: list[int] = []
            for i, matches in pending:
                chunk = matches[start:stop]
                left_idx.extend([i] * len(chunk))
                right_idx.extend(chunk)
            mask = self._residual_mask(left_batch, left_idx, right_batch, right_idx)
            for i in compress(left_idx, mask):
                partnered[i] = True
            pending = [
                (i, matches)
                for i, matches in pending
                if not partnered[i] and len(matches) > stop
            ]
            start, width = stop, 2 * width
        return partnered

    def _emit(
        self,
        left_out: ColumnBatch,
        right_batch: ColumnBatch,
        right_idx: list[int],
    ) -> ColumnBatch:
        """The output batch: *left_out* (pruned to ``self.left_out``) is
        aligned row-for-row with *right_idx*, where ``-1`` is the pad, and
        its columns pass through with no gather at all (the unique-build
        joins rely on this)."""
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
        if (
            self.left_build
            and stored is not None
            and left_batch.length < right_batch.length
            and not stored.asked_key_table(self.right_positions)
        ):
            # The first ask since a write would build a table whose keys
            # repeat over the whole stored side: build the smaller left
            # input instead when its keys are unique, and note the ask so
            # that the next one builds the table and keeps it.
            left_table = unique_key_table(
                [left_batch.column(p) for p in self.left_positions]
            )
            if left_table is not None:
                stored.note_key_table(self.right_positions)
                return self._probe_stored(left_batch, left_table, right_batch)
        table, unique = self._table(right_batch, stored)
        residual = self.residual
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
                return self._emit(left_out, right_batch, right_idx)
            if None not in raw:  # every probe row matched (FK -> PK)
                return self._emit(left_out, right_batch, raw)
            mask = [m is not None for m in raw]
            return self._emit(
                left_out.compress(mask),
                right_batch,
                list(compress(raw, mask)),
            )
        if residual is None:
            # NULL-bearing probe keys miss for free: the table only
            # holds NULL-free keys, and no tuple equals one of those.
            left_idx: list[int] = []
            right_idx = []
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
            left_out = left_batch.prune(self.left_out).take(left_idx)
            return self._emit(left_out, right_batch, right_idx)
        # A residual restricts which key matches survive: keep survivors
        # in left-row order, padding rows whose matches all failed.
        left_idx, right_idx, spans = _key_matches(table, left_keys)
        mask = self._residual_mask(left_batch, left_idx, right_batch, right_idx)
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
        left_out = left_batch.prune(self.left_out).take(final_left)
        return self._emit(left_out, right_batch, final_right)

    def _probe_stored(
        self, left_batch: ColumnBatch, table: dict, right_batch: ColumnBatch
    ) -> ColumnBatch:
        """The INNER join by *table*, the unique build of the left keys:
        one C-level map probes the stored right keys, and the matched
        pairs, found in right-row order, are put back in the join's
        order — left row, then its right rows ascending.  A NULL-bearing
        right key misses for free: the table holds no NULLs."""
        keys = right_batch.key_values(self.right_positions)
        right_idx = list(compress(range(len(keys)), map(table.__contains__, keys)))
        left_idx = list(map(table.__getitem__, map(keys.__getitem__, right_idx)))
        if not all(map(le, left_idx, islice(left_idx, 1, None))):
            groups = index_lists(left_idx, left_batch.length)
            right_idx = list(
                map(right_idx.__getitem__, chain.from_iterable(groups))
            )
            left_idx = list(
                chain.from_iterable(map(repeat, count(), map(len, groups)))
            )
        left_out = left_batch.prune(self.left_out).take(left_idx)
        return self._emit(left_out, right_batch, right_idx)

    def _semi_anti(
        self,
        left_batch: ColumnBatch,
        left_keys: list,
        right_batch: ColumnBatch,
        stored: Partition | None,
    ) -> ColumnBatch:
        expect = self.node.kind is JoinKind.SEMI
        if self.residual is not None:
            # A residual restricts which key matches count as partners: a
            # left row matches only if some key-equal right row also
            # satisfies the residual on the combined row.
            partners, _unique = self._table(right_batch, stored)
            keep = self._residual_partnered(
                partners, left_batch, left_keys, right_batch
            )
            if not expect:
                keep = list(map(not_, keep))
            return left_batch.prune(self.left_out).compress(keep)
        cached = self._keyset_cache
        if cached is not None and cached[0] is right_batch:
            keys = cached[1]
        else:
            right_keys = right_batch.key_values(self.right_positions)
            if len(self.right_positions) == 1:
                keys = set(right_keys)
                keys.discard(None)
            elif any(right_batch.has_nulls(p) for p in self.right_positions):
                keys = {key for key in right_keys if _null_free_key(key)}
            else:
                keys = set(right_keys)
            self._keyset_cache = (right_batch, keys)
        # A NULL-bearing left key is never a partner — which keeps the row
        # under ANTI and drops it under SEMI.  Bare (single column) keys
        # need no NULL branch at all: None is never in *keys*, so
        # membership alone is already the SQL test.
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
            copies = shipped.length * max(self.count - 1, 1)
            ctx.add_network(self, shipped_op.props.row_bytes() * copies, copies)
        self.exchanged = _Broadcast(ship_left, shipped)
        if kept_op.is_single_copy:
            # Both inputs are now fully available on every node; computing
            # per partition would emit the result once per node.  Compute
            # once instead.
            self._broadcast_step(ctx, 0, kept_op.partition_batch(0))
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
        left, right = self.inputs
        if self.strategy == "broadcast":
            kept_op = right if self.exchanged.ship_left else left
            if not kept_op.is_single_copy:  # else exchange() stored it all
                self._broadcast_step(ctx, p, kept_op.node_batch(p))
            return
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
        self._join_step(
            ctx, p, left.node_batch(p), right.node_batch(p), right.node_stored(p)
        )

    def _broadcast_step(
        self, ctx: ExecutionContext, p: int, kept: ColumnBatch
    ) -> None:
        """Join node *p*'s *kept* rows with the shipped input."""
        ship_left, shipped = self.exchanged
        if ship_left:
            self._join_step(ctx, p, shipped, kept)
        else:
            self._join_step(ctx, p, kept, shipped)

    def _join_step(
        self,
        ctx: ExecutionContext,
        p: int,
        left_batch: ColumnBatch,
        right_batch: ColumnBatch,
        stored: Partition | None = None,
    ) -> None:
        """Join one node's inputs into output partition *p*, charging
        both inputs and the output (*stored* as for
        :meth:`_join_batches`)."""
        out = self._join_batches(left_batch, right_batch, stored)
        ctx.add_work(
            self, p, left_batch.length + right_batch.length + out.length
        )
        ctx.add_join_event(self, p, right_batch.length, left_batch.length)
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
        if self.strategy == "single":  # one output partition: p == 0
            batch = child.partition_batch(0)
            ctx.add_work(self, 0, batch.length)
            out = self._result_batch(*self._partial_states(batch))
        elif self.strategy == "local":
            batch = child.partition_batch(p)
            out = self._result_batch(*self._partial_states(batch))
            ctx.add_work(self, p, batch.length + out.length)
        else:
            out = self.exchanged[p]
            ctx.add_work(self, 0 if self.scalar else p, out.length)
        ctx.add_output(self, out.length, p)
        self.store_batch(p, out)


class PhysicalGather(PhysicalOperator):
    """Implicit root: collect the final result on the coordinator."""

    barrier = True
    name = "gather"

    def __init__(self, annotated: Annotated, child: PhysicalOperator) -> None:
        super().__init__(annotated, [child], 1)

    def gather(self, ctx: ExecutionContext) -> ColumnBatch:
        """Move every partition of the child to the coordinator, metered."""
        child = self.inputs[0]
        if child.is_single_copy:
            return child.partition_batch(0)
        row_bytes = child.props.row_bytes()
        batches = []
        for index in range(child.output_count):
            partition = child.partition_batch(index)
            batches.append(partition)
            if index != 0 and partition.length:
                ctx.add_network(
                    self, row_bytes * partition.length, partition.length
                )
        return ColumnBatch.concat(batches, child.width)

    def exchange(self, ctx: ExecutionContext) -> None:
        self.exchanged = self.gather(ctx)

    def run_partition(self, ctx: ExecutionContext, p: int) -> None:
        ctx.add_output(self, self.exchanged.length, 0)
        self.store_batch(0, self.exchanged)


class PhysicalOrderBy(PhysicalGather):
    """Gather every partition on the coordinator, sort, apply the limit.

    Sorting happens on row tuples: a coordinator-side, once-per-query
    path where Python's stable ``sort`` over materialised rows beats
    columnar reordering.  A key column of plain numbers or of strings
    sorts on its bare values (:func:`~repro.engine.rows.row_sort_key`).
    """

    name = "order_by"

    def __init__(self, annotated: Annotated, child: PhysicalOperator) -> None:
        node: OrderBy = annotated.node
        super().__init__(annotated, child)
        self.sort_positions = [
            (child.props.position(column), ascending)
            for column, ascending in node.keys
        ]
        self.limit = node.limit

    def exchange(self, ctx: ExecutionContext) -> None:
        batch = self.gather(ctx)
        rows = batch.to_rows()
        for position, ascending in reversed(self.sort_positions):
            rows.sort(
                key=row_sort_key(batch.column(position), position),
                reverse=not ascending,
            )
        if self.limit is not None:
            rows = rows[: self.limit]
        ctx.add_work(self, 0, len(rows))
        self.exchanged = ColumnBatch.from_rows(rows, self.width)
