"""The bottom-up rewrite process of paper Section 2.2.

Turns a logical SPJA plan into an annotated physical plan: every operator
gets ``Part(o)``/``Dup(o)`` properties, and re-partitioning (shuffle),
broadcast, and PREF-duplicate-elimination operators are inserted exactly
where the locality analysis requires them.

The three inner-equi-join locality cases of the paper:

1. both inputs hash-partitioned on the join keys with equal counts;
2. one input follows the placement of a base table S (seed side), the
   other is PREF-partitioned referencing S, and the join predicate is the
   partitioning predicate;
3. both inputs are PREF results sharing the same seed table, and the join
   predicate is the partitioning predicate of the referencing input.

With ``optimizations=True`` the rewriter additionally applies the paper's
``hasS``-index rewrites: semi joins become local ``hasS = 1`` filters and
anti joins become local ``hasS = 0`` filters, without joining at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.errors import PlanningError
from repro.partitioning.scheme import HashScheme, PrefScheme, SchemeKind
from repro.query.expressions import ColumnRef
from repro.query.plan import (
    Aggregate,
    DedupFilter,
    Filter,
    Join,
    JoinKind,
    OrderBy,
    PartnerFilter,
    PlanNode,
    Project,
    Repartition,
    Scan,
)
from repro.query.relation import (
    Method,
    PartInfo,
    RelProps,
    dup_column,
    has_column,
    is_hidden,
)
from repro.storage.partitioned import PartitionedDatabase


@dataclass
class Annotated:
    """A physical plan node with its static result properties.

    Attributes:
        node: The physical operator (logical node or inserted exchange).
        props: Result properties (columns, Part, governing dup columns).
        inputs: Annotated children.
        pristine: Base tables whose *content* below this operator is the
            complete, unfiltered table (placement may have changed).
        extra: Strategy hints for the executor (e.g. join/aggregate mode).
    """

    node: PlanNode
    props: RelProps
    inputs: tuple["Annotated", ...] = ()
    pristine: frozenset[str] = frozenset()
    extra: dict = field(default_factory=dict)

    def explain(
        self,
        indent: int = 0,
        note: Callable[["Annotated"], str] | None = None,
    ) -> str:
        """Readable physical plan with Part/Dup annotations; *note* may
        add a remark per node (the executor reports live columns)."""
        part = self.props.part
        strategy = self.extra.get("strategy")
        suffix = f" [{part.method.value}"
        if part.hash_columns:
            suffix += f" on {','.join(part.hash_columns)}"
        suffix += f", dup={int(self.props.dup)}"
        if strategy:
            suffix += f", {strategy}"
        suffix += "]"
        if note is not None:
            suffix += f"  {note(self)}"
        lines = ["  " * indent + self.node._label() + suffix]
        for child in self.inputs:
            lines.append(child.explain(indent + 1, note))
        return "\n".join(lines)

    def count_shuffles(self) -> int:
        """Number of exchange operators (Repartition) in this subtree."""
        count = 1 if isinstance(self.node, Repartition) else 0
        if self.extra.get("strategy") == "broadcast":
            count += 1
        if self.extra.get("strategy") == "two_phase":
            count += 1
        if self.extra.get("gather"):
            count += 1
        return count + sum(child.count_shuffles() for child in self.inputs)


class Rewriter:
    """Rewrites logical plans against one partitioned database."""

    def __init__(
        self,
        partitioned: PartitionedDatabase,
        optimizations: bool = True,
        locality: bool = True,
    ) -> None:
        self.partitioned = partitioned
        self.count = partitioned.partition_count
        self.optimizations = optimizations
        #: Ablation switch: with locality=False the rewriter ignores the
        #: co-partitioning cases (1)-(3) and shuffles every join, as an
        #: engine unaware of PREF placement would.
        self.locality = locality

    # -- entry point -------------------------------------------------------------

    def rewrite(self, plan: PlanNode) -> Annotated:
        """Annotate *plan* and insert the required physical operators."""
        if isinstance(plan, Scan):
            return self._scan(plan)
        if isinstance(plan, Filter):
            return self._filter(plan)
        if isinstance(plan, Project):
            return self._project(plan)
        if isinstance(plan, Join):
            return self._join(plan)
        if isinstance(plan, Aggregate):
            return self._aggregate(plan)
        if isinstance(plan, OrderBy):
            return self._order_by(plan)
        raise PlanningError(f"cannot rewrite logical node {plan!r}")

    # -- scans ---------------------------------------------------------------------

    def _scan(self, node: Scan) -> Annotated:
        table = self.partitioned.table(node.table)
        alias = node.name
        columns = [f"{alias}.{c.name}" for c in table.schema.columns]
        origins: list[tuple[str, str] | None] = [
            (node.table, c.name) for c in table.schema.columns
        ]
        widths = [c.byte_width for c in table.schema.columns]
        governing: tuple[str, ...] = ()
        scheme = table.scheme
        if scheme.kind is SchemeKind.PREF:
            columns += [dup_column(alias), has_column(alias)]
            origins += [None, None]
            widths += [1, 1]
            # A PREF table without any materialised duplicates needs no
            # duplicate elimination at all.  Patch-list deliveries arrive
            # with dup=1, so patched tables always need governing.
            if table.has_governing_duplicates:
                governing = (dup_column(alias),)
            # REF-like chains verified to follow the seed's hash placement
            # expose usable hash columns (transitive chain joins become
            # locality case 1).
            hash_columns = ()
            if table.effective_hash is not None:
                hash_columns = tuple(
                    f"{alias}.{c}" for c in table.effective_hash
                )
            part = PartInfo(
                Method.PREF,
                self.count,
                hash_columns=hash_columns,
                anchors=frozenset((node.table,)),
                pref_scheme=scheme,
                pref_table=node.table,
                seed_table=table.seed_table,
            )
        elif scheme.kind is SchemeKind.REPLICATED:
            part = PartInfo(Method.REPLICATED, self.count)
        else:
            hash_columns = ()
            if isinstance(scheme, HashScheme):
                hash_columns = tuple(f"{alias}.{c}" for c in scheme.columns)
            part = PartInfo(
                Method.SEED,
                self.count,
                hash_columns=hash_columns,
                anchors=frozenset((node.table,)),
                seed_table=node.table,
            )
        props = RelProps(
            columns=tuple(columns),
            origins=tuple(origins),
            widths=tuple(widths),
            part=part,
            governing=governing,
        )
        return Annotated(node, props, pristine=frozenset((node.table,)))

    # -- filter -----------------------------------------------------------------

    def _filter(self, node: Filter) -> Annotated:
        child = self.rewrite(node.child)
        if self.optimizations and isinstance(child.node, Scan):
            # Partition pruning: equality predicates on the scan's
            # placement key restrict which partitions need scanning.
            from repro.query.pruning import derive_prune_info

            table = self.partitioned.table(child.node.table)
            prune = derive_prune_info(table, child.node.name, node.condition)
            if prune is not None and "prune" not in child.extra:
                child.extra["prune"] = prune
        props = replace(child.props)
        return Annotated(
            Filter(node.child, node.condition),
            props,
            (child,),
            pristine=frozenset(),
        )

    # -- projection ---------------------------------------------------------------

    def _project(self, node: Project) -> Annotated:
        child = self.rewrite(node.child)
        if child.props.dup:
            # Paper: "if Dup(oin)=1 we add a distinct operation ... using
            # the dup indexes"; a purely local filter.
            child = self._dedup(child)
        rename: dict[str, str] = {}
        origins: list[tuple[str, str] | None] = []
        widths: list[int] = []
        for name, expr in node.outputs:
            if isinstance(expr, ColumnRef):
                position = child.props.position(expr.name)
                rename[child.props.columns[position]] = name
                origins.append(child.props.origins[position])
                widths.append(child.props.widths[position])
            else:
                origins.append(None)
                widths.append(8)
        part = child.props.part.rename_hash_columns(rename)
        # Anchors survive only if the projection is a pure column selection
        # (base rows are intact); computed outputs keep placement but the
        # origin bookkeeping above already limits what downstream can prove.
        props = RelProps(
            columns=tuple(name for name, _ in node.outputs),
            origins=tuple(origins),
            widths=tuple(widths),
            part=part,
            equivalences=_rename_equivalences(
                child.props.equivalences, rename
            ),
        )
        annotated = Annotated(node, props, (child,), pristine=child.pristine)
        if node.distinct:
            annotated = self._distinct_values(annotated)
        return annotated

    def _distinct_values(self, child: Annotated) -> Annotated:
        """Global value-based DISTINCT over the child's output columns."""
        if child.props.part.method in (Method.REPLICATED, Method.GATHERED):
            return Annotated(
                child.node,
                child.props,
                child.inputs,
                extra={**child.extra, "distinct": "local"},
            )
        keys = child.props.columns
        shuffled = self._repartition(child, keys)
        return Annotated(
            shuffled.node,
            shuffled.props,
            shuffled.inputs,
            extra={**shuffled.extra, "distinct": "local"},
        )

    # -- physical helpers ------------------------------------------------------------

    def _dedup(self, child: Annotated) -> Annotated:
        """Insert a local PREF-duplicate-elimination operator."""
        part = replace(
            child.props.part,
            method=Method.NONE,
            hash_columns=(),
            anchors=frozenset(),
            pref_scheme=None,
            pref_table=None,
            seed_table=None,
        )
        props = replace(child.props, part=part, governing=())
        return Annotated(
            DedupFilter(child.node), props, (child,), pristine=child.pristine
        )

    def _repartition(self, child: Annotated, keys: Sequence[str]) -> Annotated:
        """Insert a hash re-partition (dedups PREF duplicates on the way)."""
        positions = child.props.positions(keys)
        key_names = tuple(child.props.columns[p] for p in positions)
        part = PartInfo(Method.HASHED, self.count, hash_columns=key_names)
        props = replace(child.props, part=part, governing=())
        node = Repartition(
            child.node,
            keys=key_names,
            count=self.count,
            dedup=child.props.dup,
        )
        return Annotated(node, props, (child,), pristine=child.pristine)

    # -- joins -----------------------------------------------------------------------

    def _join(self, node: Join) -> Annotated:
        left = self.rewrite(node.left)
        right = self.rewrite(node.right)
        overlap = set(left.props.columns) & set(right.props.columns)
        if overlap:
            raise PlanningError(
                f"join inputs share column names {sorted(overlap)}; "
                "alias one side"
            )
        if node.kind is JoinKind.CROSS or not node.on:
            return self._broadcast_join(node, left, right)
        if node.kind in (JoinKind.SEMI, JoinKind.ANTI):
            if not self.optimizations:
                return self._naive_semi_anti(node)
            optimised = self._try_partner_filter(node, left, right)
            if optimised is not None:
                return optimised
        case, referenced_side = self._locality_case(node, left, right)
        if case is None:
            if (
                node.kind in (JoinKind.SEMI, JoinKind.ANTI)
                and node.residual is None
            ):
                # Only the distinct join-key values of the build side are
                # needed; shuffle those instead of full rows.  A residual
                # reads the build side's other columns, so it must see
                # full rows.
                right = self._distinct_keys(
                    right, tuple(r for _l, r in node.on)
                )
            left, right = self._align_by_shuffle(node, left, right)
            case, referenced_side = "shuffled", None
        return self._local_join(node, left, right, case, referenced_side)

    def _distinct_keys(
        self, side: Annotated, keys: tuple[str, ...]
    ) -> Annotated:
        """Project *side* to its join keys, locally deduplicated.

        NULL-bearing keys may survive the projection; that is sound
        because the keyed semi/anti probe never matches a key containing
        NULL (SQL equality), so shipping them merely costs bytes.
        """
        positions = side.props.positions(keys)
        names = tuple(side.props.columns[p] for p in positions)
        outputs = tuple(
            (name, ColumnRef(name)) for name in names
        )
        part = side.props.part.rename_hash_columns({n: n for n in names})
        props = RelProps(
            columns=names,
            origins=tuple(side.props.origins[p] for p in positions),
            widths=tuple(side.props.widths[p] for p in positions),
            part=part,
            equivalences=_rename_equivalences(
                side.props.equivalences, {n: n for n in names}
            ),
        )
        node = Project(side.node, outputs)
        return Annotated(
            node,
            props,
            (side,),
            # Downstream only tests membership of these keys (semi/anti
            # probe), so per-partition dedup and surviving NULL keys are
            # harmless; state that for the static certifier.
            extra={"distinct": "local", "assume": {"membership_only": True}},
        )

    def _locality_case(
        self, node: Join, left: Annotated, right: Annotated
    ) -> tuple[str | None, str | None]:
        """Which locality case (if any) makes this join partition-local.

        Returns ``(case, referenced_side)`` where case is one of
        ``both_replicated | replicated_left | replicated_right | case1 |
        case2 | case3`` and referenced_side is ``"left"``/``"right"`` for
        cases 2/3 (the input whose Part/Dup carries over to the result).
        For outer/semi/anti kinds, additional soundness conditions on the
        preserved side and pristineness are enforced here.
        """
        lm, rm = left.props.part.method, right.props.part.method
        if lm is Method.REPLICATED and rm is Method.REPLICATED:
            return "both_replicated", None
        if rm is Method.REPLICATED:
            return "replicated_right", None
        if lm is Method.REPLICATED:
            if node.kind in (JoinKind.LEFT_OUTER, JoinKind.SEMI, JoinKind.ANTI):
                # The preserved/output side is the replicated one; its
                # content is identical per node, so executing per-partition
                # would multiply results.  Fall back to shuffling.
                return None, None
            return "replicated_left", None
        if not self.locality:
            return None, None
        if self._case1_applies(node, left, right):
            return "case1", None
        for referencing, referenced, side in (
            (right, left, "left"),
            (left, right, "right"),
        ):
            if self._pref_case_applies(node, referencing, referenced):
                case = (
                    "case2"
                    if referenced.props.part.method is Method.SEED
                    else "case3"
                )
                if not self._kind_allows_pref_local(
                    node, referencing, referenced, referenced_side=side
                ):
                    continue
                return case, side
        return None, None

    def _case1_applies(self, node: Join, left: Annotated, right: Annotated) -> bool:
        lp, rp = left.props.part, right.props.part
        if not lp.hash_columns or not rp.hash_columns:
            return False
        if lp.count != rp.count:
            return False
        if len(lp.hash_columns) != len(rp.hash_columns):
            return False
        # For every hash column i on the left, some join pair must equate a
        # value-equivalent of it with a value-equivalent of the right hash
        # column i (equi-joins executed below established the equivalences).
        for i, left_hash in enumerate(lp.hash_columns):
            right_hash = rp.hash_columns[i]
            if not any(
                left.props.same_value(left_hash, l)
                and right.props.same_value(right_hash, r)
                for l, r in node.on
            ):
                return False
        return True

    def _pref_case_applies(
        self, node: Join, referencing: Annotated, referenced: Annotated
    ) -> bool:
        """Do the join keys realise *referencing*'s partitioning predicate?"""
        part = referencing.props.part
        if part.method is not Method.PREF or part.pref_scheme is None:
            return False
        if referenced.props.part.method not in (Method.SEED, Method.PREF):
            return False
        scheme: PrefScheme = part.pref_scheme
        table_r = part.pref_table
        table_s = scheme.referenced_table
        if table_s not in referenced.props.part.anchors:
            return False
        if referenced.props.part.method is Method.PREF:
            # Case 3: both PREF chains must share the seed table.
            if referenced.props.part.seed_table != part.seed_table:
                return False
        # Every predicate conjunct must be realised by some join pair
        # (origin-wise, in either orientation of the pair).
        pair_origins = set()
        for left_col, right_col in node.on:
            # Resolve each side of the pair on whichever input holds it.
            origin_a = _safe_origin(referencing, left_col) or _safe_origin(
                referencing, right_col
            )
            origin_b = _safe_origin(referenced, left_col) or _safe_origin(
                referenced, right_col
            )
            if origin_a and origin_b:
                pair_origins.add((origin_a, origin_b))
        needed = {
            ((table_r, ref_col), (table_s, s_col))
            for ref_col, s_col in zip(
                scheme.referencing_columns(table_r), scheme.referenced_columns
            )
        }
        return needed <= pair_origins

    def _kind_allows_pref_local(
        self,
        node: Join,
        referencing: Annotated,
        referenced: Annotated,
        referenced_side: str,
    ) -> bool:
        """Soundness of a PREF-local join for non-inner kinds.

        Inner joins are always sound.  For LEFT OUTER, SEMI and ANTI, the
        per-partition decision (pad / keep / drop) must be globally
        consistent for every copy of a preserved-side row.  That holds when
        the preserved/left side is the *referenced* input, or when the
        referencing side is preserved and the referenced side's content is
        the complete base table (filters drop all copies of a logical row
        uniformly, so a pristine referenced side keeps every referencing
        copy partnered).
        """
        if node.kind is JoinKind.INNER:
            return True
        if node.kind not in (JoinKind.LEFT_OUTER, JoinKind.SEMI, JoinKind.ANTI):
            return False
        if referenced_side == "left":
            # Preserved side is the referenced input: decisions replicate
            # consistently across its copies.
            return True
        # Preserved side is the referencing input; require the referenced
        # (right) content to be complete so every partnered copy matches.
        table_s = referencing.props.part.pref_scheme.referenced_table
        return table_s in referenced.pristine

    def _align_by_shuffle(
        self, node: Join, left: Annotated, right: Annotated
    ) -> tuple[Annotated, Annotated]:
        """Re-partition inputs so the join keys co-locate (paper fallback)."""
        left_keys = [l for l, _ in node.on]
        right_keys = [r for _, r in node.on]
        if not self._hashed_on(left, left_keys):
            left = self._repartition(left, left_keys)
        elif left.props.dup:
            left = self._dedup_in_place(left)
        if not self._hashed_on(right, right_keys):
            right = self._repartition(right, right_keys)
        elif right.props.dup:
            right = self._dedup_in_place(right)
        return left, right

    def _dedup_in_place(self, child: Annotated) -> Annotated:
        """Dedup without moving rows, keeping the child's hash placement."""
        part = child.props.part
        props = replace(child.props, part=part, governing=())
        return Annotated(
            DedupFilter(child.node), props, (child,), pristine=child.pristine
        )

    def _hashed_on(self, side: Annotated, keys: Sequence[str]) -> bool:
        """Is *side* already hash-distributed exactly by *keys*?"""
        part = side.props.part
        allowed = (Method.SEED, Method.HASHED)
        if self.locality:
            # Verified effective-hash placement of PREF chains is only
            # visible to a PREF-aware engine.
            allowed += (Method.PREF,)
        if part.method not in allowed:
            return False
        if not part.hash_columns or part.count != self.count:
            return False
        if len(part.hash_columns) != len(keys):
            return False
        try:
            return all(
                side.props.same_value(hash_column, key)
                for hash_column, key in zip(part.hash_columns, keys)
            )
        except PlanningError:
            return False

    def _local_join(
        self,
        node: Join,
        left: Annotated,
        right: Annotated,
        case: str,
        referenced_side: str | None,
    ) -> Annotated:
        columns = left.props.columns + right.props.columns
        origins = left.props.origins + right.props.origins
        widths = left.props.widths + right.props.widths
        if node.kind in (JoinKind.SEMI, JoinKind.ANTI):
            columns, origins, widths = (
                left.props.columns,
                left.props.origins,
                left.props.widths,
            )
        lp, rp = left.props.part, right.props.part

        if case == "both_replicated":
            part = PartInfo(Method.REPLICATED, self.count)
            governing: tuple[str, ...] = ()
        elif case == "replicated_right":
            part = lp
            governing = left.props.governing
        elif case == "replicated_left":
            part = rp
            governing = right.props.governing
        elif case == "case1":
            anchors = lp.anchors | rp.anchors
            method = Method.SEED if anchors else Method.HASHED
            part = PartInfo(
                method,
                self.count,
                hash_columns=lp.hash_columns,
                anchors=anchors,
            )
            governing = ()
        elif case in ("case2", "case3"):
            referenced = left if referenced_side == "left" else right
            referencing = right if referenced_side == "left" else left
            anchors = lp.anchors | rp.anchors
            if case == "case2":
                # Result keeps the referencing input's PREF scheme (usable
                # for further chain joins) and is duplicate-free.
                part = replace(referencing.props.part, anchors=anchors)
                governing = ()
            else:
                part = replace(referenced.props.part, anchors=anchors)
                governing = referenced.props.governing
            if node.kind in (JoinKind.SEMI, JoinKind.ANTI):
                # Output is the left side only.
                part = replace(lp, anchors=lp.anchors)
                governing = left.props.governing
        elif case == "shuffled":
            anchors = lp.anchors | rp.anchors
            part = PartInfo(
                Method.HASHED,
                self.count,
                hash_columns=lp.hash_columns,
                anchors=anchors,
            )
            governing = ()
        else:  # pragma: no cover - exhaustive
            raise PlanningError(f"unknown join case {case!r}")

        if node.kind in (JoinKind.SEMI, JoinKind.ANTI) and case == "shuffled":
            part = replace(part, hash_columns=lp.hash_columns)

        if node.kind is JoinKind.LEFT_OUTER and part.hash_columns:
            # Padded rows carry NULLs in every right-side column yet sit in
            # whatever partition their left row occupies, so a placement
            # claim keyed on right-side columns does not hold for them
            # (a "local" GROUP BY on such a key would emit one NULL group
            # per partition).  Claims keyed on left columns stay sound.
            right_columns = set(right.props.columns)
            if any(column in right_columns for column in part.hash_columns):
                part = replace(part, hash_columns=())

        if node.kind in (JoinKind.SEMI, JoinKind.ANTI):
            equivalences = left.props.equivalences
        elif node.kind is JoinKind.LEFT_OUTER:
            # The join keys are only equal on *matched* rows: a padded row
            # keeps its left key but NULLs the right one, so the pair must
            # not enter the equivalence groups (a GROUP BY on the right key
            # would otherwise be treated as partition-local and emit one
            # NULL group per partition).  Within-side groups still hold —
            # padding sets every right column to NULL uniformly.
            equivalences = left.props.equivalences + right.props.equivalences
        else:
            pairs = [
                (
                    left.props.columns[left.props.position(l)],
                    right.props.columns[right.props.position(r)],
                )
                for l, r in node.on
            ]
            equivalences = _merge_equivalences(
                left.props.equivalences + right.props.equivalences, pairs
            )
        props = RelProps(
            columns=columns,
            origins=origins,
            widths=widths,
            part=part,
            governing=governing,
            equivalences=equivalences,
        )
        physical = Join(
            left.node, right.node, node.on, node.kind, node.residual
        )
        extra: dict = {"strategy": "local", "case": case}
        if referenced_side is not None:
            extra["referenced_side"] = referenced_side
            if node.kind is not JoinKind.INNER and referenced_side == "right":
                # _kind_allows_pref_local admitted this plan because the
                # referenced side is the complete base table (pristine);
                # state the assumption explicitly so the static certifier
                # validates it instead of rediscovering it.
                referencing_part = (
                    left if referenced_side == "right" else right
                ).props.part
                extra["assume"] = {
                    "pristine": referencing_part.pref_scheme.referenced_table
                }
        return Annotated(
            physical,
            props,
            (left, right),
            extra=extra,
        )

    def _broadcast_join(
        self, node: Join, left: Annotated, right: Annotated
    ) -> Annotated:
        """Cross/theta joins: ship the smaller (deduplicated) input around."""
        if (
            left.props.part.method is Method.REPLICATED
            and right.props.part.method is Method.REPLICATED
        ):
            return self._local_join(node, left, right, "both_replicated", None)
        if left.props.dup:
            left = self._dedup_in_place(left)
        if right.props.dup:
            right = self._dedup_in_place(right)
        columns = left.props.columns + right.props.columns
        origins = left.props.origins + right.props.origins
        widths = left.props.widths + right.props.widths
        props = RelProps(
            columns=columns,
            origins=origins,
            widths=widths,
            part=PartInfo(Method.NONE, self.count),
        )
        physical = Join(left.node, right.node, node.on, node.kind, node.residual)
        return Annotated(
            physical, props, (left, right), extra={"strategy": "broadcast"}
        )

    def _naive_semi_anti(self, node: Join) -> Annotated:
        """Unoptimised semi/anti joins, as a naive engine executes them.

        Without the hasS index (paper Figure 9, "wo optimizations"):
        a semi join de-sugars to inner join + DISTINCT over the left
        columns, and an anti join to a NOT-EXISTS nested loop, i.e. a
        remote (broadcast) join with the key equality as residual
        predicate — the quadratic plan that made the paper's unoptimised
        anti-join query exceed its one-hour budget.
        """
        from repro.query.expressions import and_, col

        if node.kind is JoinKind.SEMI:
            inner = Join(node.left, node.right, node.on, JoinKind.INNER, node.residual)
            annotated_left = self.rewrite(node.left)
            outputs = tuple(
                (name, col(name))
                for name in annotated_left.props.columns
                if not is_hidden(name)
            )
            return self.rewrite(Project(inner, outputs, distinct=True))
        residual_terms = [col(l) == col(r) for l, r in node.on]
        if node.residual is not None:
            residual_terms.append(node.residual)
        naive = Join(
            node.left,
            node.right,
            (),
            JoinKind.ANTI,
            and_(*residual_terms),
        )
        left = self.rewrite(node.left)
        right = self.rewrite(node.right)
        if left.props.dup:
            left = self._dedup_in_place(left)
        if right.props.dup:
            right = self._dedup_in_place(right)
        props = RelProps(
            columns=left.props.columns,
            origins=left.props.origins,
            widths=left.props.widths,
            part=PartInfo(Method.NONE, self.count),
        )
        physical = Join(left.node, right.node, (), JoinKind.ANTI, naive.residual)
        return Annotated(
            physical, props, (left, right), extra={"strategy": "broadcast"}
        )

    def _try_partner_filter(
        self, node: Join, left: Annotated, right: Annotated
    ) -> Annotated | None:
        """Paper's hasS rewrite: semi/anti join -> local bitmap filter.

        NULL soundness: the partitioner and bulk loader set hasS = 0 for
        referencing tuples whose PREF key contains NULL (a NULL key never
        satisfies the equality predicate), which is exactly the SQL join
        semantics the rewritten semi/anti join would have produced.
        """
        if not self.optimizations:
            return None
        # The hasS bitmap is precomputed from the PREF key equality alone;
        # a residual predicate restricts which partners count, which the
        # bitmap cannot express — fall through to a real semi/anti join.
        if node.residual is not None:
            return None
        # Right side must be the complete content of a single base table S.
        right_tables = {
            origin[0] for origin in right.props.origins if origin is not None
        }
        if len(right_tables) != 1:
            return None
        table_s = next(iter(right_tables))
        if table_s not in right.pristine:
            return None
        # Find an alias on the left whose scan is PREF-referencing S with
        # exactly the join predicate.
        for column in left.props.columns:
            if not column.startswith("__has@"):
                continue
            alias = column.split("@", 1)[1]
            scheme = self._alias_pref_scheme(left, alias)
            if scheme is None or scheme.referenced_table != table_s:
                continue
            table_r = scheme.predicate.other_table(table_s)
            needed = {
                ((table_r, r_col), (table_s, s_col))
                for r_col, s_col in zip(
                    scheme.referencing_columns(table_r),
                    scheme.referenced_columns,
                )
            }
            pair_origins = set()
            alias_ok = True
            for left_col, right_col in node.on:
                origin_l = _safe_origin(left, left_col) or _safe_origin(
                    left, right_col
                )
                origin_r = _safe_origin(right, right_col) or _safe_origin(
                    right, left_col
                )
                if origin_l is None or origin_r is None:
                    alias_ok = False
                    break
                # The left key must come from this very alias.
                key_name = (
                    left_col if _safe_origin(left, left_col) else right_col
                )
                position = left.props.position(key_name)
                if not left.props.columns[position].startswith(f"{alias}."):
                    alias_ok = False
                    break
                pair_origins.add((origin_l, origin_r))
            if not alias_ok or pair_origins != needed:
                continue
            physical = PartnerFilter(
                left.node, table=alias, expect=node.kind is JoinKind.SEMI
            )
            props = replace(left.props)
            # The bitmap equals semi/anti membership only because the
            # build side is the complete content of S (checked above);
            # state that for the static certifier.
            return Annotated(
                physical,
                props,
                (left,),
                extra={
                    "strategy": "partner_filter",
                    "assume": {"pristine": table_s},
                },
            )
        return None

    def _alias_pref_scheme(
        self, side: Annotated, alias: str
    ) -> PrefScheme | None:
        """The PREF scheme behind alias *alias* inside *side*, if any."""
        for annotated in _walk(side):
            if isinstance(annotated.node, Scan) and annotated.node.name == alias:
                table = self.partitioned.table(annotated.node.table)
                if isinstance(table.scheme, PrefScheme):
                    return table.scheme
        return None

    # -- aggregation --------------------------------------------------------------

    def _aggregate(self, node: Aggregate) -> Annotated:
        child = self.rewrite(node.child)
        out_columns = tuple(
            _group_output_name(child, g) for g in node.group_by
        ) + tuple(spec.name for spec in node.aggregates)
        origins: tuple = tuple(
            child.props.origin_of(g) for g in node.group_by
        ) + tuple(None for _ in node.aggregates)
        widths = tuple(
            child.props.widths[child.props.position(g)] for g in node.group_by
        ) + tuple(8 for _ in node.aggregates)

        method = child.props.part.method
        if method in (Method.REPLICATED, Method.GATHERED):
            part = PartInfo(Method.GATHERED, self.count)
            props = RelProps(out_columns, origins, widths, part)
            return Annotated(
                node, props, (child,), extra={"strategy": "single"}
            )

        if node.group_by and self._group_prefix_local(child, node.group_by):
            # Paper: input hash-partitioned and GrpAtts starts with the
            # partitioning attributes -> aggregate fully locally.
            part = PartInfo(
                Method.HASHED,
                self.count,
                hash_columns=tuple(
                    _group_output_name(child, g)
                    for g in node.group_by[
                        : len(child.props.part.hash_columns)
                    ]
                ),
            )
            props = RelProps(out_columns, origins, widths, part)
            return Annotated(node, props, (child,), extra={"strategy": "local"})

        if child.props.dup:
            child = self._dedup_in_place_keep_part(child)
        if node.group_by:
            part = PartInfo(
                Method.HASHED,
                self.count,
                hash_columns=tuple(
                    _group_output_name(child, g) for g in node.group_by
                ),
            )
        else:
            part = PartInfo(Method.GATHERED, self.count)
        props = RelProps(out_columns, origins, widths, part)
        return Annotated(node, props, (child,), extra={"strategy": "two_phase"})

    def _dedup_in_place_keep_part(self, child: Annotated) -> Annotated:
        """Local dedup that keeps placement info (pre-aggregation)."""
        props = replace(child.props, governing=())
        return Annotated(
            DedupFilter(child.node), props, (child,), pristine=child.pristine
        )

    def _group_prefix_local(
        self, child: Annotated, group_by: tuple[str, ...]
    ) -> bool:
        part = child.props.part
        if part.method not in (Method.SEED, Method.HASHED, Method.PREF):
            return False
        if part.method is Method.PREF and child.props.dup:
            return False
        if not part.hash_columns or part.count != self.count:
            return False
        if len(group_by) < len(part.hash_columns):
            return False
        try:
            return all(
                child.props.same_value(group_column, hash_column)
                for group_column, hash_column in zip(
                    group_by, part.hash_columns
                )
            )
        except PlanningError:
            return False

    # -- order by --------------------------------------------------------------------

    def _order_by(self, node: OrderBy) -> Annotated:
        child = self.rewrite(node.child)
        if child.props.dup:
            child = self._dedup(child)
        part = PartInfo(Method.GATHERED, self.count)
        props = replace(child.props, part=part, governing=())
        return Annotated(
            OrderBy(child.node, node.keys, node.limit),
            props,
            (child,),
            extra={"gather": True},
        )


def _merge_equivalences(
    groups: tuple[frozenset[str], ...],
    pairs: list[tuple[str, str]],
) -> tuple[frozenset[str], ...]:
    """Union-find merge of equivalence groups with new equal pairs."""
    merged: list[set[str]] = [set(group) for group in groups]
    for a, b in pairs:
        touching = [group for group in merged if a in group or b in group]
        combined = {a, b}
        for group in touching:
            combined |= group
            merged.remove(group)
        merged.append(combined)
    return tuple(frozenset(group) for group in merged if len(group) > 1)


def _rename_equivalences(
    groups: tuple[frozenset[str], ...],
    rename: dict[str, str],
) -> tuple[frozenset[str], ...]:
    """Map equivalence groups through a projection rename, dropping lost
    columns.  Distinct outputs of the same source column stay equivalent
    only if both survive under different names (not tracked; rare)."""
    renamed = []
    for group in groups:
        survivors = frozenset(
            rename[name] for name in group if name in rename
        )
        if len(survivors) > 1:
            renamed.append(survivors)
    return tuple(renamed)


def _group_output_name(child: Annotated, group_ref: str) -> str:
    """Output column name for a group-by reference (full child name)."""
    return child.props.columns[child.props.position(group_ref)]


def _safe_origin(side: Annotated, column: str) -> tuple[str, str] | None:
    """Origin of *column* on *side*, or None if it doesn't resolve there."""
    try:
        return side.props.origin_of(column)
    except PlanningError:
        return None


def _walk(annotated: Annotated):
    yield annotated
    for child in annotated.inputs:
        yield from _walk(child)
