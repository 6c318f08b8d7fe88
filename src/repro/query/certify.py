"""Static parallel-correctness certification of rewritten plans.

Complements the dynamic fuzzer with the static criterion of
parallel-correctness for conjunctive queries (Ameloot et al.) phrased as
distribution constraints (Geck et al.): walk an :class:`Annotated` plan
bottom-up and derive, for every operator, a :class:`Fact` — a symbolic
guarantee about which tuples (and how many copies of each) every
partition holds — from the partitioning configuration alone, independent
of the rewriter's own ``Part``/``Dup`` claims.  At every join, aggregate,
dedup and repartition the derived facts must justify executing the
operator per-partition and unioning the results; where the rewriter's
*declared* dup-governing columns disagree with the derived redundancy
accounting, the plan is refuted.

The derivation trusts the structural metadata of the plan (column
layouts, origins) and the engine's operator arithmetic (e.g. the
two-phase aggregate merge); what it checks is the *placement reasoning*:
co-location claims, PREF-partner coverage, and duplicate governance.
Every placement claim is routed through the module-level
:func:`check_partner` gatekeeper and every redundancy claim through
:func:`check_dup_bits`, so tests can disable one family of checks and
prove that a historically buggy plan is only rejected *because* of it.

Constraint vocabulary of a :class:`Fact`:

* ``slots`` — per hash position, the set of column names whose values
  locate every copy of a row at ``stable_hash(values) % count``;
* ``anchors`` — base tables whose contained rows still sit in their
  stored placement;
* ``pref`` — the result behaves like the referencing table of a PREF
  scheme: each row has one copy in exactly every partition storing a
  partner (partner-less rows exist once);
* ``dup_bits`` — hidden columns governing redundant copies (all bits
  falsy identifies the canonical copy exactly once);
* ``live_bits`` — hidden columns whose value may be non-zero; a declared
  dedup on a live but non-governing bit drops real rows;
* ``anonymous_dup`` — redundant copies may exist whose governing column
  was projected away (nothing can eliminate them any more);
* ``complete`` — base tables whose full logical content is present;
* ``equal`` — pairs of column names holding equal values in every row
  (inner-join keys); a shuffle on one name therefore also places rows by
  the other.

Known incompleteness (sound but may refute correct plans): value-level
reasoning (a filter that happens to keep one partition's rows), schemes
beyond the configured ones, and PREF claims kept through joins only when
the referenced key is unique.  Assumptions the rewriter verified but the
certifier cannot re-derive (partner-filter build completeness, Bloom
probes being false-positive-only) must be stated as ``extra["assume"]``
annotations; they are validated for internal consistency and listed in
the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import PlanningError
from repro.partitioning.scheme import (
    HashScheme,
    PrefScheme,
    SchemeKind,
)
from repro.query.expressions import ColumnRef
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
from repro.query.relation import dup_column, has_column, is_hidden
from repro.query.rewrite import Annotated
from repro.storage.partitioned import PartitionedDatabase


@dataclass(frozen=True)
class PrefClaim:
    """The result is placed like the referencing table of *scheme*.

    Semantics: every row's copies occupy exactly the partitions that
    store a partner (a referenced-table row satisfying the scheme
    predicate against the row's referencing columns), one copy each;
    rows whose referencing key has no partner (including NULL keys)
    exist as exactly one copy somewhere.
    """

    scheme: PrefScheme
    table: str
    seed: str | None


@dataclass(frozen=True)
class Fact:
    """Derived placement guarantee for one operator's output."""

    form: str  # "partitioned" | "replicated" | "gathered"
    count: int
    slots: tuple[frozenset[str], ...] = ()
    anchors: frozenset[str] = frozenset()
    pref: PrefClaim | None = None
    dup_bits: frozenset[str] = frozenset()
    live_bits: frozenset[str] = frozenset()
    anonymous_dup: bool = False
    complete: frozenset[str] = frozenset()
    equal: frozenset[tuple[str, str]] = frozenset()

    def describe(self) -> str:
        """Compact single-line rendering for certificates."""
        parts = [self.form if self.form != "partitioned" else f"part/{self.count}"]
        if self.slots:
            rendered = ",".join(
                "{" + "=".join(sorted(slot)) + "}" for slot in self.slots
            )
            parts.append(f"hash[{rendered}]")
        if self.pref is not None:
            parts.append(f"pref→{self.pref.scheme.referenced_table}")
        if self.anchors:
            parts.append("@" + ",".join(sorted(self.anchors)))
        if self.dup_bits:
            parts.append("dup{" + ",".join(sorted(self.dup_bits)) + "}")
        if self.anonymous_dup:
            parts.append("dup?*")
        if self.complete:
            parts.append("full{" + ",".join(sorted(self.complete)) + "}")
        return " ".join(parts)


@dataclass
class Certificate:
    """Per-node certified constraints for a plan that passed all checks."""

    lines: list[tuple[int, str, str]]
    assumptions: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Indented tree (same shape as ``explain``) with constraints."""
        out = [
            "  " * depth + label + "  :: " + constraint
            for depth, label, constraint in self.lines
        ]
        for assumption in self.assumptions:
            out.append(f"assuming: {assumption}")
        return "\n".join(out)


@dataclass
class Refutation:
    """A failed certification: which check failed, where, and why."""

    check: str
    reason: str
    path: tuple[str, ...]
    counterexample: dict | None = None

    def render(self) -> str:
        location = " > ".join(self.path)
        text = f"REFUTED [{self.check}] at {location}: {self.reason}"
        if self.counterexample is not None:
            text += "\n(counterexample database attached)"
        return text


@dataclass
class CertifyResult:
    """Outcome of :func:`certify` — a proof or a refutation."""

    certificate: Certificate | None = None
    refutation: Refutation | None = None

    @property
    def certified(self) -> bool:
        return self.certificate is not None

    def render(self) -> str:
        if self.certificate is not None:
            return self.certificate.render()
        assert self.refutation is not None
        return self.refutation.render()


class _Refuted(Exception):
    def __init__(self, check: str, reason: str, path: tuple[str, ...]):
        super().__init__(reason)
        self.check = check
        self.reason = reason
        self.path = path


# -- gatekeepers -------------------------------------------------------------
#
# All placement-claim validation funnels through check_partner and all
# redundancy validation through check_dup_bits.  Returning None grants
# the claim; returning a string refutes the plan with that reason.  The
# reintroduction meta-tests monkeypatch these to `lambda *a, **k: None`
# and assert that known-bad plans then certify — proving each check is
# the one with bite.


def check_partner(claim: str, ctx: dict) -> str | None:
    """Validate one placement claim (join case, aggregate strategy)."""
    checker = _PARTNER_CHECKS.get(claim)
    if checker is None:
        return f"unknown placement claim {claim!r}"
    return checker(ctx)


def check_dup_bits(
    where: str,
    declared: tuple[str, ...],
    fact: Fact,
    require_free: bool = False,
) -> str | None:
    """Validate declared dup-governing columns against derived redundancy.

    A declared bit that is live but not governing would drop
    non-redundant rows (over-dedup).  With *require_free*, any governed
    or anonymous redundancy not covered by *declared* means duplicate
    copies reach an operator that must see each logical row once.
    """
    for bit in declared:
        if bit in fact.live_bits and bit not in fact.dup_bits:
            return (
                f"{where}: dedup on {bit} would drop non-redundant rows "
                "(bit is live but does not govern copies)"
            )
    if require_free:
        remaining = fact.dup_bits - frozenset(declared)
        if remaining:
            return (
                f"{where}: rows may still carry PREF duplicates governed "
                f"by {sorted(remaining)} with no dedup declared"
            )
        if fact.anonymous_dup:
            return (
                f"{where}: rows may carry redundant copies whose "
                "governing dup column was projected away"
            )
    return None


# -- individual claim checks -------------------------------------------------


def _resolved(ctx_pairs, i=None):
    return ctx_pairs if i is None else ctx_pairs[i]


def _check_both_replicated(ctx: dict) -> str | None:
    lf, rf = ctx["left"], ctx["right"]
    if lf.form != "replicated" or rf.form != "replicated":
        return "both_replicated join over a non-replicated input"
    return None


def _check_replicated_right(ctx: dict) -> str | None:
    lf, rf = ctx["left"], ctx["right"]
    if rf.form != "replicated":
        return "replicated_right join but the right input is not replicated"
    if lf.form != "partitioned":
        return (
            "replicated_right join needs a partitioned left input "
            f"(got {lf.form}; a single-copy left would be joined once "
            "per node)"
        )
    if lf.count != ctx["count"]:
        return "left input partition count does not match the cluster"
    return None


def _check_replicated_left(ctx: dict) -> str | None:
    lf, rf = ctx["left"], ctx["right"]
    if lf.form != "replicated":
        return "replicated_left join but the left input is not replicated"
    if rf.form != "partitioned":
        return "replicated_left join needs a partitioned right input"
    if rf.count != ctx["count"]:
        return "right input partition count does not match the cluster"
    if ctx["kind"] is not JoinKind.INNER:
        return (
            "replicated_left is only sound for inner joins: the "
            "preserved side is a full copy per node, so per-partition "
            f"{ctx['kind'].value} decisions would repeat its rows"
        )
    return None


def _check_case1(ctx: dict) -> str | None:
    lf, rf = ctx["left"], ctx["right"]
    if lf.form != "partitioned" or rf.form != "partitioned":
        return "case-1 join over a non-partitioned input"
    if lf.count != rf.count or lf.count != ctx["count"]:
        return "case-1 join inputs have mismatched partition counts"
    if not lf.slots or not rf.slots:
        return (
            "case-1 join requires both inputs hash-placed on the join "
            "keys, but no hash placement could be derived"
        )
    if len(lf.slots) != len(rf.slots):
        return "case-1 join inputs are hashed on keys of different arity"
    pairs = ctx["pairs"]
    for i, left_slot in enumerate(lf.slots):
        right_slot = rf.slots[i]
        if not any(
            ln in left_slot and rn in right_slot for ln, rn in pairs
        ):
            return (
                f"hash position {i} is not equated by any join pair: "
                f"left placed by {sorted(left_slot)}, right by "
                f"{sorted(right_slot)}"
            )
    return None


def _check_pref_case(ctx: dict) -> str | None:
    referencing: Fact = ctx["referencing"]
    referenced: Fact = ctx["referenced"]
    case = ctx["case"]
    if referencing.form != "partitioned" or referenced.form != "partitioned":
        return f"{case} join over a non-partitioned input"
    if referencing.count != referenced.count or referencing.count != ctx["count"]:
        return f"{case} join inputs have mismatched partition counts"
    claim = referencing.pref
    if claim is None:
        return (
            f"{case} join requires the referencing input to carry a PREF "
            "placement guarantee, but none could be derived"
        )
    scheme = claim.scheme
    table_s = scheme.referenced_table
    if table_s not in referenced.anchors:
        return (
            f"referenced table {table_s!r} does not anchor the other "
            "join input (its rows may have moved)"
        )
    partitioned: PartitionedDatabase = ctx["partitioned"]
    stored = partitioned.table(table_s)
    if case == "case2":
        # Case 2 needs each referenced row to exist exactly once, so the
        # pair (r, s) forms exactly once cluster-wide (at s's partition,
        # where r is guaranteed a copy).  A seed table qualifies, and so
        # does a PREF table whose materialisation happens to be
        # duplicate- and patch-free (effectively seed-placed).
        if stored.scheme.kind is SchemeKind.REPLICATED:
            return (
                f"case-2 join against replicated table {table_s!r}: "
                "every partition stores a partner, so pairs repeat "
                "per node"
            )
        if stored.has_governing_duplicates:
            return (
                f"case-2 join but referenced table {table_s!r} rows are "
                "not single-copy (stored duplicates or patch deliveries)"
            )
    else:
        other = referenced.pref
        if other is None:
            return (
                "case-3 join requires the referenced input to carry a "
                "PREF placement guarantee too"
            )
        if other.seed != claim.seed:
            return (
                f"case-3 join of PREF chains with different seeds "
                f"({other.seed!r} vs {claim.seed!r})"
            )
        if stored.patch_count:
            # The referencing table was placed against this table's
            # stored copies; patched-out partners break the coverage
            # argument (configs like this are rejected at validate time).
            return (
                f"referenced table {table_s!r} has patch-list overflow: "
                "its stored copies do not cover all partner partitions"
            )
    # Every conjunct of the partitioning predicate must be realised by a
    # join pair, origin-wise.
    table_r = claim.table
    needed = {
        ((table_r, ref_col), (table_s, s_col))
        for ref_col, s_col in zip(
            scheme.referencing_columns(table_r), scheme.referenced_columns
        )
    }
    if not needed <= ctx["pair_origins"]:
        missing = needed - ctx["pair_origins"]
        return (
            "the join predicate does not realise the PREF partitioning "
            f"predicate (missing {sorted(missing)})"
        )
    kind: JoinKind = ctx["kind"]
    if kind is not JoinKind.INNER:
        if kind not in (JoinKind.LEFT_OUTER, JoinKind.SEMI, JoinKind.ANTI):
            return f"{case} join does not support kind {kind.value}"
        if ctx["referenced_side"] != "left":
            # Preserved side is the referencing input: every copy's
            # local match decision is only globally consistent when the
            # referenced content is the complete base table.
            if table_s in referenced.complete:
                pass
            elif ctx["assume"].get("pristine") == table_s:
                ctx["assumptions"].append(
                    f"{case} {kind.value} join: referenced side holds the "
                    f"complete content of {table_s!r} (rewriter-stated)"
                )
            else:
                return (
                    f"{kind.value} join preserves the referencing side, "
                    f"but the referenced side is not provably the "
                    f"complete content of {table_s!r}"
                )
    return None


def _check_shuffled(ctx: dict) -> str | None:
    lf, rf = ctx["left"], ctx["right"]
    if lf.form != "partitioned" or rf.form != "partitioned":
        return "shuffled join over a non-partitioned input"
    if lf.count != rf.count or lf.count != ctx["count"]:
        return "shuffled join inputs have mismatched partition counts"
    pairs = ctx["pairs"]
    if not pairs:
        return "shuffled join without equi-join pairs"
    if len(lf.slots) != len(pairs) or len(rf.slots) != len(pairs):
        return (
            "shuffled join inputs are not hash-placed on exactly the "
            "join keys"
        )
    for i, (ln, rn) in enumerate(pairs):
        if ln not in lf.slots[i]:
            return (
                f"left input is not placed by join key {ln} at hash "
                f"position {i}"
            )
        if rn not in rf.slots[i]:
            return (
                f"right input is not placed by join key {rn} at hash "
                f"position {i}"
            )
    return None


def _check_broadcast(ctx: dict) -> str | None:
    lf, rf = ctx["left"], ctx["right"]
    for fact, side in ((lf, "left"), (rf, "right")):
        if fact.form == "partitioned" and fact.count != ctx["count"]:
            return (
                f"broadcast join {side} input partition count does not "
                "match the cluster"
            )
    return None


def _check_partner_filter(ctx: dict) -> str | None:
    scheme: PrefScheme | None = ctx["scheme"]
    alias = ctx["alias"]
    if scheme is None:
        return (
            f"partner filter on alias {alias!r} which is not a "
            "PREF-partitioned scan"
        )
    table_s = scheme.referenced_table
    if ctx["assume"].get("pristine") != table_s:
        return (
            "partner filter requires the build side to be the complete "
            f"content of {table_s!r}, but the plan does not state that "
            "assumption"
        )
    if has_column(alias) not in ctx["columns"]:
        return (
            f"partner filter needs the hidden {has_column(alias)} column, "
            "which is not present"
        )
    ctx["assumptions"].append(
        f"partner filter on {alias!r}: hasS bitmap ≡ membership in the "
        f"complete content of {table_s!r} (rewriter-stated)"
    )
    return None


def _check_aggregate_local(ctx: dict) -> str | None:
    child: Fact = ctx["child"]
    if child.form != "partitioned":
        return "local aggregate over a non-partitioned input"
    if child.count != ctx["count"]:
        return "local aggregate input partition count mismatch"
    if not child.slots:
        return (
            "local aggregate requires hash placement on a prefix of the "
            "grouping columns, but no hash placement could be derived"
        )
    group_names = ctx["group_names"]
    if len(group_names) < len(child.slots):
        return (
            "grouping columns do not cover the input's hash placement "
            f"({len(group_names)} groups, {len(child.slots)} hash "
            "positions): a group may span partitions"
        )
    for i, slot in enumerate(child.slots):
        if group_names[i] not in slot:
            return (
                f"grouping column {group_names[i]} is not the hash "
                f"placement column at position {i} (placed by "
                f"{sorted(slot)}): a group may span partitions"
            )
    return None


def _check_aggregate_single(ctx: dict) -> str | None:
    child: Fact = ctx["child"]
    if child.form not in ("replicated", "gathered"):
        return (
            "single-node aggregate over a partitioned input would drop "
            "remote rows"
        )
    return None


def _check_aggregate_two_phase(ctx: dict) -> str | None:
    child: Fact = ctx["child"]
    if child.form == "partitioned" and child.count != ctx["count"]:
        return "two-phase aggregate input partition count mismatch"
    if child.form == "replicated":
        return (
            "two-phase aggregate over a replicated input would "
            "accumulate every copy"
        )
    return None


_PARTNER_CHECKS = {
    "join:both_replicated": _check_both_replicated,
    "join:replicated_right": _check_replicated_right,
    "join:replicated_left": _check_replicated_left,
    "join:case1": _check_case1,
    "join:case2": _check_pref_case,
    "join:case3": _check_pref_case,
    "join:shuffled": _check_shuffled,
    "join:broadcast": _check_broadcast,
    "join:partner_filter": _check_partner_filter,
    "aggregate:local": _check_aggregate_local,
    "aggregate:single": _check_aggregate_single,
    "aggregate:two_phase": _check_aggregate_two_phase,
}


# -- the bottom-up derivation ------------------------------------------------


class _Certifier:
    def __init__(self, partitioned: PartitionedDatabase) -> None:
        self.partitioned = partitioned
        self.count = partitioned.partition_count
        self.lines: list[list] = []
        self.assumptions: list[str] = []
        self.path: list[str] = []

    # -- plumbing ----------------------------------------------------------

    def refute(self, check: str, reason: str) -> None:
        raise _Refuted(check, reason, tuple(self.path))

    def gate_partner(self, claim: str, ctx: dict) -> None:
        ctx.setdefault("count", self.count)
        ctx.setdefault("partitioned", self.partitioned)
        ctx.setdefault("assumptions", self.assumptions)
        reason = check_partner(claim, ctx)
        if reason is not None:
            self.refute(claim, reason)

    def gate_dup(
        self,
        where: str,
        declared: tuple[str, ...],
        fact: Fact,
        require_free: bool = False,
    ) -> None:
        reason = check_dup_bits(where, declared, fact, require_free)
        if reason is not None:
            self.refute("dup_bits", reason)

    def name_of(self, a: Annotated, ref: str) -> str:
        try:
            return a.props.columns[a.props.position(ref)]
        except PlanningError as exc:
            self.refute("structure", f"cannot resolve column {ref!r}: {exc}")
            raise AssertionError  # unreachable

    def derive(self, a: Annotated) -> Fact:
        label = a.node._label()
        strategy = a.extra.get("strategy")
        if strategy:
            case = a.extra.get("case")
            label += f" [{strategy}{'/' + case if case else ''}]"
        entry = [len(self.path), label, ""]
        self.lines.append(entry)
        self.path.append(label)
        fact = self._derive_node(a)
        entry[2] = fact.describe()
        self.path.pop()
        return fact

    def _derive_node(self, a: Annotated) -> Fact:
        node = a.node
        if isinstance(node, Scan):
            return self._scan(a)
        if isinstance(node, Filter):
            return self._filter(a)
        if isinstance(node, BloomProbe):
            return self._bloom_probe(a)
        if isinstance(node, Project):
            return self._project(a)
        if isinstance(node, DedupFilter):
            return self._dedup(a)
        if isinstance(node, PartnerFilter):
            return self._partner_filter(a)
        if isinstance(node, Repartition):
            return self._repartition(a)
        if isinstance(node, Join):
            return self._join(a)
        if isinstance(node, Aggregate):
            return self._aggregate(a)
        if isinstance(node, OrderBy):
            return self._order_by(a)
        self.refute("structure", f"cannot certify node {node!r}")
        raise AssertionError  # unreachable

    # -- leaves ------------------------------------------------------------

    def _scan(self, a: Annotated) -> Fact:
        node: Scan = a.node
        try:
            table = self.partitioned.table(node.table)
        except Exception as exc:
            self.refute("structure", f"unknown table {node.table!r}: {exc}")
        if a.extra.get("prune") is not None:
            self.assumptions.append(
                f"partition pruning on {node.name!r} only skips partitions "
                "that cannot store a qualifying row"
            )
        alias = node.name
        base = frozenset((node.table,))
        scheme = table.scheme
        if scheme.kind is SchemeKind.REPLICATED:
            return Fact("replicated", self.count, complete=base)
        if scheme.kind is SchemeKind.PREF:
            duplicated = table.has_governing_duplicates
            slots: tuple[frozenset[str], ...] = ()
            if table.effective_hash is not None and not duplicated:
                slots = tuple(
                    frozenset((f"{alias}.{c}",)) for c in table.effective_hash
                )
            live = {has_column(alias)}
            dup_bits: frozenset[str] = frozenset()
            if duplicated:
                live.add(dup_column(alias))
                dup_bits = frozenset((dup_column(alias),))
            return Fact(
                "partitioned",
                self.count,
                slots=slots,
                anchors=base,
                pref=PrefClaim(scheme, node.table, table.seed_table),
                dup_bits=dup_bits,
                live_bits=frozenset(live),
                complete=base,
            )
        slots = ()
        if isinstance(scheme, HashScheme):
            slots = tuple(
                frozenset((f"{alias}.{c}",)) for c in scheme.columns
            )
        return Fact(
            "partitioned",
            self.count,
            slots=slots,
            anchors=base,
            complete=base,
        )

    # -- row filters -------------------------------------------------------

    def _filter(self, a: Annotated) -> Fact:
        node: Filter = a.node
        child = self.derive(a.inputs[0])
        child_props = a.inputs[0].props
        for ref in node.condition.referenced_columns():
            try:
                name = child_props.columns[child_props.position(ref)]
            except PlanningError as exc:
                self.refute(
                    "structure", f"filter references unknown column: {exc}"
                )
            if is_hidden(name):
                self.refute(
                    "dup_bits",
                    f"filter reads hidden bitmap column {name}: predicates "
                    "over dup/has bits are not value-uniform across copies",
                )
        return replace(child, complete=frozenset())

    def _bloom_probe(self, a: Annotated) -> Fact:
        child = self.derive(a.inputs[0])
        self.assumptions.append(
            "Bloom probes only drop rows that cannot affect the result "
            "(false-positive-only filters, transfer respects join kinds)"
        )
        return child

    def _partner_filter(self, a: Annotated) -> Fact:
        node: PartnerFilter = a.node
        child = self.derive(a.inputs[0])
        scheme = None
        for inner in _walk(a.inputs[0]):
            if isinstance(inner.node, Scan) and inner.node.name == node.table:
                stored = self.partitioned.table(inner.node.table)
                if isinstance(stored.scheme, PrefScheme):
                    scheme = stored.scheme
        self.gate_partner(
            "join:partner_filter",
            {
                "scheme": scheme,
                "alias": node.table,
                "columns": a.inputs[0].props.columns,
                "assume": a.extra.get("assume", {}),
            },
        )
        # hasS is identical across all copies of a row, so the filter
        # decision is copy-uniform: every claim survives.
        return replace(child, complete=frozenset())

    # -- projection --------------------------------------------------------

    def _project(self, a: Annotated) -> Fact:
        node: Project = a.node
        child = self.derive(a.inputs[0])
        child_props = a.inputs[0].props
        rename: dict[str, str] = {}
        for name, expr in node.outputs:
            if isinstance(expr, ColumnRef):
                source = self.name_of(a.inputs[0], expr.name)
                rename[source] = name
            else:
                for ref in expr.referenced_columns():
                    try:
                        src = child_props.columns[child_props.position(ref)]
                    except PlanningError as exc:
                        self.refute(
                            "structure",
                            f"projection references unknown column: {exc}",
                        )
                    if is_hidden(src):
                        self.refute(
                            "dup_bits",
                            f"projection computes from hidden bitmap "
                            f"column {src}",
                        )
        anonymous = child.anonymous_dup
        for bit in child.dup_bits:
            if bit not in rename:
                anonymous = True
        dup_bits = frozenset(
            rename[bit] for bit in child.dup_bits if bit in rename
        )
        live = frozenset(
            rename[bit] for bit in child.live_bits if bit in rename
        )
        slots: tuple[frozenset[str], ...] = ()
        if child.slots:
            mapped = tuple(
                frozenset(rename[n] for n in slot if n in rename)
                for slot in child.slots
            )
            slots = mapped if all(mapped) else ()
        fact = Fact(
            child.form,
            child.count,
            slots=slots,
            anchors=child.anchors,
            pref=child.pref,
            dup_bits=dup_bits,
            live_bits=live,
            anonymous_dup=anonymous,
            complete=frozenset() if node.distinct else child.complete,
            equal=frozenset(
                (rename[ln], rename[rn])
                for ln, rn in child.equal
                if ln in rename and rn in rename
            ),
        )
        if a.extra.get("distinct") == "local":
            fact = self._apply_local_distinct(
                fact, tuple(name for name, _ in node.outputs)
            )
            if a.extra.get("assume", {}).get("membership_only"):
                # The rewriter shipped only locally-distinct join keys to
                # a semi/anti build side; per-partition dedup is enough
                # because downstream only tests key membership.
                self.assumptions.append(
                    "locally-distinct key projection feeds a "
                    "membership-only consumer (rewriter-stated)"
                )
        return fact

    def _apply_local_distinct(
        self, fact: Fact, columns: tuple[str, ...]
    ) -> Fact:
        """A per-partition DISTINCT discharges redundancy only when every
        copy of a row is provably in one partition and value-identical
        (no hidden columns distinguishing copies)."""
        if any(is_hidden(c) for c in columns):
            return replace(fact, complete=frozenset())
        if fact.form in ("replicated", "gathered"):
            return replace(
                fact,
                dup_bits=frozenset(),
                live_bits=frozenset(),
                anonymous_dup=False,
                complete=frozenset(),
            )
        # Partitioned: copies may sit in different partitions; a local
        # distinct does not merge them, so redundancy claims flow.
        return replace(fact, complete=frozenset())

    # -- dedup and exchange ------------------------------------------------

    def _dedup(self, a: Annotated) -> Fact:
        child = self.derive(a.inputs[0])
        declared = a.inputs[0].props.governing
        self.gate_dup("dedup", declared, child)
        # Rows do not move: placement claims survive.  The PREF claim is
        # dropped — eliminating copies breaks "one copy per partner
        # partition".
        return replace(
            child,
            dup_bits=child.dup_bits - frozenset(declared),
            live_bits=child.live_bits - frozenset(declared),
            pref=None,
        )

    def _repartition(self, a: Annotated) -> Fact:
        node: Repartition = a.node
        child = self.derive(a.inputs[0])
        if node.count != self.count:
            self.refute(
                "structure",
                f"repartition into {node.count} partitions on a "
                f"{self.count}-partition cluster",
            )
        declared: tuple[str, ...] = ()
        if node.dedup:
            declared = a.inputs[0].props.governing
            self.gate_dup("repartition dedup", declared, child)
        key_names = tuple(self.name_of(a.inputs[0], k) for k in node.keys)
        for name in key_names:
            if is_hidden(name):
                self.refute(
                    "dup_bits",
                    f"repartition keyed on hidden bitmap column {name}",
                )
        fact = Fact(
            "partitioned",
            node.count,
            # Rows move, values do not: a column an inner join below made
            # equal to a shuffle key locates the row just as the key does.
            slots=_extend_slots(
                tuple(frozenset((n,)) for n in key_names),
                tuple(child.equal),
                JoinKind.INNER,
                None,
            ),
            dup_bits=child.dup_bits - frozenset(declared),
            live_bits=child.live_bits - frozenset(declared),
            anonymous_dup=child.anonymous_dup,
            complete=child.complete,
            equal=child.equal,
        )
        if a.extra.get("distinct") == "local" and set(key_names) == set(
            a.props.columns
        ):
            # Hashing on *every* column co-locates all copies of a
            # value-identical row; the post-shuffle local distinct is
            # then a global distinct.
            fact = self._apply_local_distinct(fact, a.props.columns)
        return fact

    # -- joins -------------------------------------------------------------

    def _join(self, a: Annotated) -> Fact:
        node: Join = a.node
        la, ra = a.inputs
        lf = self.derive(la)
        rf = self.derive(ra)
        for side, fact in (("left", lf), ("right", rf)):
            if fact.form == "gathered" and a.extra.get("strategy") == "local":
                self.refute(
                    "structure",
                    f"local join over a gathered {side} input (it exists "
                    "only on the coordinator)",
                )
        pairs = tuple(
            (self.name_of(la, l), self.name_of(ra, r)) for l, r in node.on
        )
        fact = self._join_placement(a, lf, rf, pairs)
        # Only an inner join's output rows all satisfy the key equalities
        # (and keep the right side's); outer pads NULL the right side and
        # semi/anti outputs do not contain it.
        equal = lf.equal
        if node.kind is JoinKind.INNER:
            equal = lf.equal | rf.equal | frozenset(pairs)
        return replace(fact, equal=equal)

    def _join_placement(
        self,
        a: Annotated,
        lf: Fact,
        rf: Fact,
        pairs: tuple[tuple[str, str], ...],
    ) -> Fact:
        node: Join = a.node
        la, ra = a.inputs
        strategy = a.extra.get("strategy")
        if strategy == "broadcast":
            return self._broadcast_join(a, node, lf, rf, pairs)
        if strategy != "local":
            self.refute(
                "structure", f"join without a known strategy ({strategy!r})"
            )
        case = a.extra.get("case")
        if case in ("case2", "case3"):
            return self._pref_join(a, node, lf, rf, pairs)
        ctx = {"left": lf, "right": rf, "pairs": pairs, "kind": node.kind}
        if case in (
            "both_replicated",
            "replicated_right",
            "replicated_left",
            "case1",
            "shuffled",
        ):
            self.gate_partner(f"join:{case}", ctx)
        else:
            self.refute("structure", f"unknown join case {case!r}")
        left_names = frozenset(la.props.columns)
        kind = node.kind
        # Padded LEFT OUTER rows NULL every right-side column, so only
        # left-side names keep locating rows; inner joins keep both.
        restrict = left_names if kind is JoinKind.LEFT_OUTER else None

        if case == "both_replicated":
            fact = Fact(
                "replicated",
                self.count,
                dup_bits=lf.dup_bits | rf.dup_bits,
                live_bits=lf.live_bits | rf.live_bits,
                anonymous_dup=lf.anonymous_dup or rf.anonymous_dup,
            )
            return self._narrow_semi_anti(fact, lf, kind)

        if case == "replicated_right":
            fact = Fact(
                "partitioned",
                self.count,
                slots=_extend_slots(lf.slots, pairs, kind, restrict),
                anchors=lf.anchors,
                pref=lf.pref,
                dup_bits=lf.dup_bits | rf.dup_bits,
                live_bits=lf.live_bits | rf.live_bits,
                anonymous_dup=lf.anonymous_dup or rf.anonymous_dup,
            )
            return self._narrow_semi_anti(fact, lf, kind)

        if case == "replicated_left":
            # Inner only (the gate enforced it); mirror of the above.
            return Fact(
                "partitioned",
                self.count,
                slots=_extend_slots(rf.slots, pairs, kind, None),
                anchors=rf.anchors,
                pref=rf.pref,
                dup_bits=lf.dup_bits | rf.dup_bits,
                live_bits=lf.live_bits | rf.live_bits,
                anonymous_dup=lf.anonymous_dup or rf.anonymous_dup,
            )

        # case1 / shuffled: both sides co-partitioned by the join keys.
        anchors = (lf.anchors | rf.anchors) if case == "case1" else frozenset()
        fact = Fact(
            "partitioned",
            self.count,
            slots=_extend_slots(lf.slots, pairs, kind, restrict),
            anchors=anchors,
            dup_bits=lf.dup_bits | rf.dup_bits,
            live_bits=lf.live_bits | rf.live_bits,
            anonymous_dup=lf.anonymous_dup or rf.anonymous_dup,
        )
        return self._narrow_semi_anti(fact, lf, kind)

    def _narrow_semi_anti(self, fact: Fact, lf: Fact, kind: JoinKind) -> Fact:
        """Semi/anti output is the left input only; copy-uniform keep
        decisions preserve every left-side claim.  Build-side redundancy
        is membership-harmless and does not flow."""
        if kind not in (JoinKind.SEMI, JoinKind.ANTI):
            return fact
        return replace(
            fact,
            slots=lf.slots,
            anchors=lf.anchors,
            pref=lf.pref,
            dup_bits=lf.dup_bits,
            live_bits=lf.live_bits,
            anonymous_dup=lf.anonymous_dup,
            complete=frozenset(),
        )

    def _pref_join(
        self,
        a: Annotated,
        node: Join,
        lf: Fact,
        rf: Fact,
        pairs: tuple[tuple[str, str], ...],
    ) -> Fact:
        case = a.extra["case"]
        referenced_side = a.extra.get("referenced_side")
        la, ra = a.inputs
        if referenced_side not in ("left", "right"):
            # Older/hand-built plans: infer the orientation from which
            # side carries a PREF claim anchored by the other.
            referenced_side = self._infer_referenced_side(lf, rf)
        referenced = lf if referenced_side == "left" else rf
        referencing = rf if referenced_side == "left" else lf
        referencing_a = ra if referenced_side == "left" else la
        referenced_a = la if referenced_side == "left" else ra
        pair_origins = set()
        for l_ref, r_ref in node.on:
            origin_a = _safe_origin(referencing_a, l_ref) or _safe_origin(
                referencing_a, r_ref
            )
            origin_b = _safe_origin(referenced_a, l_ref) or _safe_origin(
                referenced_a, r_ref
            )
            if origin_a and origin_b:
                pair_origins.add((origin_a, origin_b))
        self.gate_partner(
            f"join:{case}",
            {
                "referencing": referencing,
                "referenced": referenced,
                "referenced_side": referenced_side,
                "pair_origins": pair_origins,
                "kind": node.kind,
                "case": case,
                "assume": a.extra.get("assume", {}),
            },
        )
        kind = node.kind
        left_names = frozenset(la.props.columns)
        restrict = left_names if kind is JoinKind.LEFT_OUTER else None
        anchors = lf.anchors | rf.anchors
        # The pair (r, s) forms once per stored copy of s: referenced-side
        # redundancy governs the result, referencing-side dup bits become
        # live but no longer governing (each copy pairs with *different*
        # local partners, so none is redundant).
        dup_bits = referenced.dup_bits
        live = lf.live_bits | rf.live_bits
        anonymous = referenced.anonymous_dup
        if case == "case2":
            pref = self._unique_partner_claim(referencing)
            slots = _extend_slots(referencing.slots, pairs, kind, restrict)
        else:
            pref = referenced.pref
            slots = _extend_slots(referenced.slots, pairs, kind, restrict)
        fact = Fact(
            "partitioned",
            self.count,
            slots=slots,
            anchors=anchors,
            pref=pref,
            dup_bits=dup_bits,
            live_bits=live,
            anonymous_dup=anonymous,
            complete=frozenset(),
        )
        return self._narrow_semi_anti(fact, lf, kind)

    def _infer_referenced_side(self, lf: Fact, rf: Fact) -> str:
        if rf.pref is not None and rf.pref.scheme.referenced_table in lf.anchors:
            return "left"
        return "right"

    def _unique_partner_claim(self, referencing: Fact) -> PrefClaim | None:
        """A case-2 result keeps the referencing PREF claim only when the
        referenced key is unique: with several partners per row, the
        joined rows no longer have a copy in every partner partition."""
        claim = referencing.pref
        if claim is None:
            return None
        scheme = claim.scheme
        try:
            stored = self.partitioned.table(scheme.referenced_table)
        except Exception:
            return None
        pk = set(stored.schema.primary_key)
        if pk and pk <= set(scheme.referenced_columns):
            return claim
        return None

    def _broadcast_join(
        self,
        a: Annotated,
        node: Join,
        lf: Fact,
        rf: Fact,
        pairs: tuple[tuple[str, str], ...],
    ) -> Fact:
        self.gate_partner(
            "join:broadcast", {"left": lf, "right": rf, "kind": node.kind}
        )
        kind = node.kind
        fact = Fact(
            "partitioned",
            self.count,
            dup_bits=lf.dup_bits | rf.dup_bits,
            live_bits=lf.live_bits | rf.live_bits,
            anonymous_dup=lf.anonymous_dup or rf.anonymous_dup,
        )
        return self._narrow_semi_anti(fact, lf, kind)

    # -- aggregation and ordering ------------------------------------------

    def _aggregate(self, a: Annotated) -> Fact:
        node: Aggregate = a.node
        child = self.derive(a.inputs[0])
        child_a = a.inputs[0]
        strategy = a.extra.get("strategy")
        # Any duplicate copy reaching an accumulator is counted; the
        # rewriter must have eliminated every governed copy below.
        self.gate_dup("aggregate input", (), child, require_free=True)
        group_names = tuple(self.name_of(child_a, g) for g in node.group_by)
        for name in group_names:
            if is_hidden(name):
                self.refute(
                    "dup_bits",
                    f"aggregate grouped on hidden bitmap column {name}",
                )
        if strategy == "single":
            self.gate_partner("aggregate:single", {"child": child})
            return Fact("gathered", self.count)
        if strategy == "local":
            self.gate_partner(
                "aggregate:local",
                {"child": child, "group_names": group_names},
            )
            slots = tuple(
                frozenset((group_names[i],))
                for i in range(len(child.slots))
            )
            return Fact("partitioned", self.count, slots=slots)
        if strategy == "two_phase":
            self.gate_partner("aggregate:two_phase", {"child": child})
            if not node.group_by:
                return Fact("gathered", self.count)
            return Fact(
                "partitioned",
                self.count,
                slots=tuple(frozenset((n,)) for n in group_names),
            )
        self.refute(
            "structure", f"aggregate without a known strategy ({strategy!r})"
        )
        raise AssertionError  # unreachable

    def _order_by(self, a: Annotated) -> Fact:
        child = self.derive(a.inputs[0])
        # Sorting and LIMIT must see each logical row exactly once.
        self.gate_dup("order-by input", (), child, require_free=True)
        return Fact("gathered", self.count)


def _extend_slots(
    base: tuple[frozenset[str], ...],
    pairs: tuple[tuple[str, str], ...],
    kind: JoinKind,
    restrict_to: frozenset[str] | None,
) -> tuple[frozenset[str], ...]:
    """Grow hash-placement slots with join-pair equalities.

    For inner joins each pair's sides carry equal values in every output
    row, so both names locate the row.  Outer/semi/anti joins only keep
    names from the preserved side (*restrict_to*): padded rows NULL the
    other side, and semi/anti outputs do not contain it at all.
    """
    if not base:
        return ()
    extended = []
    for slot in base:
        grown = set(slot)
        size = 0
        # To a fixpoint: the pairs come in no particular order.
        while kind is JoinKind.INNER and size != len(grown):
            size = len(grown)
            for ln, rn in pairs:
                if ln in grown:
                    grown.add(rn)
                if rn in grown:
                    grown.add(ln)
        if restrict_to is not None:
            grown &= restrict_to
        if not grown:
            return ()
        extended.append(frozenset(grown))
    return tuple(extended)


def _safe_origin(side: Annotated, column: str) -> tuple[str, str] | None:
    try:
        return side.props.origin_of(column)
    except PlanningError:
        return None


def _walk(annotated: Annotated):
    yield annotated
    for child in annotated.inputs:
        yield from _walk(child)


def certify(
    annotated: Annotated, partitioned: PartitionedDatabase
) -> CertifyResult:
    """Statically certify (or refute) one rewritten plan.

    Returns a :class:`CertifyResult` whose certificate carries the
    per-node derived constraints, or whose refutation names the failed
    check, the plan path, and the reason.
    """
    certifier = _Certifier(partitioned)
    try:
        fact = certifier.derive(annotated)
        certifier.gate_dup(
            "query result",
            annotated.props.governing,
            fact,
            require_free=True,
        )
    except _Refuted as refuted:
        return CertifyResult(
            refutation=Refutation(
                check=refuted.check,
                reason=refuted.reason,
                path=refuted.path,
            )
        )
    return CertifyResult(
        certificate=Certificate(
            lines=[tuple(line) for line in certifier.lines],
            assumptions=certifier.assumptions,
        )
    )
