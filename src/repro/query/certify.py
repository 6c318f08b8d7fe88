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
accounting, the plan is refuted.  Joins follow one rule table,
``_JOIN_RULES``: per case of the paper's Section 2.2, the input forms it
requires, its check, and the inputs the output's placement comes from.

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
from typing import Callable, NoReturn

from repro.errors import PlanningError
from repro.partitioning.scheme import HashScheme, PrefScheme, SchemeKind
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
    slots: tuple[frozenset[str], ...] = ()
    anchors: frozenset[str] = frozenset()
    pref: PrefClaim | None = None
    dup_bits: frozenset[str] = frozenset()
    live_bits: frozenset[str] = frozenset()
    anonymous_dup: bool = False
    complete: frozenset[str] = frozenset()
    equal: frozenset[tuple[str, str]] = frozenset()

    def describe(self, count: int) -> str:
        """Compact single-line rendering for certificates."""
        parts = [self.form if self.form != "partitioned" else f"part/{count}"]
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

    def render(self) -> str:
        location = " > ".join(self.path)
        return f"REFUTED [{self.check}] at {location}: {self.reason}"


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
    """Carries a :class:`Refutation` out of the derivation."""


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


# -- join rules --------------------------------------------------------------
#
# A join check sees the inputs' facts under their side names ("left",
# "right", and for the PREF cases "referencing"/"referenced"), the
# resolved key pairs, the join kind and the case.


def _check_join(ctx: dict) -> str | None:
    """The row's required input forms, then its case-specific check."""
    case = ctx["case"]
    rule = _JOIN_RULES[case]
    for side, want in (("left", rule.left), ("right", rule.right)):
        got = ctx[side].form
        if want is not None and got != want:
            return f"{case} join needs a {want} {side} input, not a {got} one"
    return None if rule.check is None else rule.check(ctx)


def _check_inner_only(ctx: dict) -> str | None:
    kind: JoinKind = ctx["kind"]
    if kind is not JoinKind.INNER:
        return (
            f"{ctx['case']} is only sound for inner joins: the preserved "
            "side is a full copy per node, so per-partition "
            f"{kind.value} decisions would repeat its rows"
        )
    return None


def _check_case1(ctx: dict) -> str | None:
    lf, rf = ctx["left"], ctx["right"]
    if not lf.slots or not rf.slots:
        return (
            "case-1 join requires both inputs hash-placed on the join "
            "keys, but no hash placement could be derived"
        )
    if len(lf.slots) != len(rf.slots):
        return "case-1 join inputs are hashed on keys of different arity"
    for i, (left_slot, right_slot) in enumerate(zip(lf.slots, rf.slots)):
        if not any(
            ln in left_slot and rn in right_slot for ln, rn in ctx["pairs"]
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
    claim = referencing.pref
    if claim is None:
        return (
            f"{case} join requires the referencing input to carry a PREF "
            "placement guarantee, but none could be derived"
        )
    scheme = claim.scheme
    table_s = scheme.referenced_table
    # Only partitioned scans anchor a table, so a replicated referenced
    # table fails here too.
    if table_s not in referenced.anchors:
        return (
            f"referenced table {table_s!r} does not anchor the other "
            "join input (its rows may have moved)"
        )
    stored = ctx["partitioned"].table(table_s)
    if case == "case2":
        # Case 2 needs each referenced row to exist exactly once, so the
        # pair (r, s) forms exactly once cluster-wide (at s's partition,
        # where r is guaranteed a copy).  A seed table qualifies, and so
        # does a PREF table whose materialisation happens to be
        # duplicate- and patch-free (effectively seed-placed).
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
    # join pair, origin-wise.  A cross join has no pairs, so only inner,
    # outer, semi and anti joins get past this.
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
    if (
        kind is not JoinKind.INNER
        and ctx["referenced_side"] != "left"
        and table_s not in referenced.complete
    ):
        # Preserved side is the referencing input: every copy's local
        # match decision is only globally consistent when the referenced
        # content is the complete base table.
        if ctx["assume"].get("pristine") != table_s:
            return (
                f"{kind.value} join preserves the referencing side, "
                f"but the referenced side is not provably the "
                f"complete content of {table_s!r}"
            )
        ctx["assumptions"].append(
            f"{case} {kind.value} join: referenced side holds the "
            f"complete content of {table_s!r} (rewriter-stated)"
        )
    return None


def _check_shuffled(ctx: dict) -> str | None:
    lf, rf, pairs = ctx["left"], ctx["right"], ctx["pairs"]
    if not pairs:
        return "shuffled join without equi-join pairs"
    if len(lf.slots) != len(pairs) or len(rf.slots) != len(pairs):
        return (
            "shuffled join inputs are not hash-placed on exactly the "
            "join keys"
        )
    for i, keys in enumerate(pairs):
        for side, fact, key in zip(("left", "right"), (lf, rf), keys):
            if key not in fact.slots[i]:
                return (
                    f"{side} input is not placed by join key {key} at "
                    f"hash position {i}"
                )
    return None


@dataclass(frozen=True)
class _JoinRule:
    """One join case: what it requires of its inputs, and which input each
    part of the output's placement comes from (a side name, or none)."""

    left: str | None  # required form of the left input (None: any)
    right: str | None
    check: Callable[[dict], str | None] | None = None
    strategy: str = "local"
    form: str = "partitioned"  # of the output
    slots: str | None = None  # hash placement, grown by the key pairs
    anchors: tuple[str, ...] = ()
    pref: str | None = None
    # Inputs whose redundant copies reach the output.  A PREF-local pair
    # (r, s) forms once per stored copy of s, so referencing-side dup
    # bits stay live but no longer govern copies.
    dups: tuple[str, ...] = ("left", "right")

    @property
    def oriented(self) -> bool:
        """PREF cases name their inputs referencing and referenced."""
        return "referenced" in self.dups


_P, _R = "partitioned", "replicated"
_BOTH = ("left", "right")
_JOIN_RULES = {
    "both_replicated": _JoinRule(_R, _R, form=_R),
    "replicated_right": _JoinRule(
        _P, _R, slots="left", anchors=("left",), pref="left"
    ),
    "replicated_left": _JoinRule(
        _R, _P, _check_inner_only, slots="right", anchors=("right",),
        pref="right",
    ),
    "case1": _JoinRule(_P, _P, _check_case1, slots="left", anchors=_BOTH),
    "case2": _JoinRule(
        _P, _P, _check_pref_case, slots="referencing", anchors=_BOTH,
        pref="referencing", dups=("referenced",),
    ),
    "case3": _JoinRule(
        _P, _P, _check_pref_case, slots="referenced", anchors=_BOTH,
        pref="referenced", dups=("referenced",),
    ),
    "shuffled": _JoinRule(_P, _P, _check_shuffled, slots="left"),
    "broadcast": _JoinRule(None, None, strategy="broadcast"),
}


# -- the other placement claims ----------------------------------------------


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
    if ctx["child"].form == "partitioned":
        return (
            "single-node aggregate over a partitioned input would drop "
            "remote rows"
        )
    return None


def _check_aggregate_two_phase(ctx: dict) -> str | None:
    if ctx["child"].form == "replicated":
        return (
            "two-phase aggregate over a replicated input would "
            "accumulate every copy"
        )
    return None


_PARTNER_CHECKS = {
    **{f"join:{case}": _check_join for case in _JOIN_RULES},
    "join:partner_filter": _check_partner_filter,
    "aggregate:local": _check_aggregate_local,
    "aggregate:single": _check_aggregate_single,
    "aggregate:two_phase": _check_aggregate_two_phase,
}


# -- the bottom-up derivation ------------------------------------------------


class _Certifier:
    # Method names, not functions, so a test can patch one method.
    _DERIVE = {
        Scan: "_scan",
        Filter: "_filter",
        BloomProbe: "_bloom_probe",
        Project: "_project",
        DedupFilter: "_dedup",
        PartnerFilter: "_partner_filter",
        Repartition: "_repartition",
        Join: "_join",
        Aggregate: "_aggregate",
        OrderBy: "_order_by",
    }

    def __init__(self, partitioned: PartitionedDatabase) -> None:
        self.partitioned = partitioned
        self.count = partitioned.partition_count
        self.lines: list[list] = []
        self.assumptions: list[str] = []
        self.path: list[str] = []

    # -- plumbing ----------------------------------------------------------

    def refute(self, check: str, reason: str) -> NoReturn:
        raise _Refuted(Refutation(check, reason, tuple(self.path)))

    def gate_partner(self, claim: str, ctx: dict) -> None:
        ctx.update(partitioned=self.partitioned, assumptions=self.assumptions)
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

    def names(
        self, a: Annotated, refs, reader: str | None = None
    ) -> tuple[str, ...]:
        """Resolve column references against *a*'s output.  A *reader*
        that computes from values may not read a hidden bitmap column:
        dup/has bits are not value-uniform across copies."""
        names = []
        for ref in refs:
            try:
                name = a.props.columns[a.props.position(ref)]
            except PlanningError as exc:
                self.refute(
                    "structure", f"cannot resolve column {ref!r}: {exc}"
                )
            if reader is not None and is_hidden(name):
                self.refute(
                    "dup_bits", f"{reader} reads hidden bitmap column {name}"
                )
            names.append(name)
        return tuple(names)

    def derive(self, a: Annotated) -> Fact:
        label = a.node._label()
        strategy = a.extra.get("strategy")
        if strategy:
            case = a.extra.get("case")
            label += f" [{strategy}{'/' + case if case else ''}]"
        entry = [len(self.path), label, ""]
        self.lines.append(entry)
        self.path.append(label)
        method = self._DERIVE.get(type(a.node))
        if method is None:
            self.refute("structure", f"cannot certify node {a.node!r}")
        fact = getattr(self, method)(a)
        entry[2] = fact.describe(self.count)
        self.path.pop()
        return fact

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
        base = frozenset((node.table,))
        scheme = table.scheme
        if scheme.kind is SchemeKind.REPLICATED:
            return Fact("replicated", complete=base)
        alias = node.name
        hashed = scheme.columns if isinstance(scheme, HashScheme) else ()
        pref = None
        live: frozenset[str] = frozenset()
        dup_bits: frozenset[str] = frozenset()
        if scheme.kind is SchemeKind.PREF:
            pref = PrefClaim(scheme, node.table, table.seed_table)
            live = frozenset((has_column(alias),))
            if table.has_governing_duplicates:
                dup_bits = frozenset((dup_column(alias),))
                live |= dup_bits
            else:
                hashed = table.effective_hash or ()
        return Fact(
            "partitioned",
            slots=tuple(frozenset((f"{alias}.{c}",)) for c in hashed),
            anchors=base,
            pref=pref,
            dup_bits=dup_bits,
            live_bits=live,
            complete=base,
        )

    # -- row filters -------------------------------------------------------

    def _filter(self, a: Annotated) -> Fact:
        child = self.derive(a.inputs[0])
        self.names(a.inputs[0], a.node.condition.referenced_columns(), "filter")
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
        for inner in a.inputs[0].walk():
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
        child_a = a.inputs[0]
        child = self.derive(child_a)
        rename: dict[str, str] = {}
        for name, expr in node.outputs:
            if isinstance(expr, ColumnRef):
                rename[self.names(child_a, (expr.name,))[0]] = name
            else:
                self.names(child_a, expr.referenced_columns(), "projection")

        def renamed(names) -> frozenset[str]:
            return frozenset(rename[n] for n in names if n in rename)

        slots = tuple(renamed(slot) for slot in child.slots)
        fact = Fact(
            child.form,
            slots=slots if all(slots) else (),
            anchors=child.anchors,
            pref=child.pref,
            dup_bits=renamed(child.dup_bits),
            live_bits=renamed(child.live_bits),
            anonymous_dup=child.anonymous_dup
            or any(bit not in rename for bit in child.dup_bits),
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
        (no hidden columns distinguishing copies).  Partitioned copies
        may sit in different partitions, so their redundancy flows."""
        if fact.form == "partitioned" or any(is_hidden(c) for c in columns):
            return replace(fact, complete=frozenset())
        return replace(
            fact,
            dup_bits=frozenset(),
            live_bits=frozenset(),
            anonymous_dup=False,
            complete=frozenset(),
        )

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
        key_names = self.names(a.inputs[0], node.keys, "repartition")
        fact = Fact(
            "partitioned",
            # Rows move, values do not: a column an inner join below made
            # equal to a shuffle key locates the row just as the key does.
            slots=_extend_slots(
                tuple(frozenset((n,)) for n in key_names), child.equal
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
        """Place a join by its row of ``_JOIN_RULES``."""
        node: Join = a.node
        kind = node.kind
        la, ra = a.inputs
        lf, rf = self.derive(la), self.derive(ra)
        strategy = a.extra.get("strategy")
        case = a.extra.get("case", strategy)
        rule = _JOIN_RULES.get(case)
        if rule is None or rule.strategy != strategy:
            self.refute(
                "structure",
                f"join with an unknown strategy or case "
                f"({strategy!r}/{case!r})",
            )
        for side, fact in (("left", lf), ("right", rf)):
            if fact.form == "gathered" and strategy == "local":
                self.refute(
                    "structure",
                    f"local join over a gathered {side} input (it exists "
                    "only on the coordinator)",
                )
        pairs = tuple(
            zip(self.names(la, node.left_keys), self.names(ra, node.right_keys))
        )
        sides = {"left": lf, "right": rf}
        ctx = {"case": case, "kind": kind, "pairs": pairs}
        if rule.oriented:
            referenced_side = a.extra.get("referenced_side")
            if referenced_side not in sides:
                self.refute(
                    "structure", f"{case} join does not state referenced_side"
                )
            referencing_side = "right" if referenced_side == "left" else "left"
            inputs = {"left": la, "right": ra}
            sides["referenced"] = sides[referenced_side]
            sides["referencing"] = sides[referencing_side]
            ctx["referenced_side"] = referenced_side
            # The base columns each key pair equates, referencing first.
            ctx["pair_origins"] = {
                (origin_r, origin_s)
                for keys in node.on
                if (origin_r := _origin(inputs[referencing_side], keys))
                and (origin_s := _origin(inputs[referenced_side], keys))
            }
            ctx["assume"] = a.extra.get("assume", {})
        self.gate_partner(f"join:{case}", {**ctx, **sides})

        if kind in (JoinKind.SEMI, JoinKind.ANTI):
            # The output is the left input only; copy-uniform keep
            # decisions preserve every left-side claim, and build-side
            # redundancy is membership-harmless.
            return replace(lf, form=rule.form, complete=frozenset())
        placed = sides[rule.slots].slots if rule.slots else ()
        if kind is JoinKind.INNER:
            # Only an inner join's output rows all satisfy the key pairs.
            equal = lf.equal | rf.equal | frozenset(pairs)
            slots = _extend_slots(placed, pairs)
        else:
            # A padded LEFT OUTER row NULLs every right-side column, so
            # only left-side names keep locating it.
            equal = lf.equal
            slots = _extend_slots(placed, (), frozenset(la.props.columns))
        if rule.pref == "referencing":
            pref = self._unique_partner_claim(sides["referencing"])
        else:
            pref = sides[rule.pref].pref if rule.pref else None
        return Fact(
            rule.form,
            slots=slots,
            anchors=frozenset().union(*(sides[s].anchors for s in rule.anchors)),
            pref=pref,
            dup_bits=frozenset().union(*(sides[s].dup_bits for s in rule.dups)),
            live_bits=lf.live_bits | rf.live_bits,
            anonymous_dup=any(sides[s].anonymous_dup for s in rule.dups),
            equal=equal,
        )

    def _unique_partner_claim(self, referencing: Fact) -> PrefClaim | None:
        """A case-2 result keeps the referencing PREF claim only when the
        referenced key is unique: with several partners per row, the
        joined rows no longer have a copy in every partner partition."""
        claim = referencing.pref
        if claim is not None:
            scheme = claim.scheme
            stored = self.partitioned.table(scheme.referenced_table)
            pk = set(stored.schema.primary_key)
            if pk and pk <= set(scheme.referenced_columns):
                return claim
        return None

    # -- aggregation and ordering ------------------------------------------

    def _aggregate(self, a: Annotated) -> Fact:
        node: Aggregate = a.node
        child = self.derive(a.inputs[0])
        strategy = a.extra.get("strategy")
        # Any duplicate copy reaching an accumulator is counted; the
        # rewriter must have eliminated every governed copy below.
        self.gate_dup("aggregate input", (), child, require_free=True)
        group_names = self.names(a.inputs[0], node.group_by, "aggregate")
        if strategy not in ("single", "local", "two_phase"):
            self.refute(
                "structure",
                f"aggregate without a known strategy ({strategy!r})",
            )
        self.gate_partner(
            f"aggregate:{strategy}",
            {"child": child, "group_names": group_names},
        )
        if strategy == "single" or not group_names:
            return Fact("gathered")
        # A local aggregate's groups are placed by the input's hash
        # positions; a two-phase merge re-hashes on every grouping column.
        placed = len(child.slots) if strategy == "local" else len(group_names)
        return Fact(
            "partitioned",
            slots=tuple(frozenset((g,)) for g in group_names[:placed]),
        )

    def _order_by(self, a: Annotated) -> Fact:
        child = self.derive(a.inputs[0])
        # Sorting and LIMIT must see each logical row exactly once.
        self.gate_dup("order-by input", (), child, require_free=True)
        return Fact("gathered")


def _extend_slots(
    base: tuple[frozenset[str], ...],
    equal,
    keep: frozenset[str] | None = None,
) -> tuple[frozenset[str], ...]:
    """Grow hash-placement slots with name equalities.

    Both names of an *equal* pair carry the same value in every row, so
    either locates the row.  With *keep*, only those names stay.
    """
    extended = []
    for slot in base:
        grown = set(slot)
        size = 0
        # To a fixpoint: the pairs come in no particular order.
        while size != len(grown):
            size = len(grown)
            for ln, rn in equal:
                if ln in grown:
                    grown.add(rn)
                if rn in grown:
                    grown.add(ln)
        if keep is not None:
            grown &= keep
        if not grown:
            return ()
        extended.append(frozenset(grown))
    return tuple(extended)


def _origin(side: Annotated, keys) -> tuple[str, str] | None:
    """The base column behind the first of *keys* that *side* carries."""
    for key in keys:
        try:
            origin = side.props.origin_of(key)
        except PlanningError:
            continue
        if origin:
            return origin
    return None


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
            "query result", annotated.props.governing, fact, require_free=True
        )
    except _Refuted as refuted:
        return CertifyResult(refutation=refuted.args[0])
    return CertifyResult(
        certificate=Certificate(
            lines=[tuple(line) for line in certifier.lines],
            assumptions=certifier.assumptions,
        )
    )
