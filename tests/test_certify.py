"""The static parallel-correctness certifier (repro.query.certify).

Four angles:

* coverage — every plan the current rewriter emits for TPC-H (three
  partitioning configurations, both ablations, Bloom-decorated) and for
  join plans synthesized from the TPC-DS query graphs must certify;
* refutations — hand-corrupted plans (stripped dup governance, unknown
  placement claims, the resurrected LEFT OUTER equivalence-merge bug,
  and one corrupted annotation for every refutation the certifier can
  reach) must be refuted with the right check name;
* teeth — monkeypatching the ``check_partner`` / ``check_dup_bits``
  gatekeepers to grant everything must make those known-bad plans
  wrongly certify, proving each check is the one with bite;
* annotations — the rewriter's previously implicit soundness assumptions
  are pinned as explicit ``extra`` shapes the certifier consumes.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import pytest

from helpers import (
    buggy_left_outer_local_join,
    pref_chain_config,
    shop_database,
    tpcds_block_plans,
)
from repro.fuzz import ir
from repro.partitioning import (
    HashScheme,
    JoinPredicate,
    PartitioningConfig,
    PrefScheme,
    ReplicatedScheme,
    partition_database,
)
from repro.query.certify import certify
from repro.query.executor import Executor
from repro.query.expressions import col
from repro.query.options import ExecOptions
from repro.query.plan import (
    Aggregate,
    AggregateSpec,
    Filter,
    Join,
    JoinKind,
    PartnerFilter,
    PlanNode,
    Project,
    Scan,
)
from repro.query.rewrite import Rewriter
from repro.workloads.tpch import ALL_QUERIES

certify_module = importlib.import_module("repro.query.certify")

NODES = 4
REPROS = Path(__file__).parent / "fixtures" / "repros"


@dataclass(frozen=True)
class Unknown(PlanNode):
    """A plan node no certifier rule covers."""

    child: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


# -- fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def shop_pref_partitioned():
    """Shop data under the PREF chain: orders carries real duplicates."""
    database = shop_database(seed=7)
    return partition_database(database, pref_chain_config(NODES))


def certify_or_fail(annotated, partitioned, context=""):
    verdict = certify(annotated, partitioned)
    assert verdict.certified, f"{context}: {verdict.render()}"
    return verdict


# -- coverage: TPC-H --------------------------------------------------------


@pytest.mark.parametrize("config_name", ["hashed", "pref", "patched"])
def test_all_tpch_plans_certify(tpch_partitioned, config_name):
    partitioned = tpch_partitioned[config_name]
    rewriter = Rewriter(partitioned)
    for name, build in sorted(ALL_QUERIES.items()):
        certify_or_fail(
            rewriter.rewrite(build()), partitioned, f"{config_name} {name}"
        )


@pytest.mark.parametrize(
    "flags",
    [
        {"locality": False},
        {"optimizations": False},
        {"optimizations": False, "locality": False},
    ],
)
def test_tpch_ablation_plans_certify(tpch_partitioned, flags):
    """The shuffle-everything / no-optimization rewrites certify too."""
    partitioned = tpch_partitioned["pref"]
    rewriter = Rewriter(partitioned, **flags)
    for name, build in sorted(ALL_QUERIES.items()):
        certify_or_fail(rewriter.rewrite(build()), partitioned, f"{flags} {name}")


def test_tpch_bloom_decorated_plans_certify(tpch_partitioned):
    """Predicate-transfer probes do not disturb placement derivation."""
    partitioned = tpch_partitioned["pref"]
    executor = Executor(partitioned, ExecOptions(predicate_transfer=True))
    for name in ("Q3", "Q5", "Q10", "Q18"):
        certify_or_fail(
            executor.annotate(ALL_QUERIES[name]()),
            partitioned,
            f"bloom {name}",
        )


def test_certificate_renders_every_node(tpch_partitioned):
    """The certificate is an explain-shaped tree: one constraint per node."""
    partitioned = tpch_partitioned["pref"]
    annotated = Rewriter(partitioned).rewrite(ALL_QUERIES["Q3"]())
    verdict = certify(annotated, partitioned)
    assert verdict.certified
    nodes = sum(1 for _ in annotated.node.walk())
    assert len(verdict.certificate.lines) == nodes
    rendered = verdict.render()
    assert "::" in rendered
    # Q3 under PREF rides the chain: a case-2 join against orders and a
    # hash co-location claim must both show up in the constraints.
    assert "pref→orders" in rendered or "case2" in rendered
    assert "hash[" in rendered


# -- coverage: TPC-DS -------------------------------------------------------


def test_all_tpcds_block_plans_certify(tpcds_partitioned):
    """Join plans from all 99 TPC-DS query graphs certify under SD + hashed."""
    plans = tpcds_block_plans()
    assert len(plans) > 100
    for config_name, partitioned in tpcds_partitioned.items():
        rewriter = Rewriter(partitioned)
        for name, plan in plans:
            certify_or_fail(
                rewriter.rewrite(plan),
                partitioned,
                f"tpcds {config_name} {name}",
            )


# -- refutations ------------------------------------------------------------


def test_stripped_dup_governance_is_refuted(shop_pref_partitioned):
    """Dropping the declared dedup from a duplicate-bearing result refutes.

    Orders is PREF-partitioned on lineitem's non-unique orderkey, so its
    scan carries governing duplicate bits; a plan that presents that
    result without declaring the dedup claims duplicates reach the
    consumer unseen.
    """
    partitioned = shop_pref_partitioned
    annotated = Rewriter(partitioned).rewrite(Scan("orders", "o"))
    assert annotated.props.governing, "orders must carry governing dup bits"
    certify_or_fail(annotated, partitioned, "intact scan")
    corrupt = replace(
        annotated, props=replace(annotated.props, governing=())
    )
    verdict = certify(corrupt, partitioned)
    assert not verdict.certified
    assert verdict.refutation.check == "dup_bits"
    assert "duplicates" in verdict.refutation.reason


def test_unknown_placement_claim_is_refuted(shop_pref_partitioned):
    """The gatekeeper fails closed on claims it has no checker for."""
    partitioned = shop_pref_partitioned
    annotated = Rewriter(partitioned).rewrite(
        Join(
            Scan("orders", "o"),
            Scan("lineitem", "l"),
            on=(("o.orderkey", "l.orderkey"),),
        )
    )
    assert annotated.extra.get("case") == "case2"
    annotated.extra["case"] = "case9"
    verdict = certify(annotated, partitioned)
    assert not verdict.certified
    assert "unknown" in verdict.refutation.reason
    assert "case9" in verdict.refutation.reason


def test_resurrected_left_outer_bug_is_refuted(monkeypatch, shop_pref_partitioned):
    """The PR3 LEFT OUTER equivalence-merge bug refutes at aggregate:local."""
    case = ir.load_case(str(REPROS / "pr3_left_outer_null_group.json"))
    database = ir.build_database(case)
    config = ir.build_config(case)
    partitioned = partition_database(database, config)
    plan = ir.build_plan(case["queries"][0])

    certify_or_fail(
        Rewriter(partitioned).rewrite(plan), partitioned, "fixed rewriter"
    )
    monkeypatch.setattr(Rewriter, "_local_join", buggy_left_outer_local_join())
    verdict = certify(Rewriter(partitioned).rewrite(plan), partitioned)
    assert not verdict.certified
    assert verdict.refutation.check == "aggregate:local"
    assert "span partitions" in verdict.refutation.reason


# -- every refutation: one corrupted annotation per check -------------------
#
# Each row rewrites a small shop plan, checks that it certifies, corrupts
# one annotation the way a rewriter bug would, and pins the refutation's
# check and a fragment of its reason.  Teeth: with the module-level
# function the refutation rests on patched to grant everything, the same
# corrupted plan certifies or fails a different check.  Structure
# refutations (a plan the certifier cannot read) rest on no such function.


def _two_seed_config(n: int) -> PartitioningConfig:
    """orders and customer seeds; lineitem and nation PREF-chained to them."""
    config = PartitioningConfig(n)
    config.add("orders", HashScheme(("orderkey",), n))
    config.add("customer", HashScheme(("custkey",), n))
    config.add(
        "lineitem",
        PrefScheme(
            "orders",
            JoinPredicate.equi("lineitem", "orderkey", "orders", "orderkey"),
        ),
    )
    config.add(
        "nation",
        PrefScheme(
            "customer",
            JoinPredicate.equi("nation", "nationkey", "customer", "nationkey"),
        ),
    )
    config.add("item", ReplicatedScheme(n))
    return config


@pytest.fixture(scope="module")
def shop_stores():
    database = shop_database(seed=7)
    return {
        "chain": partition_database(database, pref_chain_config(NODES)),
        "two_seeds": partition_database(database, _two_seed_config(NODES)),
    }


_O, _L = Scan("orders", "o"), Scan("lineitem", "l")
_C, _N = Scan("customer", "c"), Scan("nation", "n")
_COUNT = (AggregateSpec("count", None, "cnt"),)

SHOP_PLANS: dict[str, Callable[[], object]] = {
    "o⋈l": lambda: Join(_O, _L, on=(("o.orderkey", "l.orderkey"),)),
    "c⋈o": lambda: Join(_C, _O, on=(("c.custkey", "o.custkey"),)),
    "o⋈n": lambda: Join(_O, _N, on=(("o.custkey", "n.nationkey"),)),
    "n⋈o": lambda: Join(_N, _O, on=(("n.nationkey", "o.custkey"),)),
    "n⋈n": lambda: Join(
        _N, Scan("nation", "n2"), on=(("n.nationkey", "n2.nationkey"),)
    ),
    "l⋈l": lambda: Join(
        _L, Scan("lineitem", "l2"), on=(("l.linekey", "l2.linekey"),)
    ),
    "o⋈σl": lambda: Join(
        _O, Filter(_L, col("l.qty") > 3), on=(("o.orderkey", "l.orderkey"),)
    ),
    "o⋈γn": lambda: Join(
        _O,
        Aggregate(_N, ("n.nationkey",), _COUNT),
        on=(("o.custkey", "n.nationkey"),),
    ),
    "o⋉l": lambda: Join(
        _O, _L, on=(("o.orderkey", "l.orderkey"),), kind=JoinKind.SEMI
    ),
    "l×l": lambda: Join(
        _L, Scan("lineitem", "l2"), residual=col("l.qty") > col("l2.qty")
    ),
    "l×γl": lambda: Join(
        _L,
        Aggregate(Scan("lineitem", "l2"), ("l2.orderkey", "l2.itemkey"), _COUNT),
        residual=col("l.qty") > col("cnt"),
    ),
    "σo": lambda: Filter(_O, col("o.total") > 3),
    "πo": lambda: Project(
        _O, (("k", col("o.orderkey")), ("t", col("o.total") + 1))
    ),
    "γl": lambda: Aggregate(_L, (), _COUNT),
    "γl.linekey": lambda: Aggregate(_L, ("l.linekey",), _COUNT),
    "γl.itemkey": lambda: Aggregate(_L, ("l.itemkey",), _COUNT),
    "γn": lambda: Aggregate(_N, ("n.nationkey",), _COUNT),
    "γo": lambda: Aggregate(_O, ("o.orderkey",), _COUNT),
    # Under two seeds: a case-2 join whose result carries lineitem's claim
    # (seed orders), shuffled against nation (seed customer).
    "n⋈(l⋈(o⋈c))": lambda: Join(
        _N,
        Join(
            _L,
            Join(_O, _C, on=(("o.orderkey", "c.custkey"),)),
            on=(("l.orderkey", "o.orderkey"),),
        ),
        on=(("n.nationkey", "c.nationkey"),),
    ),
}


def _at(annotated, path):
    for index in path:
        annotated = annotated.inputs[index]
    return annotated


def relabel(path=(), **extra):
    """Change the strategy annotations of the node at *path*."""

    def corrupt(annotated):
        _at(annotated, path).extra.update(extra)

    return corrupt


def drop_extra(key, path=()):
    def corrupt(annotated):
        del _at(annotated, path).extra[key]

    return corrupt


def renode(path=(), **fields):
    """Change fields of the plan node at *path*."""

    def corrupt(annotated):
        target = _at(annotated, path)
        target.node = replace(target.node, **fields)

    return corrupt


def reprops(path=(), **fields):
    """Change the rewriter's static properties at *path*."""

    def corrupt(annotated):
        target = _at(annotated, path)
        target.props = replace(target.props, **fields)

    return corrupt


def splice(path):
    """Remove the operator at *path* (an exchange or dedup), keeping its input."""

    def corrupt(annotated):
        parent = _at(annotated, path[:-1])
        inputs = list(parent.inputs)
        inputs[path[-1]] = inputs[path[-1]].inputs[0]
        parent.inputs = tuple(inputs)

    return corrupt


def both(*corruptions):
    def corrupt(annotated):
        for corruption in corruptions:
            corruption(annotated)

    return corrupt


@dataclass(frozen=True)
class Refuted:
    id: str
    plan: str
    corrupt: Callable
    check: str
    reason: str
    gate: str | None
    store: str = "chain"


_LOCAL = {"strategy": "local"}

REFUTATIONS = [
    # -- redundancy (check_dup_bits) ----------------------------------------
    Refuted(
        "dedup-on-live-bit", "γo",
        reprops((0, 0), governing=("__has@o",)),
        "dup_bits", "non-redundant rows", "check_dup_bits",
    ),
    Refuted(
        "result-leaks-duplicates", "σo",
        reprops(governing=()),
        "dup_bits", "duplicates", "check_dup_bits",
    ),
    Refuted(
        "dup-bit-projected-away", "πo",
        splice((0,)),
        "dup_bits", "projected away", "check_dup_bits",
    ),
    # -- hidden bitmap columns read as values --------------------------------
    Refuted(
        "filter-reads-hidden", "σo",
        renode(condition=col("__dup@o") > 0),
        "dup_bits", "hidden bitmap column __dup@o", "is_hidden",
    ),
    Refuted(
        "projection-reads-hidden", "πo",
        renode(outputs=(("k", col("o.orderkey")), ("t", col("__has@o") + 1))),
        "dup_bits", "hidden bitmap column __has@o", "is_hidden",
    ),
    Refuted(
        "repartition-on-hidden", "o⋈γn",
        renode((0,), keys=("__has@o",)),
        "dup_bits", "hidden bitmap column __has@o", "is_hidden",
    ),
    Refuted(
        "group-on-hidden", "γo",
        renode(group_by=("__has@o",)),
        "dup_bits", "hidden bitmap column __has@o", "is_hidden",
    ),
    # -- join rows: input forms ----------------------------------------------
    Refuted(
        "both_replicated-partitioned-left", "o⋈n",
        relabel(case="both_replicated"),
        "join:both_replicated", "replicated", "check_partner",
    ),
    Refuted(
        "replicated_right-replicated-left", "n⋈n",
        relabel(case="replicated_right"),
        "join:replicated_right", "partitioned", "check_partner",
    ),
    Refuted(
        "replicated_right-partitioned-right", "l⋈l",
        relabel(case="replicated_right"),
        "join:replicated_right", "replicated", "check_partner",
    ),
    Refuted(
        "replicated_left-partitioned-left", "o⋈n",
        relabel(case="replicated_left"),
        "join:replicated_left", "replicated", "check_partner",
    ),
    Refuted(
        "replicated_left-replicated-right", "n⋈n",
        relabel(case="replicated_left"),
        "join:replicated_left", "partitioned", "check_partner",
    ),
    Refuted(
        "case1-replicated-right", "o⋈n",
        relabel(case="case1"),
        "join:case1", "partitioned", "check_partner",
    ),
    Refuted(
        "case2-replicated-referenced", "o⋈n",
        relabel(case="case2", referenced_side="right"),
        "join:case2", "partitioned", "check_partner",
    ),
    Refuted(
        "shuffled-replicated-right", "o⋈n",
        relabel(case="shuffled"),
        "join:shuffled", "partitioned", "check_partner",
    ),
    # -- join rows: the case-specific checks ---------------------------------
    Refuted(
        "replicated_left-left-outer", "n⋈o",
        renode(kind=JoinKind.LEFT_OUTER),
        "join:replicated_left", "inner joins", "check_partner",
    ),
    Refuted(
        "case1-unplaced-input", "o⋈l",
        relabel(case="case1"),
        "join:case1", "no hash placement", "check_partner",
    ),
    Refuted(
        "case1-arity", "l×γl",
        relabel(**_LOCAL, case="case1"),
        "join:case1", "different arity", "check_partner",
    ),
    Refuted(
        "case1-unequated-position", "l×l",
        relabel(**_LOCAL, case="case1"),
        "join:case1", "not equated", "check_partner",
    ),
    Refuted(
        "case2-referencing-without-pref", "l⋈l",
        relabel(case="case2", referenced_side="right"),
        "join:case2", "PREF placement guarantee", "check_partner",
    ),
    Refuted(
        "case3-referenced-side-flipped", "c⋈o",
        relabel(referenced_side="left"),
        "join:case3", "does not anchor", "check_partner",
    ),
    Refuted(
        "case2-duplicated-referenced", "c⋈o",
        relabel(case="case2"),
        "join:case2", "not single-copy", "check_partner",
    ),
    Refuted(
        "case3-referenced-without-pref", "o⋈l",
        relabel(case="case3"),
        "join:case3", "PREF placement guarantee too", "check_partner",
    ),
    Refuted(
        "case3-different-seeds", "n⋈(l⋈(o⋈c))",
        both(
            splice((0,)),
            splice((1,)),
            relabel(case="case3", referenced_side="right"),
        ),
        "join:case3", "different seeds", "check_partner", store="two_seeds",
    ),
    Refuted(
        "case2-predicate-not-realised", "o⋈l",
        renode(on=(("o.orderkey", "l.linekey"),)),
        "join:case2", "does not realise", "check_partner",
    ),
    Refuted(
        "case2-left-outer-over-filtered-referenced", "o⋈σl",
        renode(kind=JoinKind.LEFT_OUTER),
        "join:case2", "complete content", "check_partner",
    ),
    Refuted(
        "shuffled-without-pairs", "l×l",
        relabel(**_LOCAL, case="shuffled"),
        "join:shuffled", "without equi-join pairs", "check_partner",
    ),
    Refuted(
        "shuffled-unplaced-input", "o⋈l",
        relabel(case="shuffled"),
        "join:shuffled", "exactly the join keys", "check_partner",
    ),
    Refuted(
        "shuffled-left-key", "o⋈γn",
        renode(on=(("o.orderkey", "n.nationkey"),)),
        "join:shuffled", "join key o.orderkey", "check_partner",
    ),
    Refuted(
        "shuffled-right-key", "o⋈γn",
        renode(on=(("o.custkey", "cnt"),)),
        "join:shuffled", "join key cnt", "check_partner",
    ),
    # -- partner filter (the hasS rewrite of semi/anti joins) ----------------
    Refuted(
        "partner-filter-not-pref", "o⋉l",
        renode(table="x"),
        "join:partner_filter", "not a PREF-partitioned scan", "check_partner",
    ),
    Refuted(
        "partner-filter-unstated-pristine", "o⋉l",
        drop_extra("assume"),
        "join:partner_filter", "does not state", "check_partner",
    ),
    Refuted(
        "partner-filter-without-has", "o⋉l",
        reprops((0,), columns=("o.orderkey", "o.custkey", "o.total", "__dup@o")),
        "join:partner_filter", "__has@o", "check_partner",
    ),
    # -- aggregate strategies ------------------------------------------------
    Refuted(
        "local-aggregate-replicated", "γn",
        relabel(strategy="local"),
        "aggregate:local", "non-partitioned", "check_partner",
    ),
    Refuted(
        "local-aggregate-unplaced", "γo",
        relabel(strategy="local"),
        "aggregate:local", "no hash placement", "check_partner",
    ),
    Refuted(
        "local-aggregate-without-groups", "γl",
        relabel(strategy="local"),
        "aggregate:local", "span partitions", "check_partner",
    ),
    Refuted(
        "local-aggregate-off-placement", "γl.itemkey",
        relabel(strategy="local"),
        "aggregate:local", "span partitions", "check_partner",
    ),
    Refuted(
        "single-aggregate-partitioned", "γl.itemkey",
        relabel(strategy="single"),
        "aggregate:single", "remote rows", "check_partner",
    ),
    Refuted(
        "two-phase-aggregate-replicated", "γn",
        relabel(strategy="two_phase"),
        "aggregate:two_phase", "every copy", "check_partner",
    ),
    # -- structure: plans the certifier cannot read --------------------------
    Refuted(
        "unknown-column", "o⋈l",
        renode(on=(("o.nosuch", "l.orderkey"),)),
        "structure", "o.nosuch", None,
    ),
    Refuted(
        "filter-unknown-column", "σo",
        renode(condition=col("o.nosuch") > 3),
        "structure", "o.nosuch", None,
    ),
    Refuted(
        "projection-unknown-column", "πo",
        renode(outputs=(("t", col("o.nosuch") + 1),)),
        "structure", "o.nosuch", None,
    ),
    Refuted(
        "unknown-operator", "σo",
        lambda a: setattr(a, "node", Unknown(a.node.child)),
        "structure", "cannot certify node", None,
    ),
    Refuted(
        "unknown-table", "σo",
        renode((0,), table="nosuch"),
        "structure", "nosuch", None,
    ),
    Refuted(
        "repartition-count", "o⋈γn",
        renode((0,), count=NODES + 1),
        "structure", "partitions", None,
    ),
    Refuted(
        "local-join-over-gathered", "o⋈γn",
        splice((1,)),
        "structure", "gathered", None,
    ),
    Refuted(
        "unknown-join-strategy", "o⋈l",
        relabel(strategy="teleport"),
        "structure", "teleport", None,
    ),
    Refuted(
        "unknown-join-case", "o⋈l",
        relabel(case="case9"),
        "structure", "case9", None,
    ),
    Refuted(
        "case2-without-referenced-side", "o⋈l",
        drop_extra("referenced_side"),
        "structure", "referenced_side", None,
    ),
    Refuted(
        "unknown-aggregate-strategy", "γl.itemkey",
        relabel(strategy="teleport"),
        "structure", "teleport", None,
    ),
]

_GRANT = {
    "check_partner": lambda *a, **k: None,
    "check_dup_bits": lambda *a, **k: None,
    "is_hidden": lambda name: False,
}


@pytest.mark.parametrize("row", REFUTATIONS, ids=lambda row: row.id)
def test_every_refutation(monkeypatch, shop_stores, row):
    partitioned = shop_stores[row.store]
    annotated = Rewriter(partitioned).rewrite(SHOP_PLANS[row.plan]())
    certify_or_fail(annotated, partitioned, row.plan)
    row.corrupt(annotated)

    refutation = certify(annotated, partitioned).refutation
    assert refutation is not None, f"{row.id} certified"
    assert refutation.check == row.check, refutation.render()
    assert row.reason in refutation.reason, refutation.render()

    if row.gate is None:
        return
    monkeypatch.setattr(certify_module, row.gate, _GRANT[row.gate])
    verdict = certify(annotated, partitioned)
    assert verdict.certified or verdict.refutation.check != row.check, (
        f"with {row.gate} granting everything, {row.id} must not be "
        f"refuted by {row.check} any more:\n{verdict.render()}"
    )


# -- teeth: each gatekeeper is the one with bite ----------------------------


def test_without_partner_checks_the_left_outer_bug_certifies(monkeypatch):
    """Skipping check_partner wrongly certifies the resurrected PR3 plan."""
    case = ir.load_case(str(REPROS / "pr3_left_outer_null_group.json"))
    database = ir.build_database(case)
    partitioned = partition_database(database, ir.build_config(case))
    plan = ir.build_plan(case["queries"][0])
    monkeypatch.setattr(Rewriter, "_local_join", buggy_left_outer_local_join())
    buggy = Rewriter(partitioned).rewrite(plan)
    assert not certify(buggy, partitioned).certified

    monkeypatch.setattr(certify_module, "check_partner", lambda *a, **k: None)
    assert certify(buggy, partitioned).certified, (
        "with check_partner disabled the buggy plan must (wrongly) "
        "certify — the placement gatekeeper is what rejects it"
    )


def test_without_dup_bit_checks_unguarded_duplicates_certify(
    monkeypatch, shop_pref_partitioned
):
    """Skipping check_dup_bits wrongly certifies unguarded PREF duplicates.

    The corrupted plan hands out rows of a PREF table whose NULL-key and
    multi-partner copies are governed by hidden dup bits, without any
    declared dedup — only the redundancy gatekeeper rejects it.
    """
    partitioned = shop_pref_partitioned
    annotated = Rewriter(partitioned).rewrite(Scan("orders", "o"))
    corrupt = replace(
        annotated, props=replace(annotated.props, governing=())
    )
    assert not certify(corrupt, partitioned).certified

    monkeypatch.setattr(certify_module, "check_dup_bits", lambda *a, **k: None)
    assert certify(corrupt, partitioned).certified, (
        "with check_dup_bits disabled the duplicate-leaking plan must "
        "(wrongly) certify — the redundancy gatekeeper is what rejects it"
    )


# -- pinned annotation shapes (the rewriter's stated assumptions) -----------


def test_case2_join_annotates_referenced_side(tpch_partitioned):
    """Every PREF-local join states which input is the referenced one."""
    partitioned = tpch_partitioned["pref"]
    rewriter = Rewriter(partitioned)
    seen = 0
    for name, build in sorted(ALL_QUERIES.items()):
        for annotated in rewriter.rewrite(build()).walk():
            if annotated.extra.get("case") in ("case2", "case3"):
                assert annotated.extra["referenced_side"] in ("left", "right")
                seen += 1
    assert seen > 0, "no PREF-local joins found in the TPC-H plans"


def test_referencing_preserved_join_states_pristine_assumption(
    shop_pref_partitioned,
):
    """Non-inner case-2 joins preserving the referencing side carry
    extra.assume.pristine naming the referenced table."""
    partitioned = shop_pref_partitioned
    annotated = Rewriter(partitioned).rewrite(
        Join(
            Scan("orders", "o"),
            Scan("lineitem", "l"),
            on=(("o.orderkey", "l.orderkey"),),
            kind=JoinKind.LEFT_OUTER,
        )
    )
    assert annotated.extra == {
        "strategy": "local",
        "case": "case2",
        "referenced_side": "right",
        "assume": {"pristine": "lineitem"},
    }
    # The certifier independently derives that the lineitem scan is the
    # complete base table, so the stated assumption is corroborated
    # rather than listed; certification must succeed either way.
    certify_or_fail(annotated, partitioned, "left outer case2")


def test_partner_filter_states_pristine_assumption(shop_pref_partitioned):
    """The hasS bitmap rewrite states build-side completeness explicitly."""
    partitioned = shop_pref_partitioned
    annotated = Rewriter(partitioned).rewrite(
        Join(
            Scan("orders", "o"),
            Scan("lineitem", "l"),
            on=(("o.orderkey", "l.orderkey"),),
            kind=JoinKind.SEMI,
        )
    )
    assert isinstance(annotated.node, PartnerFilter)
    assert annotated.extra == {
        "strategy": "partner_filter",
        "assume": {"pristine": "lineitem"},
    }
    verdict = certify_or_fail(annotated, partitioned, "partner filter")
    assert any("hasS bitmap" in a for a in verdict.certificate.assumptions)


def test_distinct_keys_projection_states_membership_only():
    """The semi/anti build-side distinct-keys reduction is annotated as
    membership-only (local dedup may keep cross-partition key copies)."""
    case = ir.load_case(str(REPROS / "semi_distinct_shuffle.json"))
    database = ir.build_database(case)
    partitioned = partition_database(database, ir.build_config(case))
    annotated = Executor(partitioned).annotate(
        ir.build_plan(case["queries"][0])
    )

    projections = [
        node.extra
        for node in annotated.walk()
        if isinstance(node.node, Project) and node.extra.get("distinct")
    ]
    assert projections == [
        {"distinct": "local", "assume": {"membership_only": True}}
    ]
    verdict = certify_or_fail(annotated, partitioned, "distinct keys")
    assert any("membership" in a for a in verdict.certificate.assumptions)
