"""The static parallel-correctness certifier (repro.query.certify).

Four angles:

* coverage — every plan the current rewriter emits for TPC-H (three
  partitioning configurations, both ablations, Bloom-decorated) and for
  join plans synthesized from the TPC-DS query graphs must certify;
* refutations — hand-corrupted plans (stripped dup governance, unknown
  placement claims, the resurrected LEFT OUTER equivalence-merge bug)
  must be refuted with the right check name;
* teeth — monkeypatching the ``check_partner`` / ``check_dup_bits``
  gatekeepers to grant everything must make those known-bad plans
  wrongly certify, proving each check is the one with bite;
* annotations — the rewriter's previously implicit soundness assumptions
  are pinned as explicit ``extra`` shapes the certifier consumes.
"""

from __future__ import annotations

import importlib
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import (
    buggy_left_outer_local_join,
    patch_pref_leaves,
    pref_chain_config,
    shop_database,
)
from repro.design import SchemaDrivenDesigner
from repro.design.baselines import all_hashed
from repro.fuzz import ir
from repro.partitioning import partition_database
from repro.query.certify import certify
from repro.query.executor import Executor
from repro.query.options import ExecOptions
from repro.query.plan import (
    Aggregate,
    AggregateSpec,
    Join,
    JoinKind,
    PartnerFilter,
    Project,
    Scan,
)
from repro.query.rewrite import Rewriter
from repro.workloads import tpcds
from repro.workloads.tpch import ALL_QUERIES, SMALL_TABLES

certify_module = importlib.import_module("repro.query.certify")

NODES = 4
REPROS = Path(__file__).parent / "fixtures" / "repros"


# -- fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_configs(small_tpch):
    """The three certification configs: all-hashed, PREF, patched-PREF."""
    pref = SchemaDrivenDesigner(small_tpch, NODES).design(
        replicate=SMALL_TABLES
    ).config
    return {
        "hashed": all_hashed(small_tpch, NODES),
        "pref": pref,
        "patched": patch_pref_leaves(pref, small_tpch.schema),
    }


@pytest.fixture(scope="module")
def tpch_partitioned(small_tpch, tpch_configs):
    return {
        name: partition_database(small_tpch, config)
        for name, config in tpch_configs.items()
    }


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


def _block_plan(block):
    """Left-deep spanning-tree join over one TPC-DS SPJA block."""
    placed: list[str] = []
    plan = None
    pending = [tpcds.EDGES[shorthand] for shorthand in block]
    while pending:
        progressed = False
        for edge in list(pending):
            r, s = edge.left_table, edge.right_table
            pairs = tuple(
                (f"{r}.{rc}", f"{s}.{sc}")
                for rc, sc in zip(edge.left_columns, edge.right_columns)
            )
            if plan is None:
                plan = Join(Scan(r), Scan(s), on=pairs)
                placed += [r, s]
            elif r in placed and s in placed:
                pass  # non-tree edge; the spanning tree already connects it
            elif r in placed:
                plan = Join(plan, Scan(s), on=pairs)
                placed.append(s)
            elif s in placed:
                plan = Join(plan, Scan(r), on=tuple((b, a) for a, b in pairs))
                placed.append(r)
            else:
                continue
            pending.remove(edge)
            progressed = True
        if not progressed:
            break
    if plan is None:
        return None
    return Aggregate(plan, (), (AggregateSpec("count", None, "n"),))


def test_all_tpcds_block_plans_certify():
    """Join plans from all 99 TPC-DS query graphs certify under SD + hashed."""
    database = tpcds.generate_tpcds(scale_factor=0.0005, seed=4)
    configs = {
        "sd": SchemaDrivenDesigner(database, NODES).design(
            replicate=tpcds.SMALL_TABLES
        ).config,
        "hashed": all_hashed(database, NODES),
    }
    plans = [
        (number, block)
        for number, blocks in sorted(tpcds.QUERY_BLOCKS.items())
        for block in blocks
        if block
    ]
    assert len(plans) > 100
    for config_name, config in configs.items():
        partitioned = partition_database(database, config)
        rewriter = Rewriter(partitioned)
        for number, block in plans:
            plan = _block_plan(block)
            if plan is None:
                continue
            certify_or_fail(
                rewriter.rewrite(plan),
                partitioned,
                f"tpcds {config_name} q{number} {block}",
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

    def walk(annotated):
        nonlocal seen
        if annotated.extra.get("case") in ("case2", "case3"):
            assert annotated.extra["referenced_side"] in ("left", "right")
            seen += 1
        for child in annotated.inputs:
            walk(child)

    for name, build in sorted(ALL_QUERIES.items()):
        walk(rewriter.rewrite(build()))
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

    projections = []

    def walk(node):
        if isinstance(node.node, Project) and node.extra.get("distinct"):
            projections.append(node.extra)
        for child in node.inputs:
            walk(child)

    walk(annotated)
    assert projections == [
        {"distinct": "local", "assume": {"membership_only": True}}
    ]
    verdict = certify_or_fail(annotated, partitioned, "distinct keys")
    assert any("membership" in a for a in verdict.certificate.assumptions)
