"""The rewriter misses no local join, asked one join at a time.

For every join the rewriter shuffles, the probe strips the exchanges
directly under it, relabels it with each local row of the certifier's
join rule table — case 1, and cases 2 and 3 with either referenced side —
and certifies that subtree.  A relabelling that certifies is a join the
rewriter could have run in place: Ameloot et al.'s parallel-correctness
question (PAPERS.md) asked per join.  Join order is out of scope; the
probe pins the case analysis before anything reorders joins.

Teeth: a rewriter blind to co-partitioning (``locality=False``) shuffles
joins that are local, and the probe must find them.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from helpers import tpcds_block_plans
from repro.query.certify import _JOIN_RULES, certify
from repro.query.plan import Join, Repartition
from repro.query.rewrite import Annotated, Rewriter
from repro.workloads.tpch import ALL_QUERIES

#: (case, referenced side): the local rows over two partitioned inputs.
LOCAL_ROWS = [
    (case, side)
    for case, rule in _JOIN_RULES.items()
    if rule.left == rule.right == "partitioned" and case != "shuffled"
    for side in (("left", "right") if rule.oriented else (None,))
]


def relabelled(join: Annotated, case: str, side: str | None) -> Annotated:
    """*join* without its input exchanges, labelled as a local *case*
    join, declaring the dup columns that row lets through."""
    left, right = (
        child.inputs[0] if isinstance(child.node, Repartition) else child
        for child in join.inputs
    )
    sides = {"left": left, "right": right}
    extra = {"strategy": "local", "case": case}
    if side is not None:
        extra["referenced_side"] = side
        sides["referenced"] = sides[side]
        sides["referencing"] = right if side == "left" else left
    governing = tuple(
        dict.fromkeys(
            column
            for name in _JOIN_RULES[case].dups
            for column in sides[name].props.governing
        )
    )
    return Annotated(
        replace(join.node, left=left.node, right=right.node),
        replace(join.props, governing=governing),
        (left, right),
        extra=extra,
    )


def probe(annotated: Annotated, partitioned) -> tuple[int, list[str]]:
    """(shuffled joins, those that certify under some local row)."""
    shuffled = [
        node
        for node in annotated.walk()
        if isinstance(node.node, Join) and node.extra.get("case") == "shuffled"
    ]
    local = [
        join.node._label()
        for join in shuffled
        if any(
            certify(relabelled(join, case, side), partitioned).certified
            for case, side in LOCAL_ROWS
        )
    ]
    return len(shuffled), local


def sweep(partitioned, plans, **flags) -> tuple[int, list[str]]:
    rewriter = Rewriter(partitioned, **flags)
    total, found = 0, []
    for name, plan in plans:
        count, local = probe(rewriter.rewrite(plan), partitioned)
        total += count
        found += [f"{name}: {join}" for join in local]
    return total, found


def tpch_plans():
    return [(name, build()) for name, build in sorted(ALL_QUERIES.items())]


def test_local_rows_are_case1_and_both_orientations_of_cases_2_and_3():
    assert LOCAL_ROWS == [
        ("case1", None),
        ("case2", "left"),
        ("case2", "right"),
        ("case3", "left"),
        ("case3", "right"),
    ]


@pytest.mark.parametrize("config", ["hashed", "pref", "patched"])
def test_no_shuffled_tpch_join_certifies_as_local(tpch_partitioned, config):
    shuffled, local = sweep(tpch_partitioned[config], tpch_plans())
    assert shuffled > 0
    assert not local, local


@pytest.mark.parametrize("config", ["sd", "hashed"])
def test_no_shuffled_tpcds_block_join_certifies_as_local(
    tpcds_partitioned, config
):
    shuffled, local = sweep(tpcds_partitioned[config], tpcds_block_plans())
    assert shuffled > 100
    assert not local, local[:5]


def test_probe_finds_the_joins_a_locality_blind_rewriter_shuffles(
    tpch_partitioned,
):
    _shuffled, local = sweep(
        tpch_partitioned["pref"], tpch_plans(), locality=False
    )
    assert len(local) >= 10, local
