"""The certifier regression corpus under tests/fixtures/repros/.

Each fixture is a replayable fuzz-IR case (``python -m repro.fuzz
--replay <file>`` works on all of them) pinned from a fuzzer find or a
hand-built boundary scenario.  For every fixture, both the default and
the recorded variant plan must certify AND the full differential
pipeline (with the certify oracle enabled) must pass — so the corpus
guards the certifier and the engine at once.

The PR3 acceptance test resurrects the historical LEFT OUTER
equivalence-merge bug and requires the whole refutation pipeline to
work: static refutation, counterexample synthesis, demonstrable
divergence of that counterexample from LocalExecutor, and a saved
repro carrying the refutation payload.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from helpers import buggy_left_outer_local_join
from repro.fuzz import ir
from repro.fuzz.certify import confirm_refutation, replay_diverges
from repro.fuzz.runner import run_case
from repro.partitioning import partition_database
from repro.query.certify import _Certifier, certify
from repro.query.executor import Executor
from repro.query.options import ExecOptions
from repro.query.rewrite import Rewriter

REPROS = Path(__file__).parent / "fixtures" / "repros"

FIXTURES = [
    "pr3_left_outer_null_group.json",
    "null_join_keys_pref.json",
    "pref_duplicates_left_outer.json",
    "semi_distinct_shuffle.json",
    "all_null_aggregates.json",
    "inner_join_equality_through_shuffle.json",
    "bool_int_join_through_shuffle.json",
]


def load(name: str) -> dict:
    return ir.load_case(str(REPROS / name))


def build_partitioned(case: dict):
    database = ir.build_database(case)
    config = ir.build_config(case)
    config.validate(database.schema)
    return partition_database(database, config)


def test_corpus_is_complete():
    assert sorted(path.name for path in REPROS.glob("*.json")) == sorted(
        FIXTURES
    )


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_plans_certify(name):
    """Default and recorded-variant plans of every fixture certify."""
    case = load(name)
    partitioned = build_partitioned(case)
    executors = [
        ("default", Executor(partitioned)),
        ("variant", Executor(partitioned, ExecOptions(**case["variant"]))),
    ]
    for index, query in enumerate(case["queries"]):
        for label, executor in executors:
            verdict = certify(
                executor.annotate(ir.build_plan(query)), partitioned
            )
            assert verdict.certified, (
                f"{name} query {index} {label}: {verdict.render()}"
            )


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_passes_differential_pipeline(name):
    """Replay through run_case with the certify oracle switched on."""
    divergence = run_case(
        load(name), backends=("serial", "thread"), check_certify=True
    )
    assert divergence is None, divergence.describe()


def test_resurrected_bug_refutation_counterexample_diverges(monkeypatch):
    """Acceptance: the refuted PR3 plan's counterexample really diverges.

    With the equivalence-merge bug patched back into the rewriter, the
    certifier must refute the plan, the counterexample synthesizer must
    find a database on which the buggy plan's distributed result differs
    from the naive single-node oracle, and run_case must classify the
    whole thing as ``certify_refuted`` with the counterexample attached.
    """
    case = load("pr3_left_outer_null_group.json")
    query = case["queries"][0]
    flags = dict(case["variant"])

    monkeypatch.setattr(Rewriter, "_local_join", buggy_left_outer_local_join())

    partitioned = build_partitioned(case)
    verdict = certify(
        Executor(partitioned).annotate(ir.build_plan(query)), partitioned
    )
    assert not verdict.certified
    assert verdict.refutation.check == "aggregate:local"

    counterexample = confirm_refutation(case, query, flags)
    assert counterexample is not None, (
        "no diverging counterexample found for the refuted plan"
    )
    assert replay_diverges(
        counterexample, counterexample["queries"][0], counterexample["variant"]
    ), "the attached counterexample must diverge from LocalExecutor"

    divergence = run_case(case, backends=("serial",))
    assert divergence is not None
    assert divergence.kind == "certify_refuted"
    assert divergence.payload is not None
    assert divergence.payload["refutation"]["check"] == "aggregate:local"
    assert "counterexample" in divergence.payload


def test_counterexample_is_clean_on_fixed_rewriter():
    """The PR3 fixture (the historical counterexample) passes when fixed."""
    case = load("pr3_left_outer_null_group.json")
    assert not replay_diverges(
        case, case["queries"][0], case["variant"]
    ), "fixed rewriter must agree with LocalExecutor on this fixture"


def test_join_equality_survives_a_shuffle_and_has_teeth(monkeypatch):
    """Seed-11 fuzz find: ``a0.fk_t0 = a1.id`` (inner join), shuffled on
    ``a1.id`` for a semi join, grouped by ``a0.fk_t0`` locally.  The
    certificate rests on carrying the join equality through the
    repartition: with joins recording no equalities (the parent's
    behaviour) the same plan is refuted."""
    case = load("inner_join_equality_through_shuffle.json")
    partitioned = build_partitioned(case)
    annotated = Executor(partitioned).annotate(
        ir.build_plan(case["queries"][0])
    )
    assert certify(annotated, partitioned).certified

    join = _Certifier._join
    monkeypatch.setattr(
        _Certifier,
        "_join",
        lambda self, a: replace(join(self, a), equal=frozenset()),
    )
    verdict = certify(annotated, partitioned)
    assert not verdict.certified
    assert verdict.refutation.check == "aggregate:local"
    assert "a0.fk_t0" in verdict.refutation.reason
