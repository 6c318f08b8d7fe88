"""Property tests for the certifier as a fuzz oracle.

The contract the fuzz wiring depends on, checked over the real case
generator:

* completeness in practice — for a broad sweep of seeded random
  schemas/configs/queries, every plan the rewriter emits (default and
  ablation-variant flags alike) certifies;
* soundness in practice — certified plans agree across all three engine
  backends, down to canonical stats and span traces (run_case's trace
  equality checks);
* wiring — a fuzz run with the certify oracle enabled stays clean on a
  fixed seed, and when a refuted plan does slip in (bug resurrected),
  the minimised saved repro carries the refutation payload and its
  synthesized counterexample.
"""

from __future__ import annotations

import copy
from pathlib import Path

from helpers import buggy_left_outer_local_join
from repro.fuzz import ir
from repro.fuzz.generator import generate_case
from repro.fuzz.runner import run_case, run_fuzz
from repro.partitioning import partition_database
from repro.query.certify import certify
from repro.query.executor import Executor
from repro.query.options import ExecOptions
from repro.query.rewrite import Rewriter

REPROS = Path(__file__).parent / "fixtures" / "repros"

SWEEP = 200


def test_every_generated_plan_certifies():
    """200 seeded generator configs: the rewriter only emits certifiable
    plans, under the default flags and the case's random ablation flags."""
    checked = 0
    for index in range(SWEEP):
        case = generate_case(0, index)
        database = ir.build_database(case)
        config = ir.build_config(case)
        config.validate(database.schema)
        partitioned = partition_database(database, config)
        variant = case["variant"]
        executors = [
            ("default", Executor(partitioned)),
            ("variant", Executor(partitioned, ExecOptions(**variant))),
        ]
        for qindex, query in enumerate(case["queries"]):
            plan = ir.build_plan(query)
            for label, executor in executors:
                verdict = certify(executor.annotate(plan), partitioned)
                assert verdict.certified, (
                    f"case {index} query {qindex} ({label} plan, variant="
                    f"{variant}):\n{verdict.render()}"
                )
                checked += 1
    assert checked > 2 * SWEEP


def test_certified_plans_agree_across_backends():
    """Certified cases pass serial/thread row + trace equality."""
    for index in range(8):
        case = generate_case(3, index)
        divergence = run_case(
            case,
            backends=("serial", "thread"),
            check_certify=True,
        )
        assert divergence is None, f"case {index}: {divergence.describe()}"


def test_fuzz_run_with_certify_oracle_is_clean():
    report = run_fuzz(30, seed=1, backends=("serial",), out=None)
    assert report.ok, report.summary()


def test_saved_repro_carries_refutation_payload(tmp_path, monkeypatch):
    """A refuted plan's minimised repro embeds the refutation and its
    counterexample (the shrinker preserves the divergence kind)."""
    pr3 = ir.load_case(str(REPROS / "pr3_left_outer_null_group.json"))
    monkeypatch.setattr(Rewriter, "_local_join", buggy_left_outer_local_join())
    monkeypatch.setattr(
        "repro.fuzz.runner.generate_case",
        lambda seed, index=0: copy.deepcopy(pr3),
    )
    out = tmp_path / "certify-repro.json"
    report = run_fuzz(
        1,
        seed=0,
        backends=("serial",),
        out=str(out),
        max_shrink=40,
    )
    assert not report.ok
    assert report.divergence.kind == "certify_refuted"
    assert out.exists()
    saved = ir.load_case(str(out))
    payload = saved["certify"]
    assert payload["refutation"]["check"] == "aggregate:local"
    counterexample = payload["counterexample"]
    # The embedded counterexample is itself a replayable case that still
    # diverges under the bug...
    divergence = run_case(counterexample, backends=("serial",))
    assert divergence is not None
    # ...and everything is clean once the bug is removed again.
    monkeypatch.undo()
    assert run_case(saved, backends=("serial",)) is None
