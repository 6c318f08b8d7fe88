"""Self-check of the benchmark itself.  Not part of tier-1; run it with

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Every workload runs at a tiny scale factor and for its minimum number of
passes (``seconds=0``), passed as function arguments: the command line
has no knob that changes what a workload is.
"""

from __future__ import annotations

import functools
import re
import shutil
import subprocess
import sys

import pytest

import run as bench

SCALE = 0.001
SPEC = bench.declared()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: Metrics the program counts rather than times: they repeat exactly for
#: one seed.  ``serve_mixed`` counts depend on thread interleaving, so
#: only its engine counters (taken before the loop) are held to this.
EXACT_END_TO_END = ("sim_seconds", "net_bytes", "stored_rows_per_user_row")


@functools.lru_cache(maxsize=None)
def outcome(name: str, seed: int = 1, traced: bool = False, corrupt: bool = False):
    return bench.run_workload(
        name, seed=seed, seconds=0, traced=traced, scale=SCALE, corrupt=corrupt
    )


def counts(result: dict) -> dict:
    exact = {name: result["end_to_end"][name] for name in EXACT_END_TO_END}
    for name, value in result["per_layer"].items():
        if PER_LAYER[name]["unit"] == "count" and not name.startswith("serve."):
            exact[name] = value
    return exact


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_repeats_every_count_and_another_seed_does_not(name):
    first = counts(outcome(name, seed=1))
    again = counts(
        bench.run_workload(name, seed=1, seconds=0, scale=SCALE)
    )
    other = counts(outcome(name, seed=2))
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", WORKLOADS)
def test_declared_metrics_are_measured_and_nothing_else(name):
    result = outcome(name, traced=True)
    assert set(result["end_to_end"]) == END_TO_END
    assert set(result["per_layer"]) <= set(PER_LAYER)
    assert all(value != 0 for value in result["end_to_end"].values())
    for traced, expected in ((False, END_TO_END), (True, set(PER_LAYER))):
        emitted = bench.select_metrics(result, traced, SPEC)
        assert set(emitted) == expected
        assert all(
            isinstance(reading["value"], float) for reading in emitted.values()
        )
    assert result["failed"] == 0, result["failures"]
    assert result["spans"] and {"name", "layer", "start", "end", "parent",
                                "request"} <= set(result["spans"][0])


def test_every_per_layer_metric_comes_from_some_workload():
    measured = set()
    for name in WORKLOADS:
        measured |= set(outcome(name, traced=True)["per_layer"])
    assert measured == set(PER_LAYER)


def test_names_and_units_fit_the_contract():
    names = WORKLOADS + sorted(END_TO_END) + sorted(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_traced_run_separates_the_workloads():
    pref = outcome("tpch_pref", traced=True)["per_layer"]
    hashed = outcome("tpch_hashed", traced=True)["per_layer"]
    operators = [n for n in PER_LAYER if n.startswith("engine.op.")]
    assert max(operators, key=lambda n: hashed.get(n, 0.0)) == "engine.op.repartition_s"
    assert pref["engine.op.repartition_s"] < 0.05 * sum(pref[n] for n in operators)
    assert hashed["engine.join_locality"] < pref["engine.join_locality"]
    ingest = outcome("ingest_mixed", traced=True)["per_layer"]
    assert ingest["partitioning.bulk_load_s"] > 0
    assert ingest["partitioning.insert_s"] > 0
    assert "partitioning.insert_s" not in pref


@pytest.mark.parametrize("name", WORKLOADS)
def test_corrupted_answer_is_counted_as_a_failure(name):
    result = outcome(name, corrupt=True)
    assert result["failed"] > 0
    assert result["per_layer"]["failed_ops_share"] > 0


def test_wrappers_are_removed_after_a_traced_run():
    from repro.query.executor import Executor

    outcome("tpch_pref", traced=True)
    assert not hasattr(Executor.annotate, "__wrapped__")


def test_command_fails_without_the_repository(tmp_path):
    shutil.copy(bench.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bench.PERF_DIR,
        tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "tpch_pref",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
