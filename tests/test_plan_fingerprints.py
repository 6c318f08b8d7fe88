"""Every annotated plan the rewriter emits, pinned by a fingerprint.

The plans are ``Executor.annotate``'s: filter pushdown, then the
rewriter.

``tests/fixtures/plan_fingerprints.json`` holds, per plan, the sha256 of
``explain()`` plus every node's ``extra``, ``props`` and ``pristine``
(frozensets rendered sorted, so the value does not depend on
``PYTHONHASHSEED``).  The plans:

* TPC-H, 22 queries × {hashed, pref, patched} × five option sets;
* the TPC-DS block plans × {SD, all-hashed} × {default, locality off};
* the default and variant executors of fuzz seed 0, cases 0–299, over
  each case's initial store.

A refactor of the rewriter must leave every fingerprint unchanged; a
change that is meant to alter plans re-records the file (see
``tests/fixtures/README.md``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

from helpers import tpcds_block_plans
from repro.fuzz import ir
from repro.fuzz.generator import generate_case
from repro.partitioning import partition_database
from repro.query.executor import Executor
from repro.query.options import ExecOptions
from repro.workloads.tpch import ALL_QUERIES

FINGERPRINTS = Path(__file__).parent / "fixtures" / "plan_fingerprints.json"

TPCH_OPTIONS = {
    "default": ExecOptions(),
    "no_locality": ExecOptions(locality=False),
    "no_optimizations": ExecOptions(optimizations=False),
    "neither": ExecOptions(optimizations=False, locality=False),
    "predicate_transfer": ExecOptions(predicate_transfer=True),
}
TPCDS_OPTIONS = {
    "default": ExecOptions(),
    "no_locality": ExecOptions(locality=False),
}
FUZZ_SEED, FUZZ_CASES = 0, 300


def canonical(value) -> str:
    """A deterministic rendering: sets sorted, dataclasses by field."""
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(canonical(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted((canonical(k), canonical(v)) for k, v in value.items())
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(canonical(v) for v in value) + ")"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ", ".join(
            f"{f.name}={canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    text = repr(value)
    assert " at 0x" not in text, f"unstable repr {text}"
    return text


def fingerprint(annotated) -> str:
    lines = [annotated.explain()] + [
        canonical((node.extra, node.props, node.pristine))
        for node in annotated.walk()
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _annotate(executor: Executor, plan) -> str:
    try:
        return fingerprint(executor.annotate(plan))
    except Exception as exc:  # noqa: BLE001 - a rejection is pinned too
        return f"error:{type(exc).__name__}"


def record_fingerprints(tpch_stores: dict, tpcds_stores: dict) -> dict:
    """Fingerprint every plan of the three families (module docstring)."""
    out: dict[str, str] = {}
    for config, partitioned in sorted(tpch_stores.items()):
        for label, options in TPCH_OPTIONS.items():
            executor = Executor(partitioned, options)
            for name, build in sorted(ALL_QUERIES.items()):
                out[f"tpch/{config}/{label}/{name}"] = _annotate(
                    executor, build()
                )
    blocks = tpcds_block_plans()
    for config, partitioned in sorted(tpcds_stores.items()):
        for label, options in TPCDS_OPTIONS.items():
            executor = Executor(partitioned, options)
            for name, plan in blocks:
                out[f"tpcds/{config}/{label}/{name}"] = _annotate(
                    executor, plan
                )
    for index in range(FUZZ_CASES):
        case = generate_case(FUZZ_SEED, index)
        partitioned = partition_database(
            ir.build_database(case), ir.build_config(case)
        )
        executors = {"default": Executor(partitioned)}
        if case.get("variant") is not None:
            executors["variant"] = Executor(
                partitioned, ExecOptions(**case["variant"])
            )
        for number, query in enumerate(case["queries"]):
            for label, executor in executors.items():
                key = f"fuzz/{FUZZ_SEED}/{index:03d}/{number}/{label}"
                out[key] = _annotate(executor, ir.build_plan(query))
    return out


def test_every_plan_matches_its_recorded_fingerprint(
    tpch_partitioned, tpcds_partitioned
):
    recorded = json.loads(FINGERPRINTS.read_text())
    current = record_fingerprints(tpch_partitioned, tpcds_partitioned)
    assert len(current) == 2142
    assert sorted(current) == sorted(recorded)
    changed = sorted(key for key in current if current[key] != recorded[key])
    assert not changed, f"{len(changed)} plans changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    from helpers import tpcds_stores, tpch_certify_stores
    from repro.workloads.tpch import generate_tpch

    stores = tpch_certify_stores(generate_tpch(scale_factor=0.002, seed=5))
    print(json.dumps(
        record_fingerprints(stores, tpcds_stores()), indent=0, sort_keys=True
    ))
