"""The differential runner: one case in, one (optional) divergence out.

For every case the runner:

1. builds the unpartitioned database and partitioning configuration,
   partitions, and checks :func:`check_pref_invariants` (``exact=True``);
2. statically certifies every query's default and variant plans
   (:func:`repro.query.certify.certify`, the second oracle): a refuted
   plan is a divergence, and a certified plan whose results diverge
   escalates to ``certify_contradiction``;
3. executes every query on the serial backend (the reference) and on
   each requested additional backend, requiring *identical* rows and
   canonical :class:`ExecutionStats`;
4. re-executes under the case's ``variant`` — the fields of an
   :class:`~repro.query.options.ExecOptions`, drawn at random by the
   generator — and compares rows: the rewritten and naive plans must
   agree;
5. compares rows with the single-node answer of :class:`LocalExecutor`,
   and that answer with sqlite3, which shares no code with either
   (tolerant multiset comparisons);
6. if the case has bulk-load batches, applies them through
   :class:`BulkLoader`, re-checks invariants (``exact=True``: a
   maintained load re-places the referencing tuples it partners, so no
   stale copy is legal), and repeats steps 2–5 in the ``after_load``
   phase.

The first check to fail produces a :class:`Divergence`; ``None`` means
the case passed everything.
"""

from __future__ import annotations

import sqlite3
from dataclasses import asdict, dataclass

from repro.engine.backends import Backend, SerialBackend, make_backend
from repro.fuzz import ir
from repro.fuzz.differ import (
    diff_summary,
    rows_equal,
    span_tree_diff,
    span_trees_equal,
)
from repro.fuzz.generator import generate_case
from repro.fuzz.sqlite_oracle import SqlTranslationError, run_sqlite
from repro.partitioning.bulk_loader import BulkLoader
from repro.partitioning.invariants import InvariantViolation, check_pref_invariants
from repro.partitioning.partitioner import partition_database
from repro.query.executor import Executor
from repro.query.local_executor import LocalExecutor
from repro.query.options import ExecOptions

DEFAULT_BACKENDS = ("serial", "thread")

#: Reused pools: a thread backend is safely shareable between executors
#: and cases.
_SHARED: dict[str, Backend] = {}


def _backend_for(spec: str) -> Backend:
    if spec == "serial":
        return SerialBackend()
    if spec not in _SHARED:
        _SHARED[spec] = make_backend(spec, max_workers=2)
    return _SHARED[spec]


@dataclass
class Divergence:
    """One observed disagreement (or crash, or invariant violation)."""

    kind: str
    detail: str
    phase: str = "initial"
    query_index: int | None = None
    #: Structured attachment (e.g. a certifier refutation plus its
    #: confirmed counterexample case), carried into saved repros.
    payload: dict | None = None

    def describe(self) -> str:
        where = f" [phase={self.phase}"
        if self.query_index is not None:
            where += f", query={self.query_index}"
        where += "]"
        return f"{self.kind}{where}: {self.detail}"


def run_case(
    case: dict,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
) -> Divergence | None:
    """Run one case through every check; None means fully consistent."""
    try:
        database = ir.build_database(case)
        config = ir.build_config(case)
        config.validate(database.schema)
        variant = case.get("variant")
        variant_options = None if variant is None else ExecOptions(**variant)
    except Exception as exc:  # noqa: BLE001 - classified for the shrinker
        return Divergence(f"invalid_case:{type(exc).__name__}", str(exc))
    try:
        partitioned = partition_database(database, config)
    except Exception as exc:  # noqa: BLE001
        return Divergence(f"error:partition:{type(exc).__name__}", str(exc))
    try:
        check_pref_invariants(partitioned, config, exact=True)
    except InvariantViolation as exc:
        return Divergence("invariant", str(exc), phase="initial")

    reference = Executor(partitioned, backend=SerialBackend())
    others = [
        (spec, Executor(partitioned, backend=_backend_for(spec)))
        for spec in backends
        if spec != "serial"
    ]
    variant_executor = (
        Executor(partitioned, variant_options, backend=SerialBackend())
        if variant_options is not None
        else None
    )

    phases: list[tuple[str, dict | None]] = [("initial", None)]
    if case.get("loads"):
        phases.append(("after_load", case["loads"]))

    for phase, loads in phases:
        if loads:
            loader = BulkLoader(partitioned, config)
            batches = {
                name: [tuple(row) for row in rows]
                for name, rows in loads.items()
            }
            try:
                loader.load(batches)
                check_pref_invariants(partitioned, config, exact=True)
            except InvariantViolation as exc:
                return Divergence("invariant", str(exc), phase=phase)
            except Exception as exc:  # noqa: BLE001
                return Divergence(
                    f"error:load:{type(exc).__name__}", str(exc), phase=phase
                )
            for name, rows in batches.items():
                database.load(name, rows)
        for index, query in enumerate(case["queries"]):
            divergence = _check_query(
                query,
                index,
                phase,
                reference,
                others,
                variant_executor,
                database,
                partitioned,
                case,
            )
            if divergence is not None:
                return divergence
    return None


def _trace_dumps(serial_trace, other_trace, spec: str) -> str:
    """Both backends' full JSON traces, for the divergence report."""
    import json

    from repro.obs.explain import trace_to_json

    return (
        f"serial trace: {json.dumps(trace_to_json(serial_trace), sort_keys=True)}\n"
        f"{spec} trace: {json.dumps(trace_to_json(other_trace), sort_keys=True)}"
    )


#: Divergence kinds that mean "the distributed result is wrong" — the
#: kinds a statically certified plan must never produce.
_RESULT_KINDS = frozenset({"backend_rows", "rewrite_rows", "local_rows"})


def _check_query(
    query: dict,
    index: int,
    phase: str,
    reference: Executor,
    others: list[tuple[str, Executor]],
    variant_executor: Executor | None,
    database,
    partitioned,
    case: dict,
) -> Divergence | None:
    certify_divergence, certified = _certify_query(
        query, index, phase, reference, variant_executor,
        partitioned, case, database,
    )
    if certify_divergence is not None:
        return certify_divergence
    divergence = _check_query_dynamic(
        query, index, phase, reference, others, variant_executor, database
    )
    if (
        divergence is not None
        and certified
        and divergence.kind in _RESULT_KINDS
    ):
        # The second oracle's hard promise: a certified plan never
        # diverges.  Seeing both means the certifier (or the engine) has
        # a soundness bug — escalate the kind so it is triaged as such.
        divergence.detail += (
            "\n[certify] CONTRADICTION: this plan was statically "
            "certified, yet its results diverged"
        )
        divergence.kind = f"certify_contradiction:{divergence.kind}"
    return divergence


def _certify_query(
    query: dict,
    index: int,
    phase: str,
    reference: Executor,
    variant_executor: Executor | None,
    partitioned,
    case: dict,
    database,
) -> tuple[Divergence | None, bool]:
    """Run the static certifier over the default and variant plans.

    Returns ``(divergence, certified)``: a refutation becomes a
    ``certify_refuted`` divergence when its synthesized counterexample
    demonstrably diverges from :class:`LocalExecutor`, or
    ``certify_unconfirmed`` otherwise (the rewriter must only emit
    certifiable plans, so both are failures); ``certified`` is True when
    every checked plan got a certificate.
    """
    import copy as _copy

    from repro.fuzz.certify import confirm_refutation
    from repro.query.certify import certify

    targets: list[tuple[str, Executor]] = [("default", reference)]
    if variant_executor is not None:
        targets.append(("variant", variant_executor))
    for label, executor in targets:
        flags = asdict(executor.options)
        try:
            annotated = executor.annotate(ir.build_plan(query))
        except Exception as exc:  # noqa: BLE001
            return (
                Divergence(
                    f"error:annotate:{type(exc).__name__}",
                    f"{label} plan: {exc}",
                    phase,
                    index,
                ),
                False,
            )
        try:
            result = certify(annotated, partitioned)
        except Exception as exc:  # noqa: BLE001
            return (
                Divergence(
                    f"error:certify:{type(exc).__name__}",
                    f"{label} plan: {exc}",
                    phase,
                    index,
                ),
                False,
            )
        if result.certified:
            continue
        refutation = result.refutation
        payload = {
            "plan": label,
            "flags": flags,
            "refutation": {
                "check": refutation.check,
                "reason": refutation.reason,
                "path": list(refutation.path),
            },
        }
        # Fold applied load batches in so the search starts from the
        # table contents the refuted plan actually saw.
        effective = _copy.deepcopy(case)
        effective["loads"] = {}
        for table in effective["tables"]:
            table["rows"] = [
                list(row) for row in database.table(table["name"]).rows
            ]
        counterexample = confirm_refutation(effective, query, flags)
        if counterexample is not None:
            payload["counterexample"] = counterexample
            return (
                Divergence(
                    "certify_refuted",
                    f"{label} plan statically refuted; the synthesized "
                    "counterexample diverges from LocalExecutor\n"
                    + result.render(),
                    phase,
                    index,
                    payload=payload,
                ),
                False,
            )
        return (
            Divergence(
                "certify_unconfirmed",
                f"{label} plan statically refuted (no diverging "
                "counterexample found; the rewriter must emit "
                "certifiable plans)\n" + result.render(),
                phase,
                index,
                payload=payload,
            ),
            False,
        )
    return None, True


def _check_query_dynamic(
    query: dict,
    index: int,
    phase: str,
    reference: Executor,
    others: list[tuple[str, Executor]],
    variant_executor: Executor | None,
    database,
) -> Divergence | None:
    try:
        plan = ir.build_plan(query)
    except Exception as exc:  # noqa: BLE001
        return Divergence(
            f"error:plan:{type(exc).__name__}", str(exc), phase, index
        )
    try:
        expected = reference.execute(plan, analyze=True)
    except Exception as exc:  # noqa: BLE001
        return Divergence(
            f"error:execute:{type(exc).__name__}", str(exc), phase, index
        )
    expected_stats = expected.stats.canonical()
    for spec, executor in others:
        try:
            result = executor.execute(ir.build_plan(query), analyze=True)
        except Exception as exc:  # noqa: BLE001
            return Divergence(
                f"error:execute:{type(exc).__name__}",
                f"backend {spec}: {exc}",
                phase,
                index,
            )
        if result.rows != expected.rows:
            return Divergence(
                "backend_rows",
                f"backend {spec} rows differ from serial\n"
                + diff_summary("serial", expected.rows, spec, result.rows),
                phase,
                index,
            )
        if result.stats.canonical() != expected_stats:
            return Divergence(
                "backend_stats",
                f"backend {spec} stats {result.stats.canonical()!r} != "
                f"serial {expected_stats!r}",
                phase,
                index,
            )
        if not span_trees_equal(result.trace, expected.trace):
            return Divergence(
                "backend_trace",
                f"backend {spec} span tree differs from serial\n"
                + span_tree_diff("serial", expected.trace, spec, result.trace)
                + "\n"
                + _trace_dumps(expected.trace, result.trace, spec),
                phase,
                index,
            )
    if variant_executor is not None:
        try:
            varied = variant_executor.execute(ir.build_plan(query))
        except Exception as exc:  # noqa: BLE001
            return Divergence(
                f"error:execute:{type(exc).__name__}",
                f"rewrite variant: {exc}",
                phase,
                index,
            )
        if not rows_equal(varied.rows, expected.rows):
            return Divergence(
                "rewrite_rows",
                "rewriter-ablation variant rows differ\n"
                + diff_summary("default", expected.rows, "variant", varied.rows),
                phase,
                index,
            )
    try:
        local = LocalExecutor(database).execute(ir.build_plan(query))
    except Exception as exc:  # noqa: BLE001
        return Divergence(
            f"error:local:{type(exc).__name__}", str(exc), phase, index
        )
    if not rows_equal(local.rows, expected.rows):
        return Divergence(
            "local_rows",
            "LocalExecutor rows differ from distributed result\n"
            + diff_summary("local", local.rows, "engine", expected.rows),
            phase,
            index,
        )
    try:
        sqlite_rows = run_sqlite(database, query)
    except (SqlTranslationError, sqlite3.Error) as exc:
        return Divergence(
            f"error:sqlite:{type(exc).__name__}", str(exc), phase, index
        )
    if not rows_equal(sqlite_rows, local.rows):
        return Divergence(
            "sqlite_rows",
            "sqlite3 rows differ from LocalExecutor\n"
            + diff_summary("sqlite", sqlite_rows, "local", local.rows),
            phase,
            index,
        )
    return None


@dataclass
class FuzzReport:
    """Outcome of a fuzz run."""

    seed: int
    cases_requested: int
    cases_run: int = 0
    queries_run: int = 0
    divergence: Divergence | None = None
    failing_case: dict | None = None
    shrunk_case: dict | None = None
    repro_path: str | None = None
    shrink_attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def summary(self) -> str:
        if self.ok:
            return (
                f"OK: {self.cases_run} cases ({self.queries_run} query "
                f"executions) with zero divergences, seed {self.seed}"
            )
        lines = [
            f"FAIL after {self.cases_run} cases (seed {self.seed}):",
            self.divergence.describe(),
        ]
        if self.shrunk_case is not None:
            lines.append(
                f"minimised repro ({self.shrink_attempts} shrink runs)"
                + (f" written to {self.repro_path}" if self.repro_path else "")
            )
        elif self.repro_path:
            lines.append(f"repro written to {self.repro_path}")
        return "\n".join(lines)


def run_fuzz(
    cases: int,
    seed: int,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    shrink_divergent: bool = True,
    out: str | None = None,
    max_shrink: int = 250,
    progress=None,
    variant_overrides: dict | None = None,
) -> FuzzReport:
    """Generate and run *cases* cases; stop (and shrink) on the first failure.

    ``variant_overrides`` pins variant-executor flags across every case
    (e.g. ``{"predicate_transfer": True}`` for a dedicated on/off sweep)
    on top of the generator's per-case random choices; a misspelt or
    mistyped override raises before the sweep starts.
    """
    from repro.fuzz.shrinker import shrink

    if variant_overrides:
        ExecOptions(**variant_overrides)  # validated once, not per case
    report = FuzzReport(seed=seed, cases_requested=cases)
    for index in range(cases):
        case = generate_case(seed, index)
        if variant_overrides:
            case.setdefault("variant", {}).update(variant_overrides)
        divergence = run_case(case, backends=backends)
        report.cases_run += 1
        report.queries_run += len(case["queries"]) * (2 if case["loads"] else 1)
        if divergence is None:
            if progress is not None:
                progress(index + 1, cases)
            continue
        report.divergence = divergence
        report.failing_case = case
        if shrink_divergent:
            kind = divergence.kind
            attempts = [0]

            def still_fails(candidate: dict) -> bool:
                attempts[0] += 1
                found = run_case(candidate, backends=backends)
                return found is not None and found.kind == kind

            report.shrunk_case = shrink(case, still_fails, max_attempts=max_shrink)
            report.shrink_attempts = attempts[0]
            # Re-derive the divergence message (and, for certifier
            # refutations, the refutation payload + counterexample) from
            # the minimised case, so the repro carries both.
            final = run_case(report.shrunk_case, backends=backends)
            if final is not None:
                report.divergence = final
        if out:
            saved = dict(report.shrunk_case or case)
            if report.divergence is not None and report.divergence.payload:
                saved["certify"] = report.divergence.payload
            ir.save_case(saved, out)
            report.repro_path = out
        break
    return report
