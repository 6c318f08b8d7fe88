"""Counterexample synthesis for static-certifier refutations.

A refutation from :func:`repro.query.certify.certify` is a *claim* that
the plan's distributed evaluation can disagree with the global result on
*some* database.  This module tries to make the claim concrete: starting
from the fuzz case the plan came from, it synthesizes a small family of
amplified databases (extra rows spreading keys across partitions,
partner-less NULL-key rows) and replays the query on each through the
distributed engine and the single-node
:class:`~repro.query.local_executor.LocalExecutor`.  The first database
on which the two disagree is the confirmed counterexample attached to
the divergence/repro; if none disagrees, the refutation stays
unconfirmed (still a fuzz failure for rewriter-emitted plans — the
rewriter must only emit certifiable plans — but flagged separately).
"""

from __future__ import annotations

import copy

from repro.engine.backends import SerialBackend
from repro.fuzz import ir
from repro.fuzz.differ import rows_equal
from repro.partitioning.partitioner import partition_database
from repro.query.executor import Executor
from repro.query.local_executor import LocalExecutor
from repro.query.options import ExecOptions

#: How many fresh rows each amplification adds per table — enough to
#: reach every partition of the small fuzz clusters.
_SPREAD = 6


def _fresh_int(rows: list, position: int, step: int) -> int:
    values = [
        row[position]
        for row in rows
        if isinstance(row[position], int)
    ]
    base = max(values, default=0)
    return base + step


def _amplified_rows(table: dict, variant: str, partitions: int) -> list:
    """New rows for *table*: spread keys over partitions, or NULL keys.

    ``variant="spread"`` clones an existing row (or zero-fills) with
    fresh primary-key and integer values stepping across the hash space;
    ``variant="nulls"`` additionally NULLs every nullable non-key column
    — for PREF/foreign-key columns that manufactures partner-less rows
    and LEFT OUTER padding.
    """
    columns = table["columns"]
    pk = set(table.get("pk") or ())
    template: list = None
    if table["rows"]:
        template = list(table["rows"][0])
    new_rows = []
    for step in range(1, _SPREAD * max(1, partitions // 2) + 1):
        row = []
        for position, (name, dtype, nullable) in enumerate(columns):
            if dtype == "integer":
                if name in pk or template is None:
                    row.append(_fresh_int(table["rows"], position, step * 31 + position))
                elif variant == "nulls" and nullable and name not in pk:
                    row.append(None)
                else:
                    # Step non-key integers too: foreign keys then point
                    # at a mix of existing and missing partners.
                    base = template[position]
                    row.append(
                        (base if isinstance(base, int) else 0) + step
                        if step % 2
                        else base
                    )
            elif variant == "nulls" and nullable and name not in pk:
                row.append(None)
            elif template is not None:
                row.append(template[position])
            elif dtype == "boolean":
                row.append(False)
            else:
                row.append(f"cx{step}")
        new_rows.append(row)
    return new_rows


def amplify_case(case: dict) -> list[dict]:
    """Candidate databases for counterexample search, original first."""
    candidates = [case]
    partitions = case.get("partitions", 3)
    for variant in ("spread", "nulls"):
        amplified = copy.deepcopy(case)
        for table in amplified["tables"]:
            try:
                table["rows"].extend(
                    _amplified_rows(table, variant, partitions)
                )
            except Exception:  # noqa: BLE001 - exotic table: keep as-is
                continue
        candidates.append(amplified)
    both = copy.deepcopy(candidates[-1])
    for table in both["tables"]:
        try:
            table["rows"].extend(_amplified_rows(table, "spread", partitions))
        except Exception:  # noqa: BLE001
            continue
    candidates.append(both)
    return candidates


def replay_diverges(
    candidate: dict, query: dict, flags: dict | None = None
) -> bool:
    """Does the distributed engine disagree with LocalExecutor here?

    Builds the candidate database fresh, partitions it, runs *query*
    through a serial-backend :class:`Executor` under
    ``ExecOptions(**flags)`` (the options that produced the refuted
    plan), and compares multisets against :class:`LocalExecutor` over the
    same database.  An engine crash confirms the divergence; a
    ``LocalExecutor`` crash does not.
    """
    options = ExecOptions(**(flags or {}))
    database = ir.build_database(candidate)
    config = ir.build_config(candidate)
    config.validate(database.schema)
    partitioned = partition_database(database, config)
    executor = Executor(partitioned, options, backend=SerialBackend())
    try:
        engine_rows = executor.execute(ir.build_plan(query)).rows
    except Exception:  # noqa: BLE001 - engine crash: divergence confirmed
        return True
    try:
        local_rows = LocalExecutor(database).execute(ir.build_plan(query)).rows
    except Exception:  # noqa: BLE001 - reference crash: not a confirmation
        return False
    return not rows_equal(engine_rows, local_rows)


def confirm_refutation(
    case: dict, query: dict, flags: dict | None = None
) -> dict | None:
    """Search for a database on which the refuted plan provably diverges.

    Returns a self-contained single-query case (replayable through
    ``python -m repro.fuzz --replay``) whose engine rows differ from
    :class:`LocalExecutor`'s, or ``None`` if no candidate diverged.
    """
    for candidate in amplify_case(case):
        try:
            diverges = replay_diverges(candidate, query, flags)
        except Exception:  # noqa: BLE001 - candidate invalid (e.g. pk clash)
            continue
        if diverges:
            confirmed = copy.deepcopy(candidate)
            confirmed["queries"] = [copy.deepcopy(query)]
            confirmed["loads"] = {}
            if flags:
                confirmed["variant"] = dict(flags)
            return confirmed
    return None
