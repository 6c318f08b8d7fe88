"""Scans alias the store: no query may change what is stored.

``PhysicalScan`` and the predicate-transfer simulation hand out the
partitions' own column / ``dup`` / ``hasS`` lists, uncopied.  The engine's
rule that batch columns are immutable is therefore a storage-safety rule:
an operator that sorted, extended or overwrote a batch column in place
would corrupt the table, not a cache.  This suite snapshots the whole
store, runs all 22 TPC-H plans over it, and requires the store unchanged.

The one derived structure a partition holds, its join-key index (join
tables, shuffle buckets, sorted columns, NULL flags), is held to the
same rule: after the plans ran, every kept entry equals a fresh build,
and probing a kept entry leaves it as it was.
"""

import copy

import pytest

from helpers import patch_pref_leaves
from repro.design import SchemaDrivenDesigner
from repro.engine import make_backend
from repro.engine.compile import compile_plan
from repro.engine.context import ExecutionContext
from repro.partitioning import partition_database
from repro.partitioning.invariants import check_key_index
from repro.query import ExecOptions, Executor, Query
from repro.query.rewrite import Rewriter
from repro.storage.partition import SORT_ON_CALL
from repro.workloads.tpch import ALL_QUERIES, SMALL_TABLES


def kept_indexes(partitioned):
    """Every kept key index: (table, partition, positions) -> a deep copy."""
    return {
        (name, partition.partition_id, positions): copy.deepcopy(kept)
        for name, table in partitioned.tables.items()
        for partition in table.partitions
        for positions, kept in (partition.key_index or {}).items()
        if kept is not None
    }


def snapshot(partitioned):
    """A deep copy of every stored list of every partition."""
    return {
        name: [
            copy.deepcopy(
                (p.columns, p.source_ids, p.dup, p.has_partner)
            )
            for p in table.partitions
        ]
        for name, table in partitioned.tables.items()
    }


@pytest.fixture(scope="module")
def stores(tiny_tpch):
    pref = SchemaDrivenDesigner(tiny_tpch, 4).design(
        replicate=SMALL_TABLES
    ).config
    patched = patch_pref_leaves(pref, tiny_tpch.schema)
    built = {
        "pref": partition_database(tiny_tpch, pref),
        "patched": partition_database(tiny_tpch, patched),
    }
    assert any(t.patch_count for t in built["patched"].tables.values())
    return built


@pytest.mark.parametrize("predicate_transfer", [False, True])
@pytest.mark.parametrize("backend", ["serial", "thread"])
@pytest.mark.parametrize("config", ["pref", "patched"])
def test_queries_leave_the_store_unchanged(
    stores, config, backend, predicate_transfer
):
    partitioned = stores[config]
    before = snapshot(partitioned)
    executor = Executor(
        partitioned,
        ExecOptions(predicate_transfer=predicate_transfer),
        backend=make_backend(backend),
    )
    plans = [build() for build in ALL_QUERIES.values()]
    try:
        # The second run of a plan keeps the key indexes, and run
        # SORT_ON_CALL the sorted columns, that the next run probes.
        for plan in plans * SORT_ON_CALL:
            executor.execute(plan)
        kept = kept_indexes(partitioned)
        assert kept
        for plan in plans:
            executor.execute(plan)
    finally:
        executor.backend.close()
    assert snapshot(partitioned) == before
    assert kept_indexes(partitioned) == kept
    check_key_index(partitioned)


def test_scan_batches_alias_the_stored_columns(stores):
    """The guard above has a subject: a scan's batch *is* the store."""
    partitioned = stores["pref"]
    table = next(
        t for t in partitioned.tables.values() if t.is_pref and t.total_rows
    )
    annotated = Rewriter(partitioned).rewrite(
        Query.scan(table.name, alias="t").plan()
    )
    root = compile_plan(annotated, partitioned)
    scan = next(op for op in root.walk() if op.name == "scan")
    ctx = ExecutionContext(partitioned.partition_count)
    ctx.register(scan)
    partition = next(p for p in table.partitions if p.row_count)
    scan.run_partition(ctx, partition.partition_id)
    batch = scan.partition_batch(partition.partition_id)
    stored = partition.columns + [partition.dup, partition.has_partner]
    assert len(batch.columns) == len(stored)
    assert all(a is b for a, b in zip(batch.columns, stored))
