"""The batch engine's canonical traces match the frozen row engine's.

The fixtures under ``tests/fixtures/trace_*_row_engine.txt`` hold
``repr(result.trace.canonical())`` of the row-at-a-time engine this
codebase shipped before the columnar refactor, on a fixed workload
(TPC-H SF 0.002 seed 1, schema-driven PREF design on 4 nodes, serial
backend).  They were captured in that engine's positional tuple form and
later rewritten, value for value, into the named-field form — the row
engine was not re-run, so the numbers are still its own.  Canonical
traces include every operator's row/exchange/network accounting, so
equality here proves the vectorized operators are observation-identical
to the row engine — not just same answers, but the same rows through the
same exchanges.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cluster import SimulatedCluster
from repro.design import SchemaDrivenDesigner
from repro.workloads.tpch import ALL_QUERIES, SMALL_TABLES, generate_tpch

FIXTURES = Path(__file__).parent / "fixtures"
TRACED_QUERIES = ("Q1", "Q3", "Q6", "Q16", "Q21")


@pytest.fixture(scope="module")
def trace_cluster():
    database = generate_tpch(scale_factor=0.002, seed=1)
    design = SchemaDrivenDesigner(database, 4).design(replicate=SMALL_TABLES)
    cluster = SimulatedCluster.partition(
        database, design.config, backend="serial"
    )
    yield cluster
    cluster.close()


@pytest.mark.parametrize("name", TRACED_QUERIES)
def test_canonical_trace_matches_row_engine(trace_cluster, name):
    fixture = FIXTURES / f"trace_{name.lower()}_row_engine.txt"
    expected = fixture.read_text().strip()
    result = trace_cluster.run(ALL_QUERIES[name](), analyze=True)
    assert repr(result.trace.canonical()).strip() == expected
