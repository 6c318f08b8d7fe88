"""EXPLAIN ANALYZE: rendering, JSON export + schema, SQL prefix, CLI.

The tentpole acceptance test lives here: TPC-H Q3 under the
schema-driven PREF design must report *identical* canonical span trees
and merged row/shuffle counters on the serial and thread backends, and
the JSON trace export must validate against the checked-in
schema (``src/repro/obs/trace_schema.json``).
"""

from __future__ import annotations

import json

import pytest

from helpers import pref_chain_config
from repro.cluster import SimulatedCluster
from repro.design import SchemaDrivenDesigner
from repro.engine import SerialBackend, ThreadPoolBackend
from repro.obs.explain import (
    dump_trace,
    load_trace_schema,
    render_analyze,
    trace_to_json,
    validate_trace,
)
from repro.partitioning import partition_database
from repro.query import Executor
from repro.sql import strip_explain
from repro.workloads.tpch import ALL_QUERIES, SMALL_TABLES


@pytest.fixture(scope="module")
def q3_results(tiny_tpch):
    """Q3 run with analyze=True on both backends (shared design)."""
    design = SchemaDrivenDesigner(tiny_tpch, 4).design(replicate=SMALL_TABLES)
    partitioned = partition_database(tiny_tpch, design.config)
    thread_pool = ThreadPoolBackend(max_workers=4)
    backends = {
        "serial": SerialBackend(),
        "thread": thread_pool,
    }
    results = {
        name: Executor(partitioned, backend=backend).execute(
            ALL_QUERIES["Q3"](), analyze=True, query_name="Q3"
        )
        for name, backend in backends.items()
    }
    yield results
    thread_pool.close()


def test_q3_traces_identical_across_backends(q3_results):
    # The acceptance criterion: identical span trees and merged
    # row/shuffle counters (timings excluded) on both backends.
    reference = q3_results["serial"].trace
    assert q3_results["thread"].trace.canonical() == reference.canonical()
    for counter in (
        "engine.rows.out",
        "engine.rows.shipped",
        "engine.bytes.shuffled",
        "engine.shuffles",
        "engine.rows.dup_eliminated",
        "engine.partitions.scanned",
    ):
        values = {
            name: result.trace.metrics.counter(counter)
            for name, result in q3_results.items()
        }
        assert len(set(values.values())) == 1, (counter, values)


def test_q3_rows_match_trace_accounting(q3_results):
    result = q3_results["serial"]
    trace = result.trace
    assert trace.query == "Q3"
    assert trace.node_count == 4
    # The root gather's output is the query result.
    assert trace.spans()[-1].rows_out == len(result.rows)
    # Trace counters reconcile with the cost-model stats.
    assert trace.metrics.counter("engine.rows.shipped") == (
        result.stats.rows_shipped
    )
    assert trace.metrics.counter("engine.shuffles") == (
        result.stats.shuffle_count
    )


def test_render_analyze_shows_annotations_and_measurements(q3_results):
    text = q3_results["serial"].explain_analyze()
    assert text == render_analyze(q3_results["serial"].trace)
    assert text.startswith("EXPLAIN ANALYZE Q3")
    assert "locality=" in text
    assert "rows=" in text
    assert "time=" in text
    # The rewriter's static annotations render next to the measurements.
    assert "case" in text
    # The totals footer aggregates the merged registry.
    assert "total:" in text.lower() or "totals" in text.lower()


def test_live_columns_are_shown_but_not_compared(q3_results):
    """``cols <live>/<total>`` comes from the compiled operators: it is in
    the text and the JSON, and outside the canonical form the goldens and
    the three-backend equality compare."""
    trace = q3_results["serial"].trace
    lines = render_analyze(trace).splitlines()[1:]
    spans = trace.spans()
    for span in spans:
        shown = f"cols {len(span.live_columns)}/{span.total_columns}  rows="
        assert any(span.label in line and shown in line for line in lines)
        assert len(set(span.live_columns)) == len(span.live_columns)
        assert len(span.live_columns) <= span.total_columns
    [lineitem] = [s for s in spans if s.label == "scan(lineitem)"]
    assert set(lineitem.live_columns) == {
        "l.l_orderkey", "l.l_extendedprice", "l.l_discount", "l.l_shipdate",
    }
    assert lineitem.total_columns == 17
    data = trace_to_json(trace)["root"]
    assert data["live_columns"] == list(trace.root.live_columns)
    assert data["total_columns"] == trace.root.total_columns
    for span in spans:
        assert not {"live_columns", "total_columns"} & set(
            dict(span.own_canonical())
        )


def test_trace_json_validates_against_schema(q3_results, tmp_path):
    # The pool's trace: one merged from per-task recorders.
    trace = q3_results["thread"].trace
    data = trace_to_json(trace)
    assert validate_trace(data) == []
    # The export is pure JSON (round-trips through a string).
    assert validate_trace(json.loads(json.dumps(data))) == []
    path = tmp_path / "q3.json"
    dump_trace(trace, path)
    reloaded = json.loads(path.read_text())
    assert validate_trace(reloaded, load_trace_schema()) == []
    assert reloaded["query"] == "Q3"
    assert reloaded["backend"] == "thread"


def test_trace_schema_rejects_malformed_documents(q3_results):
    good = trace_to_json(q3_results["serial"].trace)
    missing = dict(good)
    del missing["root"]
    assert validate_trace(missing)
    wrong_type = dict(good)
    wrong_type["node_count"] = "four"
    assert validate_trace(wrong_type)
    bad_method = json.loads(json.dumps(good))
    bad_method["root"]["method"] = "sharded"
    assert validate_trace(bad_method)
    bad_phase = json.loads(json.dumps(good))
    spans = [bad_phase["root"]]
    while spans:
        span = spans.pop()
        if span["tasks"]:
            span["tasks"][0]["phase"] = "warmup"
            break
        spans.extend(span["children"])
    assert validate_trace(bad_phase)


# -- SQL front-end integration -------------------------------------------


def test_strip_explain_prefix():
    assert strip_explain("SELECT 1") == (None, "SELECT 1")
    mode, body = strip_explain("EXPLAIN SELECT x FROM t")
    assert mode == "explain"
    assert body == "SELECT x FROM t"
    mode, body = strip_explain("  explain   analyze\nSELECT x FROM t")
    assert mode == "explain_analyze"
    assert body == "SELECT x FROM t"
    # EXPLAIN must be a whole word, not a prefix of an identifier.
    mode, body = strip_explain("EXPLAINER")
    assert mode is None


def test_cluster_sql_explain_statements(shop_db):
    cluster = SimulatedCluster.partition(shop_db, pref_chain_config(4))
    try:
        sql = (
            "SELECT c.cname, o.total FROM customer c "
            "JOIN orders o ON c.custkey = o.custkey"
        )
        plain = cluster.sql(sql)
        assert plain.rows
        explained = cluster.sql(f"EXPLAIN {sql}")
        assert explained.columns == ("plan",)
        text = "\n".join(row[0] for row in explained.rows)
        assert "Join" in text
        analyzed = cluster.sql(f"EXPLAIN ANALYZE {sql}")
        assert analyzed.columns == ("plan",)
        text = "\n".join(row[0] for row in analyzed.rows)
        assert text.startswith("EXPLAIN ANALYZE")
        assert "locality=" in text
    finally:
        cluster.close()


def test_cluster_run_analyze_keeps_result_shape(shop_db):
    cluster = SimulatedCluster.partition(shop_db, pref_chain_config(4))
    try:
        sql = "SELECT COUNT(*) AS n FROM lineitem l"
        plain = cluster.sql(sql)
        traced = cluster.sql(sql, analyze=True)
        assert traced.rows == plain.rows
        assert plain.trace is None
        assert traced.trace is not None
        assert traced.explain_analyze()
    finally:
        cluster.close()


# -- CLI -------------------------------------------------------------------


def test_cli_explain_analyze_check_and_export(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "trace.json"
    rc = main(
        [
            "explain",
            "--query",
            "Q1",
            "--analyze",
            "--backends",
            "serial,thread",
            "--check",
            "--json-out",
            str(out),
            "--scale",
            "0.001",
            "--seed",
            "3",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "EXPLAIN ANALYZE Q1" in captured.out
    assert "trace check OK" in captured.out
    data = json.loads(out.read_text())
    assert validate_trace(data) == []
    assert data["query"] == "Q1"


def test_cli_explain_without_analyze(capsys):
    from repro.__main__ import main

    rc = main(["explain", "--query", "Q3", "--scale", "0.001", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Scan(orders AS o)" in captured.out
    # Every plan line says how many of its columns the engine keeps.
    plan_lines = [line for line in captured.out.splitlines() if "[" in line]
    assert plan_lines and all("]  cols " in line for line in plan_lines)
    assert any(
        line.endswith("Scan(lineitem AS l) [pref, dup=0]  cols 4/17")
        for line in plan_lines
    )
