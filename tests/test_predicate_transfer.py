"""Predicate transfer: observation equivalence, savings, and boundaries.

The knob must never change answers — only how many rows cross the wire.
These tests pin that equivalence against the single-node LocalExecutor
ground truth and across engine backends (equal canonical traces), then
check the savings actually materialise on a non-co-partitioned layout,
and that bad Bloom parameters are rejected at the construction boundary.
"""

from __future__ import annotations

import pytest

from helpers import assert_same_rows
from repro.cluster import SimulatedCluster
from repro.engine.backends import make_backend
from repro.query import ExecOptions, Executor, LocalExecutor, Query
from repro.query.expressions import col, lit

TRANSFER_ON = ExecOptions(predicate_transfer=True)


def _plans():
    """Query shapes covering every join kind the scheduler touches."""
    c = Query.scan("customer", alias="c")
    o = Query.scan("orders", alias="o")
    l = Query.scan("lineitem", alias="l")  # noqa: E741
    count = [("count", None, "cnt")]
    yield "chain inner", (
        c.where(col("c.custkey") < lit(5))
        .join(o, on=[("c.custkey", "o.custkey")])
        .join(l, on=[("o.orderkey", "l.orderkey")])
        .aggregate(group_by=["c.cname"], aggregates=[("sum", col("l.qty"), "q")])
        .plan()
    )
    yield "semi", (
        c.semi_join(
            o.where(col("o.total") > lit(60.0)), on=[("c.custkey", "o.custkey")]
        )
        .aggregate(aggregates=count)
        .plan()
    )
    yield "anti", (
        c.anti_join(o, on=[("c.custkey", "o.custkey")])
        .aggregate(aggregates=count)
        .plan()
    )
    yield "left outer", (
        c.left_join(
            o.where(col("o.total") > lit(50.0)), on=[("c.custkey", "o.custkey")]
        )
        .aggregate(group_by=["c.cname"], aggregates=count)
        .plan()
    )
    yield "ordered", (
        c.join(o, on=[("c.custkey", "o.custkey")])
        .aggregate(group_by=["c.cname"], aggregates=[("sum", col("o.total"), "t")])
        .order_by([("t", "desc"), ("c.cname", "asc")], limit=5)
        .plan()
    )


class TestObservationEquivalence:
    @pytest.mark.parametrize("fixture", ["shop_hashed", "shop_pref", "shop_ref"])
    def test_knob_preserves_answers(self, fixture, shop_db, request):
        partitioned, _config = request.getfixturevalue(fixture)
        for name, plan in _plans():
            truth = LocalExecutor(shop_db).execute(plan).rows
            off = Executor(partitioned).execute(plan).rows
            on = Executor(partitioned, TRANSFER_ON).execute(plan).rows
            if name == "ordered":  # order-sensitive output
                assert off == on == truth, name
            else:
                assert_same_rows(off, truth)
                assert_same_rows(on, truth)

    def test_canonical_traces_equal_across_backends(self, shop_hashed):
        partitioned, _config = shop_hashed
        _name, plan = next(_plans())
        canonicals = {}
        for spec in ("serial", "thread", "process"):
            backend = make_backend(spec)
            try:
                executor = Executor(partitioned, TRANSFER_ON, backend=backend)
                result = executor.execute(plan, analyze=True)
            finally:
                backend.close()
            canonicals[spec] = result.trace.canonical()
        assert canonicals["serial"] == canonicals["thread"]
        assert canonicals["serial"] == canonicals["process"]

    def test_knob_off_leaves_trace_bloom_free(self, shop_hashed):
        partitioned, _config = shop_hashed
        _name, plan = next(_plans())
        result = Executor(partitioned).execute(plan, analyze=True)
        for span in result.trace.spans():
            assert span.name != "bloom_probe"
            assert span.bloom_filters == 0
            assert span.bloom_probed == 0


class TestSavings:
    def test_bytes_shuffled_drop_on_hashed_layout(self, shop_hashed):
        partitioned, _config = shop_hashed
        plan = dict(_plans())["chain inner"]
        off = Executor(partitioned).execute(plan)
        on = Executor(partitioned, TRANSFER_ON).execute(plan)
        assert_same_rows(on.rows, off.rows)
        assert on.stats.network_bytes < off.stats.network_bytes
        assert on.stats.rows_shipped < off.stats.rows_shipped

    def test_pruning_shows_in_trace_and_explain(self, shop_hashed):
        partitioned, _config = shop_hashed
        plan = dict(_plans())["chain inner"]
        executor = Executor(partitioned, TRANSFER_ON)
        assert "bloom" in executor.explain(plan).lower()
        result = executor.execute(plan, analyze=True)
        probes = [s for s in result.trace.spans() if s.name == "bloom_probe"]
        assert probes, "no BloomProbe span on a prunable hashed join"
        assert any(s.bloom_pruned > 0 for s in probes)
        assert all(s.bloom_filters > 0 for s in probes)
        assert all(s.bloom_probed >= s.bloom_pruned for s in probes)
        assert "bloom_pruned=" in result.explain_analyze()

    def test_trace_json_schema_still_validates(self, shop_hashed):
        from repro.obs.explain import trace_to_json, validate_trace

        partitioned, _config = shop_hashed
        plan = dict(_plans())["chain inner"]
        result = Executor(partitioned, TRANSFER_ON).execute(plan, analyze=True)
        assert validate_trace(trace_to_json(result.trace)) == []


class TestParameterBoundary:
    @pytest.mark.parametrize("fpr", [0.0, 1.0, -0.1, 2.0, float("nan"), float("inf")])
    def test_executor_rejects_bad_fpr(self, shop_hashed, fpr):
        partitioned, _config = shop_hashed
        with pytest.raises(ValueError, match="bloom_fpr"):
            Executor(partitioned, ExecOptions(predicate_transfer=True, bloom_fpr=fpr))

    def test_cluster_rejects_bad_fpr(self, shop_db, shop_hashed):
        partitioned, config = shop_hashed
        with pytest.raises(ValueError, match="bloom_fpr"):
            SimulatedCluster(
                shop_db.schema, partitioned, config, backend="serial",
                options=ExecOptions(bloom_fpr=0.0),
            )

    def test_cli_rejects_bad_fpr(self):
        from repro.__main__ import explain_main

        with pytest.raises(ValueError, match="bloom_fpr"):
            explain_main(
                [
                    "--query", "Q6", "--scale", "0.001",
                    "--predicate-transfer", "--bloom-fpr", "0",
                ]
            )
