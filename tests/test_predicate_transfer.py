"""Predicate transfer: observation equivalence, savings, and boundaries.

The knob must never change answers — only how many rows cross the wire.
These tests pin that equivalence against the single-node LocalExecutor
ground truth and across engine backends (equal canonical traces), then
check the savings actually materialise on a non-co-partitioned layout,
that an annotated plan carries no data (it stays right across writes),
and that a probe which keeps no filter is free.
"""

from __future__ import annotations

import pytest

from helpers import assert_same_rows
from repro.design.baselines import all_hashed
from repro.engine.backends import make_backend
from repro.partitioning import partition_database
from repro.partitioning.bulk_loader import BulkLoader
from repro.query import ExecOptions, Executor, LocalExecutor, Query
from repro.query.expressions import col, lit
from repro.sql import sql_to_plan

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
        for spec in ("serial", "thread"):
            backend = make_backend(spec)
            try:
                executor = Executor(partitioned, TRANSFER_ON, backend=backend)
                result = executor.execute(plan, analyze=True)
            finally:
                backend.close()
            canonicals[spec] = result.trace.canonical()
        assert canonicals["serial"] == canonicals["thread"]

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


class TestPlansCarryNoData:
    """The annotation is structural; filters are built from the rows the
    run itself scans."""

    SQL = (
        "SELECT COUNT(*) AS n FROM orders o JOIN customer c "
        "ON o.o_custkey = c.c_custkey WHERE c.c_acctbal > 9000"
    )

    def test_stale_annotation_answers_like_a_fresh_plan(self, small_tpch):
        """On the parent the annotation embedded a filter over the old
        customers, and re-executing it after the inserts lost the new
        order (one short of the fresh plan and of knob-off)."""
        config = all_hashed(small_tpch, 4)
        partitioned = partition_database(small_tpch, config)
        plan = sql_to_plan(self.SQL, small_tpch.schema)
        executor = Executor(partitioned, TRANSFER_ON)
        annotated = executor.annotate(plan)
        explained = annotated.explain()
        assert "BloomProbe" in explained
        ((before,),) = executor.execute_annotated(annotated).rows
        customers = small_tpch.table("customer").rows
        orders = small_tpch.table("orders").rows
        custkey = max(row[0] for row in customers) + 1
        orderkey = max(row[0] for row in orders) + 1
        loader = BulkLoader(partitioned, config)
        loader.insert(
            "customer", [(custkey, "Customer#new", 3, "BUILDING", 9500.0, "11-111")]
        )
        loader.insert("orders", [(orderkey, custkey, *orders[0][2:])])
        assert Executor(partitioned).execute(plan).rows == [(before + 1,)]
        assert executor.execute(plan).rows == [(before + 1,)]
        assert executor.execute_annotated(annotated).rows == [(before + 1,)]
        assert executor.annotate(plan).explain() == explained

    def test_probes_that_keep_no_filter_cost_nothing(self, tpch_stores):
        """Every order has line items and every line item an order, so
        neither filter prunes: the probes pass their input on, and the run
        is charged exactly what the knob-off run is."""
        partitioned = tpch_stores["all_hashed"]
        plan = (
            Query.scan("lineitem", alias="l")
            .join(
                Query.scan("orders", alias="o"),
                on=[("l.l_orderkey", "o.o_orderkey")],
            )
            .aggregate(aggregates=[("count", None, "n")])
            .plan()
        )
        off = Executor(partitioned).execute(plan)
        on = Executor(partitioned, TRANSFER_ON).execute(plan, analyze=True)
        probes = [s for s in on.trace.spans() if s.name == "bloom_probe"]
        assert len(probes) == 2
        for span in probes:
            assert span.bloom_filters == span.bloom_probed == 0
            assert span.network_bytes == span.total_work == 0
            assert span.rows_out == span.rows_in > 0
        assert on.rows == off.rows
        assert on.stats.canonical() == off.stats.canonical()
