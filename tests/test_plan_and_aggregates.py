"""Tests for plan nodes, the builder, and aggregate accumulators."""

import pytest

from repro.errors import ExecutionError, PlanningError
from repro.query import Query
from repro.query.aggregates import (
    aggregate_function,
    make_accumulator,
    state_bytes,
)
from repro.query.expressions import col, lit
from repro.query.plan import (
    Aggregate,
    AggregateSpec,
    Join,
    JoinKind,
    Scan,
)


class TestPlanNodes:
    def test_scan_alias(self):
        assert Scan("orders").name == "orders"
        assert Scan("orders", "o").name == "o"

    def test_join_validation(self):
        with pytest.raises(PlanningError):
            Join(Scan("a"), Scan("b"), (("x", "y"),), JoinKind.CROSS)
        with pytest.raises(PlanningError):
            Join(Scan("a"), Scan("b"), (), JoinKind.INNER)

    def test_join_key_accessors(self):
        join = Join(Scan("a"), Scan("b"), (("a.x", "b.y"), ("a.z", "b.w")))
        assert join.left_keys == ("a.x", "a.z")
        assert join.right_keys == ("b.y", "b.w")

    def test_aggregate_validation(self):
        with pytest.raises(PlanningError):
            Aggregate(Scan("a"), (), ())
        with pytest.raises(PlanningError):
            Aggregate(
                Scan("a"),
                (),
                (
                    AggregateSpec("sum", col("x"), "dup"),
                    AggregateSpec("count", None, "dup"),
                ),
            )

    def test_aggregate_spec_validation(self):
        with pytest.raises(PlanningError):
            AggregateSpec("median", col("x"), "m")
        with pytest.raises(PlanningError):
            AggregateSpec("sum", None, "s")

    def test_walk_and_explain(self):
        plan = (
            Query.scan("orders", alias="o")
            .where(col("o.total") > lit(1))
            .join(Query.scan("customer", alias="c"), on=[("o.custkey", "c.custkey")])
            .aggregate(group_by=["c.cname"], aggregates=[("count", None, "n")])
            .plan()
        )
        kinds = [type(node).__name__ for node in plan.walk()]
        assert kinds[0] == "Aggregate"
        assert "Join" in kinds and "Filter" in kinds
        text = plan.explain()
        assert "Scan(orders AS o)" in text
        assert "Aggregate" in text


class TestBuilder:
    def test_select_accepts_bare_names(self):
        plan = Query.scan("orders", alias="o").select(["o.custkey"]).plan()
        assert plan.outputs[0][0] == "custkey"

    def test_order_by_normalisation(self):
        plan = Query.scan("orders").order_by(["custkey", ("total", False)]).plan()
        assert plan.keys == (("custkey", True), ("total", False))

    def test_join_helpers(self):
        o, c = Query.scan("orders", alias="o"), Query.scan("customer", alias="c")
        assert o.semi_join(c, on=[("o.custkey", "c.custkey")]).plan().kind is JoinKind.SEMI
        assert o.anti_join(c, on=[("o.custkey", "c.custkey")]).plan().kind is JoinKind.ANTI
        assert o.left_join(c, on=[("o.custkey", "c.custkey")]).plan().kind is JoinKind.LEFT_OUTER
        assert o.cross_join(c).plan().kind is JoinKind.CROSS


class TestAccumulators:
    def test_sum(self):
        acc = make_accumulator("sum")
        acc.add(1)
        acc.add(None)
        acc.add(2.5)
        assert acc.result() == 3.5

    def test_sum_empty_is_null(self):
        assert make_accumulator("sum").result() is None

    def test_count_ignores_nulls(self):
        acc = make_accumulator("count")
        acc.add(1)
        acc.add(None)
        acc.add("x")
        assert acc.result() == 2

    def test_avg(self):
        acc = make_accumulator("avg")
        for value in (2, 4, None, 6):
            acc.add(value)
        assert acc.result() == 4.0
        assert make_accumulator("avg").result() is None

    def test_min_max(self):
        low, high = make_accumulator("min"), make_accumulator("max")
        for value in (5, None, 1, 9):
            low.add(value)
            high.add(value)
        assert low.result() == 1
        assert high.result() == 9

    def test_count_distinct(self):
        acc = make_accumulator("count_distinct")
        for value in (1, 2, 2, None, 1):
            acc.add(value)
        assert acc.result() == 2

    def test_merge_states(self):
        # Two partitions' partial states for one group, merged by the
        # kernel's by-row fold over their concatenation.
        for func, values_a, values_b, expected in [
            ("sum", [1, 2], [3], 6),
            ("count", [1, 2], [3], 3),
            ("avg", [2], [4, 6], 4.0),
            ("min", [5], [1], 1),
            ("max", [5], [9], 9),
            ("count_distinct", [1, 2], [2, 3], 3),
        ]:
            function = aggregate_function(func)
            shipped = [
                function.fold(values, range(len(values)))
                for values in (values_a, values_b)
            ]
            merged = function.merge_rows([0, 0], shipped, 1)
            assert function.result(merged) == [expected], func

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            make_accumulator("median")

    def test_state_bytes_positive(self):
        for func in ("sum", "count", "avg", "min", "max"):
            assert aggregate_function(func).width > 0
        distinct = aggregate_function("count_distinct")
        assert distinct.width is None  # data-sized: charged state by state
        assert state_bytes(distinct.fold((), ())) > 0
        assert state_bytes(distinct.fold([1, 2, None, 2], range(4))) == 16
