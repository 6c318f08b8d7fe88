"""Tests for the cost model and the runtime relation properties."""

import pytest

from repro.engine.context import ExecutionContext
from repro.query.cost import CostParameters, ExecutionStats
from repro.query.relation import (
    Method,
    PartInfo,
    RelProps,
    dup_column,
    has_column,
    is_hidden,
)


class _Op:
    """Stand-in for a physical operator: the recorder reads only these."""

    op_id = 0
    label = "op"


def recorded(node_count: int, record) -> ExecutionStats:
    """The totals a query derives after *record* ran against its context."""
    ctx = ExecutionContext(node_count)
    record(ctx, _Op())
    return ctx.finish()


class TestExecutionStats:
    def test_work_and_straggler(self):
        def record(ctx, op):
            ctx.add_work(op, 0, 100)
            ctx.add_work(op, 2, 300)

        stats = recorded(4, record)
        assert stats.max_node_work == 300
        assert stats.rows_processed == 400

    def test_simulated_seconds_components(self):
        params = CostParameters(
            cpu_tuple_seconds=1e-6,
            network_bandwidth_bytes=1e6,
            shuffle_latency_seconds=0.5,
            coordinator_overhead_seconds=0.25,
            row_scale=1.0,
        )

        def record(ctx, op):
            ctx.add_work(op, 0, 1_000_000)
            ctx.add_network(op, 2_000_000, 10)
            ctx.add_shuffle(op)

        stats = recorded(2, record)
        seconds = stats.simulated_seconds(params)
        # cpu 1s + network 2e6/(1e6*2 nodes)=1s + latency .5 + overhead .25
        assert seconds == pytest.approx(1.0 + 1.0 + 0.5 + 0.25)

    def test_row_scale_extrapolates(self):
        stats = ExecutionStats(2, node_work=[1000.0, 0.0])
        small = stats.simulated_seconds(CostParameters(row_scale=1))
        big = stats.simulated_seconds(CostParameters(row_scale=100))
        assert big > small

    def test_spill_penalty(self):
        params = CostParameters(
            cpu_tuple_seconds=1e-6,
            memory_rows_per_node=1000,
            spill_pass_factor=1.0,
            row_scale=1.0,
            coordinator_overhead_seconds=0.0,
            shuffle_latency_seconds=0.0,
        )
        stats = recorded(
            2, lambda ctx, op: ctx.add_join_event(op, 0, 3500, 500)
        )
        # 3 extra passes over (build + probe) = 12000 rows.
        assert stats.simulated_seconds(params) == pytest.approx(12_000e-6)

    def test_merge(self):
        def record(ctx, op):
            ctx.add_work(op, 1, 20)
            ctx.add_network(op, 100, 1)
            ctx.add_shuffle(op)
            ctx.add_join_event(op, 0, 5, 5)

        first = recorded(2, lambda ctx, op: ctx.add_work(op, 0, 10))
        first.merge(recorded(2, record))
        assert first.node_work == [10, 20]
        assert first.network_bytes == 100
        assert first.shuffle_count == 1
        assert len(first.join_events) == 1


class TestRelProps:
    def make_props(self):
        return RelProps(
            columns=("o.orderkey", "o.custkey", dup_column("o"), has_column("o")),
            origins=(("orders", "orderkey"), ("orders", "custkey"), None, None),
            widths=(4, 4, 1, 1),
            part=PartInfo(Method.PREF, 4, hash_columns=("o.custkey",)),
            governing=(dup_column("o"),),
            equivalences=(frozenset({"o.custkey", "c.custkey"}),),
        )

    def test_hidden_columns(self):
        props = self.make_props()
        assert props.visible_columns == ("o.orderkey", "o.custkey")
        assert is_hidden(dup_column("o"))
        assert is_hidden(has_column("o"))
        assert not is_hidden("o.orderkey")

    def test_dup_flag_follows_governing(self):
        props = self.make_props()
        assert props.dup
        from dataclasses import replace

        assert not replace(props, governing=()).dup

    def test_position_resolution(self):
        props = self.make_props()
        assert props.position("o.orderkey") == 0
        assert props.position("orderkey") == 0
        assert props.origin_of("custkey") == ("orders", "custkey")

    def test_same_value_via_equivalences(self):
        props = self.make_props()
        assert props.same_value("o.custkey", "o.custkey")
        # c.custkey is not a column of this relation, so resolution fails.
        from repro.errors import PlanningError

        with pytest.raises(PlanningError):
            props.same_value("o.custkey", "c.custkey")

    def test_row_bytes(self):
        assert self.make_props().row_bytes() == 10


class TestPartInfo:
    def test_rename_hash_columns(self):
        part = PartInfo(Method.HASHED, 4, hash_columns=("a", "b"))
        renamed = part.rename_hash_columns({"a": "x", "b": "y"})
        assert renamed.hash_columns == ("x", "y")

    def test_rename_dropping_column_degrades(self):
        part = PartInfo(Method.HASHED, 4, hash_columns=("a", "b"))
        degraded = part.rename_hash_columns({"a": "x"})
        assert degraded.method is Method.NONE
        assert degraded.hash_columns == ()

    def test_seed_keeps_anchors_on_drop(self):
        part = PartInfo(
            Method.SEED, 4, hash_columns=("a",), anchors=frozenset({"t"})
        )
        degraded = part.rename_hash_columns({})
        assert degraded.method is Method.SEED
        assert degraded.anchors == frozenset({"t"})
        assert degraded.hash_columns == ()

    def test_without_anchors(self):
        part = PartInfo(Method.SEED, 4, anchors=frozenset({"t"}))
        assert part.without_anchors().anchors == frozenset()
