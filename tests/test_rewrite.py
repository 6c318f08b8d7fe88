"""Tests for the Section 2.2 rewrite process: locality cases, Part/Dup."""

import pytest

from helpers import (
    all_hashed_config,
    assert_same_rows,
    pref_chain_config,
    ref_chain_config,
    shop_database,
)
from repro.partitioning import partition_database
from repro.query import Executor, Query, Rewriter
from repro.query.expressions import col, lit
from repro.query.local_executor import LocalExecutor
from repro.query.options import ExecOptions
from repro.query.plan import (
    DedupFilter,
    Join,
    JoinKind,
    PartnerFilter,
    Repartition,
    Scan,
)
from repro.query.relation import Method


def rewriter_for(database, config):
    return Rewriter(partition_database(database, config))


def count_nodes(annotated, node_type):
    return sum(isinstance(a.node, node_type) for a in annotated.walk())


class TestScanAnnotations:
    def test_hash_scan(self, shop_db):
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        annotated = rewriter.rewrite(Query.scan("lineitem", alias="l").plan())
        assert annotated.props.part.method is Method.SEED
        assert annotated.props.part.hash_columns == ("l.linekey",)
        assert not annotated.props.dup

    def test_pref_scan_has_hidden_columns_and_dup(self, shop_db):
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        annotated = rewriter.rewrite(Query.scan("orders", alias="o").plan())
        assert annotated.props.part.method is Method.PREF
        assert "__dup@o" in annotated.props.columns
        assert "__has@o" in annotated.props.columns
        assert annotated.props.dup  # orders has materialised duplicates
        assert annotated.props.part.seed_table == "lineitem"

    def test_pref_scan_without_duplicates_is_dup_free(self, shop_db):
        rewriter = rewriter_for(shop_db, ref_chain_config(4))
        annotated = rewriter.rewrite(Query.scan("orders", alias="o").plan())
        assert annotated.props.part.method is Method.PREF
        assert not annotated.props.dup

    def test_replicated_scan(self, shop_db):
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        annotated = rewriter.rewrite(Query.scan("nation", alias="n").plan())
        assert annotated.props.part.method is Method.REPLICATED

    def test_visible_columns_hide_bitmaps(self, shop_db):
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        annotated = rewriter.rewrite(Query.scan("orders", alias="o").plan())
        assert all(
            not column.startswith("__")
            for column in annotated.props.visible_columns
        )


class TestJoinLocality:
    def test_case2_seed_join_pref(self, shop_db):
        """lineitem (seed) JOIN orders (PREF by lineitem) -> no shuffle."""
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        plan = (
            Query.scan("lineitem", alias="l")
            .join(Query.scan("orders", alias="o"), on=[("l.orderkey", "o.orderkey")])
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        assert annotated.extra["case"] == "case2"
        assert count_nodes(annotated, Repartition) == 0
        assert not annotated.props.dup  # case 2 results are duplicate-free

    def test_case3_pref_join_pref(self, shop_db):
        """orders JOIN customer (PREF by orders) -> local, dup inherited."""
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        plan = (
            Query.scan("orders", alias="o")
            .join(Query.scan("customer", alias="c"), on=[("o.custkey", "c.custkey")])
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        assert annotated.extra["case"] == "case3"
        assert count_nodes(annotated, Repartition) == 0
        assert annotated.props.dup  # inherits the referenced side's dups

    def test_case1_both_hashed_on_key(self, shop_db):
        from repro.partitioning import HashScheme, PartitioningConfig

        config = PartitioningConfig(4)
        config.add("orders", HashScheme(("orderkey",), 4))
        config.add("lineitem", HashScheme(("orderkey",), 4))
        rewriter = rewriter_for(shop_db, config)
        plan = (
            Query.scan("lineitem", alias="l")
            .join(Query.scan("orders", alias="o"), on=[("l.orderkey", "o.orderkey")])
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        assert annotated.extra["case"] == "case1"
        assert count_nodes(annotated, Repartition) == 0

    def test_remote_join_requires_shuffles(self, shop_db):

        rewriter = rewriter_for(shop_db, all_hashed_config(4))
        plan = (
            Query.scan("lineitem", alias="l")
            .join(Query.scan("orders", alias="o"), on=[("l.orderkey", "o.orderkey")])
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        # lineitem hashed by linekey: only orders is already aligned.
        assert count_nodes(annotated, Repartition) == 1

    def test_replicated_side_joins_locally(self, shop_db):
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        plan = (
            Query.scan("customer", alias="c")
            .join(Query.scan("nation", alias="n"), on=[("c.nationkey", "n.nationkey")])
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        assert annotated.extra["case"] == "replicated_right"
        assert count_nodes(annotated, Repartition) == 0

    def test_effective_hash_enables_case1_across_chain(self):
        database = shop_database(seed=2, orphans=False)
        rewriter = rewriter_for(database, ref_chain_config(4))
        # orders is PREF by customer but effectively hashed on custkey, so
        # a join with customer on custkey is case 1... and also case 2;
        # either way it must be local.
        plan = (
            Query.scan("customer", alias="c")
            .join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        assert count_nodes(annotated, Repartition) == 0

    def test_chain_join_on_seed_placement(self, shop_db):
        """customer JOIN orders JOIN lineitem stays fully local (chain)."""
        rewriter = rewriter_for(shop_db, ref_chain_config(4))
        plan = (
            Query.scan("customer", alias="c")
            .join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
            .join(Query.scan("lineitem", alias="l"), on=[("o.orderkey", "l.orderkey")])
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        assert count_nodes(annotated, Repartition) == 0


class TestProjectionAndAggregation:
    def test_projection_over_dup_inserts_dedup(self, shop_db):
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        plan = Query.scan("orders", alias="o").select(["o.orderkey"]).plan()
        annotated = rewriter.rewrite(plan)
        assert count_nodes(annotated, DedupFilter) == 1

    def test_projection_over_clean_input_has_no_dedup(self, shop_db):
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        plan = Query.scan("lineitem", alias="l").select(["l.linekey"]).plan()
        annotated = rewriter.rewrite(plan)
        assert count_nodes(annotated, DedupFilter) == 0

    def test_group_by_partition_key_is_local(self, shop_db):
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        plan = (
            Query.scan("lineitem", alias="l")
            .aggregate(group_by=["l.linekey"], aggregates=[("sum", col("l.qty"), "q")])
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        assert annotated.extra["strategy"] == "local"

    def test_group_by_other_column_is_two_phase(self, shop_db):
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        plan = (
            Query.scan("lineitem", alias="l")
            .aggregate(group_by=["l.itemkey"], aggregates=[("sum", col("l.qty"), "q")])
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        assert annotated.extra["strategy"] == "two_phase"

    def test_aggregate_over_replicated_is_single_node(self, shop_db):
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        plan = (
            Query.scan("nation", alias="n")
            .aggregate(aggregates=[("count", None, "cnt")])
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        assert annotated.extra["strategy"] == "single"
        assert annotated.props.part.method is Method.GATHERED


class TestSemiAntiRewrites:
    def test_anti_join_becomes_partner_filter(self, shop_db):
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        plan = (
            Query.scan("customer", alias="c")
            .anti_join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        assert isinstance(annotated.node, PartnerFilter)
        assert annotated.node.expect is False

    def test_semi_join_becomes_partner_filter(self, shop_db):
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        plan = (
            Query.scan("customer", alias="c")
            .semi_join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        assert isinstance(annotated.node, PartnerFilter)
        assert annotated.node.expect is True

    def test_filtered_right_prevents_partner_filter(self, shop_db):
        rewriter = rewriter_for(shop_db, pref_chain_config(4))
        plan = (
            Query.scan("customer", alias="c")
            .semi_join(
                Query.scan("orders", alias="o").where(col("o.total") > lit(50.0)),
                on=[("c.custkey", "o.custkey")],
            )
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        assert not isinstance(annotated.node, PartnerFilter)

    def test_optimizations_flag_disables_partner_filter(self, shop_db):
        partitioned = partition_database(shop_db, pref_chain_config(4))
        rewriter = Rewriter(partitioned, optimizations=False)
        plan = (
            Query.scan("customer", alias="c")
            .anti_join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
            .plan()
        )
        annotated = rewriter.rewrite(plan)
        assert count_nodes(annotated, PartnerFilter) == 0


@pytest.mark.parametrize("kind", ["semi", "anti"])
@pytest.mark.parametrize("optimizations", [True, False])
@pytest.mark.parametrize("design", ["pref", "hashed"])
def test_residual_only_semi_anti_join_outputs_the_left_columns(
    design, optimizations, kind
):
    """A SEMI/ANTI join with no key pairs runs as a broadcast join whose
    output is its left input: the rewriter once declared the right
    input's columns too, and the gather failed with IndexError."""
    database = shop_database(seed=3)
    config = {"pref": pref_chain_config, "hashed": all_hashed_config}[design]
    plan = Join(
        Scan("customer", "c"),
        Scan("orders", "o"),
        on=(),
        kind=JoinKind(kind),
        residual=col("c.custkey") == col("o.custkey"),
    )
    executor = Executor(
        partition_database(database, config(4)),
        ExecOptions(optimizations=optimizations),
    )
    result = executor.execute(plan)
    expected = LocalExecutor(database).execute(plan)
    assert result.columns == expected.columns
    assert_same_rows(result.rows, expected.rows)
    assert len(result.rows) == {"semi": 18, "anti": 2}[kind]
