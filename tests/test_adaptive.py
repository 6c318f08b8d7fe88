"""Patched-PREF placement, adaptive detection, and online repartitioning."""

from __future__ import annotations

import pytest

from helpers import (
    all_hashed_config,
    assert_same_rows,
    patched_shop_config,
    pref_chain_config,
    ref_chain_config,
    shop_database,
)
from repro.catalog import DatabaseSchema, DataType
from repro.cluster import SimulatedCluster
from repro.errors import InvalidConfigurationError, PartitioningError
from repro.partitioning import (
    AdaptiveReport,
    AdaptiveThresholds,
    BulkLoader,
    HashScheme,
    InvariantViolation,
    JoinPredicate,
    PartitioningConfig,
    PatchedPrefScheme,
    PrefScheme,
    ReplicatedScheme,
    TableHotspot,
    check_pref_invariants,
    detect_hotspots,
    partition_database,
    recommend_patched_pref,
)
from repro.storage import Database


def mini_schema() -> DatabaseSchema:
    schema = DatabaseSchema()
    schema.create_table(
        "s",
        [("sk", DataType.INTEGER), ("grp", DataType.INTEGER)],
        primary_key=["sk"],
    )
    schema.create_table(
        "r",
        [("rk", DataType.INTEGER), ("grp", DataType.INTEGER)],
        primary_key=["rk"],
    )
    return schema


def mini_database() -> Database:
    """r references s on a non-unique group key.

    Every group has three ``s`` rows scattered by the hash on ``sk``, so
    most ``r`` tuples have more than one partner partition; ``r`` also
    carries an orphan (grp 99) and a NULL-key row.
    """
    database = Database(mini_schema())
    database.load("s", [(sk, sk % 4) for sk in range(12)])
    rows = [(rk, rk % 4) for rk in range(20)]
    rows.append((20, 99))
    rows.append((21, None))
    database.load("r", rows)
    return database


def mini_config(n: int = 4, max_copies: int | None = 1) -> PartitioningConfig:
    config = PartitioningConfig(n)
    config.add("s", HashScheme(("sk",), n))
    predicate = JoinPredicate.equi("r", "grp", "s", "grp")
    if max_copies is None:
        config.add("r", PrefScheme("s", predicate))
    else:
        config.add(
            "r", PatchedPrefScheme("s", predicate, max_copies=max_copies)
        )
    return config


def _copies_of(table) -> dict[int, set[int]]:
    copies: dict[int, set[int]] = {}
    for partition in table.partitions:
        for source_id in partition.source_ids:
            copies.setdefault(source_id, set()).add(partition.partition_id)
    return copies


def plain_shop_config(n: int = 4) -> PartitioningConfig:
    config = PartitioningConfig(n)
    config.add("lineitem", HashScheme(("linekey",), n))
    config.add(
        "orders",
        PrefScheme(
            "lineitem",
            JoinPredicate.equi("orders", "orderkey", "lineitem", "orderkey"),
        ),
    )
    config.add("customer", HashScheme(("custkey",), n))
    config.add("item", HashScheme(("itemkey",), n))
    config.add("nation", ReplicatedScheme(n))
    return config


class TestPatchedPlacement:
    def test_max_copies_validated(self):
        with pytest.raises(PartitioningError):
            PatchedPrefScheme(
                "s", JoinPredicate.equi("r", "grp", "s", "grp"), max_copies=0
            )

    def test_cap_binds_and_invariants_hold(self):
        partitioned = partition_database(mini_database(), mini_config())
        check_pref_invariants(partitioned, mini_config(), exact=True)
        r = partitioned.table("r")
        assert r.patch_count > 0
        assert max(r.stored_copy_counts().values()) == 1

    def test_stored_plus_patched_equals_plain_pref_placement(self):
        """The capped layout covers exactly the partitions plain PREF
        stores into: overflow moved to the patch lists, nothing lost."""
        database = mini_database()
        plain = partition_database(database, mini_config(max_copies=None))
        patched = partition_database(database, mini_config(max_copies=1))
        plain_copies = _copies_of(plain.table("r"))
        patched_r = patched.table("r")
        patched_copies = _copies_of(patched_r)
        assert plain_copies.keys() == patched_copies.keys()
        for source_id, expected in plain_copies.items():
            stored = patched_copies[source_id]
            combined = stored | set(patched_r.patch_partitions_of(source_id))
            assert combined == expected
            assert len(stored) <= 1

    def test_null_key_row_never_patched(self):
        partitioned = partition_database(mini_database(), mini_config())
        r = partitioned.table("r")
        for partition in r.partitions:
            for index, row in enumerate(partition.rows):
                if row[1] is None:
                    assert not partition.has_partner[index]
                    assert not partition.dup[index]
                    source_id = partition.source_ids[index]
                    assert not r.patch_partitions_of(source_id)
        assert all(
            row[1] is not None
            for entries in r.patches.values()
            for row, _source in entries
        )

    def test_chained_pref_onto_patched_table_rejected(self):
        config = mini_config()
        config.add(
            "t", PrefScheme("r", JoinPredicate.equi("t", "grp", "r", "grp"))
        )
        schema = mini_schema()
        schema.create_table(
            "t",
            [("tk", DataType.INTEGER), ("grp", DataType.INTEGER)],
            primary_key=["tk"],
        )
        with pytest.raises(InvalidConfigurationError, match="patched"):
            config.validate(schema)


class TestPatchedInvariantTeeth:
    def test_plain_placement_fails_patched_cap(self):
        """A layout that stores more copies than ``max_copies`` is caught
        when checked against the patched configuration."""
        database = mini_database()
        plain = partition_database(database, mini_config(max_copies=None))
        with pytest.raises(InvariantViolation, match="max_copies"):
            check_pref_invariants(plain, mini_config(max_copies=1))

    def test_dropped_patch_entry_detected(self):
        partitioned = partition_database(mini_database(), mini_config())
        r = partitioned.table("r")
        patches = {
            pid: list(entries) for pid, entries in r.patches.items()
        }
        pid = next(iter(patches))
        patches[pid] = patches[pid][1:]
        r.replace_patches(patches)
        with pytest.raises(InvariantViolation, match="missing from"):
            check_pref_invariants(partitioned, mini_config())

    def test_stored_and_patched_double_placement_detected(self):
        partitioned = partition_database(mini_database(), mini_config())
        r = partitioned.table("r")
        partition = next(p for p in r.partitions if p.rows)
        source_id = partition.source_ids[0]
        r.add_patch(
            partition.partition_id, tuple(partition.rows[0]), source_id
        )
        with pytest.raises(InvariantViolation, match="both stored in"):
            check_pref_invariants(partitioned, mini_config())

    def test_partnerless_duplicate_still_fails(self):
        """The patched relaxations must not mask the core rule: a
        genuinely partner-less non-patch tuple stored twice is still a
        violation."""
        partitioned = partition_database(mini_database(), mini_config())
        r = partitioned.table("r")
        home = next(
            p
            for p in r.partitions
            for row in p.rows
            if tuple(row) == (20, 99)
        )
        index = [tuple(row) for row in home.rows].index((20, 99))
        source_id = home.source_ids[index]
        other = r.partitions[(home.partition_id + 1) % r.partition_count]
        other.append((20, 99), source_id, duplicate=True, has_partner=False)
        with pytest.raises(InvariantViolation, match="expected exactly 1"):
            check_pref_invariants(partitioned, mini_config())

    def test_partnerless_patch_entry_detected(self):
        partitioned = partition_database(mini_database(), mini_config())
        r = partitioned.table("r")
        home = next(
            p
            for p in r.partitions
            for row in p.rows
            if tuple(row) == (20, 99)
        )
        index = [tuple(row) for row in home.rows].index((20, 99))
        source_id = home.source_ids[index]
        target = (home.partition_id + 1) % r.partition_count
        r.add_patch(target, (20, 99), source_id)
        with pytest.raises(InvariantViolation, match="partner-less"):
            check_pref_invariants(partitioned, mini_config())


EQUIVALENCE_QUERIES = (
    "SELECT COUNT(*) AS n FROM orders o",
    "SELECT SUM(o.total) AS t FROM orders o",
    (
        "SELECT o.orderkey, SUM(l.qty) AS q FROM orders o "
        "JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.orderkey"
    ),
    (
        "SELECT COUNT(*) AS n FROM orders o "
        "JOIN lineitem l ON o.orderkey = l.orderkey WHERE o.total > 50.0"
    ),
    (
        "SELECT c.cname, COUNT(*) AS n FROM customer c "
        "JOIN orders o ON c.custkey = o.custkey GROUP BY c.cname"
    ),
)


class TestPatchedQueryEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_patched_matches_hashed_ground_truth(self, shop_db, backend):
        truth = SimulatedCluster.partition(shop_db, all_hashed_config(4))
        patched = SimulatedCluster.partition(
            shop_db, patched_shop_config(), backend=backend
        )
        try:
            assert patched.partitioned.table("orders").patch_count > 0
            for sql in EQUIVALENCE_QUERIES:
                assert_same_rows(
                    patched.sql(sql).rows, truth.sql(sql).rows
                )
        finally:
            truth.close()
            patched.close()

    def test_patched_matches_plain_pref(self, shop_db):
        plain = SimulatedCluster.partition(shop_db, plain_shop_config())
        patched = SimulatedCluster.partition(shop_db, patched_shop_config())
        try:
            for sql in EQUIVALENCE_QUERIES:
                assert_same_rows(
                    patched.sql(sql).rows, plain.sql(sql).rows
                )
        finally:
            plain.close()
            patched.close()

    def test_explain_analyze_accounts_patch_rows(self, shop_db):
        cluster = SimulatedCluster.partition(shop_db, patched_shop_config())
        try:
            sql = EQUIVALENCE_QUERIES[2]
            result = cluster.sql(sql, analyze=True)
            text = result.explain_analyze()
            assert "patch_shipped=" in text
            shipped = int(
                result.trace.metrics.counter("engine.rows.patch_shipped")
            )
            assert shipped == cluster.partitioned.table("orders").patch_count
        finally:
            cluster.close()

    def test_incremental_loads_respect_cap(self, shop_db):
        """Inserts into both sides of the patched reference keep the cap
        and the invariants: referencing overflow is patched directly, and
        propagation patches instead of over-duplicating."""
        database = shop_database(seed=7)
        config = patched_shop_config()
        partitioned = partition_database(database, config)
        loader = BulkLoader(partitioned, config)
        # New orders joining existing (scattered) lineitems overflow.
        loader.insert("orders", [(900 + k, k % 20, 1.0 * k) for k in range(8)])
        # New lineitems for existing orders force propagation.
        loader.insert(
            "lineitem",
            [(900 + k, k % 60, k % 15, 1 + k % 9) for k in range(30)],
        )
        check_pref_invariants(partitioned, config)
        orders = partitioned.table("orders")
        assert max(orders.stored_copy_counts().values()) <= 1
        removed = loader.delete("orders", lambda row: row[0] >= 900)
        assert removed == 8
        check_pref_invariants(partitioned, config)
        touched = loader.update(
            "orders",
            lambda row: row[0] % 2 == 0,
            lambda row: (row[0], row[1], row[2] + 1.0),
        )
        assert touched > 0
        check_pref_invariants(partitioned, config)


class TestDetector:
    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            AdaptiveThresholds(remote_fraction=1.5)
        with pytest.raises(ValueError):
            AdaptiveThresholds(skew=0.5)
        with pytest.raises(ValueError):
            AdaptiveThresholds(min_rows=-1)

    def test_flags_shuffled_join_side_with_partner(self, shop_db):
        cluster = SimulatedCluster.partition(shop_db, all_hashed_config(4))
        try:
            result = cluster.sql(
                "SELECT COUNT(*) AS n FROM orders o "
                "JOIN lineitem l ON o.orderkey = l.orderkey",
                analyze=True,
            )
        finally:
            cluster.close()
        report = detect_hotspots(
            [result.trace],
            AdaptiveThresholds(remote_fraction=0.05, skew=1.1, min_rows=10),
        )
        hotspot = report.hotspot("lineitem")
        assert hotspot is not None
        assert hotspot.shipped_rows > 0
        assert any("remote fraction" in reason for reason in hotspot.reasons)
        assert hotspot.partner_table == "orders"
        assert hotspot.join_columns == ("orderkey",)
        assert hotspot.partner_columns == ("orderkey",)
        assert "lineitem" in report.measurements

    def test_quiet_workload_flags_nothing(self, shop_db):
        cluster = SimulatedCluster.partition(shop_db, all_hashed_config(4))
        try:
            result = cluster.sql(
                "SELECT COUNT(*) AS n FROM orders o", analyze=True
            )
        finally:
            cluster.close()
        report = detect_hotspots([result.trace])
        assert report.hotspots == ()

    def test_min_rows_gates_small_tables(self, shop_db):
        cluster = SimulatedCluster.partition(shop_db, all_hashed_config(4))
        try:
            result = cluster.sql(
                "SELECT COUNT(*) AS n FROM orders o "
                "JOIN lineitem l ON o.orderkey = l.orderkey",
                analyze=True,
            )
        finally:
            cluster.close()
        report = detect_hotspots(
            [result.trace],
            AdaptiveThresholds(
                remote_fraction=0.05, skew=1.1, min_rows=10**6
            ),
        )
        assert report.hotspots == ()


class TestRecommendation:
    def _hotspot(self, table, partner, columns=("orderkey",)):
        return TableHotspot(
            table=table,
            scanned_rows=1000,
            shipped_rows=900,
            remote_fraction=0.9,
            skew=1.0,
            reasons=("remote fraction 0.90 > 0.10",),
            join_columns=columns,
            partner_table=partner,
            partner_columns=columns,
        )

    def test_recommends_patched_pref_for_hot_join(self, shop_db):
        cluster = SimulatedCluster.partition(shop_db, all_hashed_config(4))
        try:
            result = cluster.sql(
                "SELECT COUNT(*) AS n FROM orders o "
                "JOIN lineitem l ON o.orderkey = l.orderkey",
                analyze=True,
            )
            report = detect_hotspots(
                [result.trace],
                AdaptiveThresholds(
                    remote_fraction=0.05, skew=1.1, min_rows=10
                ),
            )
            recommended = recommend_patched_pref(
                cluster.config, shop_db.schema, report, max_copies=2
            )
        finally:
            cluster.close()
        assert recommended is not None
        scheme = recommended.scheme_of("lineitem")
        assert isinstance(scheme, PatchedPrefScheme)
        assert scheme.referenced_table == "orders"
        assert scheme.max_copies == 2
        recommended.validate(shop_db.schema)
        # Every other table keeps its original scheme.
        for table, original in all_hashed_config(4):
            if table != "lineitem":
                assert recommended.scheme_of(table) == original

    def test_no_partner_no_recommendation(self, shop_db):
        report = AdaptiveReport(
            hotspots=(self._hotspot("lineitem", None),)
        )
        assert (
            recommend_patched_pref(
                all_hashed_config(4), shop_db.schema, report
            )
            is None
        )

    def test_referenced_table_is_not_patched(self, shop_db):
        """A table that others PREF-reference must keep full coverage."""
        config = PartitioningConfig(4)
        config.add("customer", HashScheme(("custkey",), 4))
        config.add("orders", HashScheme(("orderkey",), 4))
        config.add(
            "lineitem",
            PrefScheme(
                "orders",
                JoinPredicate.equi(
                    "lineitem", "orderkey", "orders", "orderkey"
                ),
            ),
        )
        report = AdaptiveReport(
            hotspots=(self._hotspot("orders", "customer", ("custkey",)),)
        )
        assert (
            recommend_patched_pref(config, shop_db.schema, report) is None
        )

    def test_replicated_partner_rejected(self, shop_db):
        config = PartitioningConfig(4)
        config.add("orders", HashScheme(("orderkey",), 4))
        config.add("nation", ReplicatedScheme(4))
        report = AdaptiveReport(
            hotspots=(self._hotspot("orders", "nation", ("custkey",)),)
        )
        assert (
            recommend_patched_pref(config, shop_db.schema, report) is None
        )


class TestOnlineRepartition:
    def test_repartition_preserves_answers_and_invariants(self, shop_db):
        sql = (
            "SELECT o.orderkey, SUM(l.qty) AS q FROM orders o "
            "JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.orderkey"
        )
        cluster = SimulatedCluster.partition(
            shop_database(seed=7), all_hashed_config(4)
        )
        try:
            cluster.loader.insert("orders", [(950, 3, 12.5)])
            before = cluster.sql(sql).rows
            new_config = patched_shop_config()
            plan = cluster.repartition(new_config)
            assert plan.copies_moved > 0
            assert cluster.config is new_config
            # The store is the only copy of the data, so the new layout
            # carries the post-partitioning insert and must serve it.
            assert_same_rows(cluster.sql(sql).rows, before)
            assert (950,) in {
                (row[0],)
                for row in cluster.partitioned.table("orders").canonical_rows()
            }
            check_pref_invariants(
                cluster.partitioned, new_config, exact=True
            )
            assert cluster.partitioned.table("orders").patch_count > 0
        finally:
            cluster.close()

    def test_insert_after_partitioning_survives_repartition(self):
        cluster = SimulatedCluster.partition(
            shop_database(seed=7), pref_chain_config(4)
        )
        try:
            # A new order for an existing customer, with one lineitem.
            cluster.loader.load(
                {"lineitem": [(900, 950, 2, 3)], "orders": [(950, 3, 12.5)]}
            )
            cluster.repartition(ref_chain_config(4))
            assert cluster.sql(
                "SELECT o.orderkey, c.cname, l.qty FROM orders o "
                "JOIN customer c ON o.custkey = c.custkey "
                "JOIN lineitem l ON o.orderkey = l.orderkey "
                "WHERE o.orderkey = 950"
            ).rows == [(950, "cust3", 3)]
            check_pref_invariants(
                cluster.partitioned, cluster.config, exact=True
            )
        finally:
            cluster.close()

    def test_repartition_onto_a_table_the_store_lacks_changes_nothing(self):
        partial = PartitioningConfig(4)
        partial.add("orders", HashScheme(("orderkey",), 4))
        cluster = SimulatedCluster.partition(shop_database(seed=7), partial)
        try:
            kept = (
                cluster.partitioned, cluster.config,
                cluster.executor, cluster.loader,
            )
            with pytest.raises(PartitioningError, match="'customer'"):
                cluster.repartition(all_hashed_config(4))
            assert kept == (
                cluster.partitioned, cluster.config,
                cluster.executor, cluster.loader,
            )
            assert cluster.sql("SELECT COUNT(*) AS n FROM orders o").rows == [
                (60,)
            ]
        finally:
            cluster.close()

    def test_repartition_across_cluster_sizes(self, shop_db):
        cluster = SimulatedCluster.partition(
            shop_database(seed=7), all_hashed_config(4)
        )
        try:
            count_before = cluster.sql(
                "SELECT COUNT(*) AS n FROM orders o"
            ).rows
            plan = cluster.repartition(all_hashed_config(6))
            assert cluster.node_count == 6
            assert len(plan.bytes_moved_by_node) == 6
            assert (
                cluster.sql("SELECT COUNT(*) AS n FROM orders o").rows
                == count_before
            )
        finally:
            cluster.close()
