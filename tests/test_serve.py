"""The serving layer: normalisation, caches, epochs, admission, server.

Unit coverage for each serving component plus end-to-end server tests
over a small shop cluster.  The cache-staleness "teeth" tests stub out
the invalidation mechanism (the pre-feature behaviour) and assert the
stale answer actually diverges — proving epoch invalidation is the
load-bearing correctness mechanism, not redundant belt-and-braces.
"""

from __future__ import annotations

import pytest
from helpers import assert_same_rows, shop_database, shop_schema, store_state
from repro.cluster import SimulatedCluster
from repro.errors import (
    AdmissionError,
    BulkLoadError,
    QueryTimeoutError,
    SqlError,
)
from repro.obs.metrics import Histogram, LATENCY_BUCKETS
from repro.partitioning import (
    HashScheme,
    JoinPredicate,
    PartitioningConfig,
    PrefScheme,
    ReplicatedScheme,
)
from repro.query import Query
from repro.query.plan import referenced_tables
from repro.serve import (
    ClusterServer,
    EpochTracker,
    TableDependentCache,
    normalize_sql,
)


def _config(n: int = 4) -> PartitioningConfig:
    config = PartitioningConfig(n)
    config.add("orders", HashScheme(("orderkey",), n))
    config.add(
        "customer",
        PrefScheme(
            "orders",
            JoinPredicate.equi("customer", "custkey", "orders", "custkey"),
        ),
    )
    config.add(
        "lineitem",
        PrefScheme(
            "orders",
            JoinPredicate.equi("lineitem", "orderkey", "orders", "orderkey"),
        ),
    )
    config.add("item", HashScheme(("itemkey",), n))
    config.add("nation", ReplicatedScheme(n))
    return config


@pytest.fixture()
def server():
    cluster = SimulatedCluster.partition(
        shop_database(seed=3), _config(), backend="serial"
    )
    server = cluster.serve(max_inflight=2, queue_depth=64)
    yield server
    server.close()
    cluster.close()


class TestNormalizeSql:
    def test_whitespace_and_keyword_case_collapse(self):
        a = normalize_sql("SELECT  o.total FROM orders o\n WHERE o.total > 1")
        b = normalize_sql("select o.total from orders o where o.total > 1")
        assert a == b

    def test_identifier_case_is_significant(self):
        assert normalize_sql("SELECT a FROM t") != normalize_sql(
            "SELECT A FROM t"
        )

    def test_literals_are_significant(self):
        assert normalize_sql("SELECT a FROM t WHERE a > 1") != normalize_sql(
            "SELECT a FROM t WHERE a > 2"
        )

    def test_string_literals_requoted(self):
        # Inner whitespace of the literal survives; surrounding layout
        # collapses.
        assert (
            normalize_sql("SELECT a FROM t\n WHERE b='x  y'")
            == "select a from t where b = 'x  y'"
        )


class TestTableDependentCache:
    def test_lru_eviction_order(self):
        cache = TableDependentCache(2)
        cache.put("a", 1, frozenset({"t"}))
        cache.put("b", 2, frozenset({"t"}))
        assert cache.get("a") == 1  # refreshes a's recency
        cache.put("c", 3, frozenset({"t"}))  # evicts b, not a
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_invalidate_table_drops_only_dependents(self):
        cache = TableDependentCache(8)
        cache.put("q1", 1, frozenset({"orders", "customer"}))
        cache.put("q2", 2, frozenset({"item"}))
        dropped = cache.invalidate_table("orders")
        assert dropped == 1
        assert cache.get("q1") is None
        assert cache.get("q2") == 2
        assert cache.stats.invalidations == 1

    def test_zero_capacity_disables(self):
        cache = TableDependentCache(0)
        cache.put("a", 1, frozenset({"t"}))
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_replacement_reindexes_dependencies(self):
        cache = TableDependentCache(4)
        cache.put("q", 1, frozenset({"orders"}))
        cache.put("q", 2, frozenset({"item"}))  # same key, new deps
        assert cache.invalidate_table("orders") == 0
        assert cache.get("q") == 2
        assert cache.invalidate_table("item") == 1
        assert cache.get("q") is None


class TestEpochTracker:
    def test_closure_follows_pref_references(self):
        tracker = EpochTracker(_config())
        # customer and lineitem both PREF-reference orders: a write to
        # orders can propagate copies/hasS flips into both.
        assert tracker.closure("orders") == frozenset(
            {"orders", "customer", "lineitem"}
        )
        assert tracker.closure("item") == frozenset({"item"})

    def test_bump_advances_the_closure(self):
        tracker = EpochTracker(_config())
        affected = tracker.bump(["orders"])
        assert affected == frozenset({"orders", "customer", "lineitem"})
        assert tracker.current("customer") == 1
        assert tracker.current("item") == 0
        assert tracker.snapshot(["orders", "item"]) == {
            "orders": 1,
            "item": 0,
        }


class TestReferencedTables:
    def test_scan_leaves_collected(self):
        plan = (
            Query.scan("customer", alias="c")
            .join(
                Query.scan("orders", alias="o"),
                on=[("c.custkey", "o.custkey")],
            )
            .select(["c.cname"])
            .plan()
        )
        assert referenced_tables(plan) == frozenset({"customer", "orders"})


class TestHistogramQuantile:
    def test_quantiles_from_buckets(self):
        """Interpolated within the rank's bucket, whose bounds are narrowed
        to the smallest and largest sample."""
        histogram = Histogram("t", LATENCY_BUCKETS)
        for value in (0.0001, 0.0001, 0.0001, 0.2):
            histogram.observe(value)
        # Rank 2 of the 3 samples in (0, 0.0002], which starts at 0.0001.
        assert histogram.quantile(0.5) == pytest.approx(0.0001 + 0.0001 * 2 / 3)
        # Rank 3.96: 0.96 of the way through (0.1, 0.25], which ends at 0.2.
        assert histogram.quantile(0.99) == pytest.approx(0.1 + 0.1 * 0.96)
        assert histogram.quantile(1.0) == 0.2

    def test_p99_of_equal_samples_is_the_sample_not_the_bucket_bound(self):
        histogram = Histogram("t", LATENCY_BUCKETS)
        for _ in range(100):
            histogram.observe(0.003)
        # The sample's bucket is (2.5 ms, 5 ms]: the old estimate was 5 ms.
        assert histogram.counts[LATENCY_BUCKETS.index(0.005)] == 100
        assert histogram.quantile(0.99) == 0.003
        assert histogram.quantile(0.5) == 0.003

    def test_overflow_bucket_is_bounded_by_the_largest_sample(self):
        histogram = Histogram("t", (1.0, float("inf")))
        histogram.observe(50.0)
        assert histogram.quantile(0.99) == 50.0
        histogram.observe(10.0)
        assert histogram.quantile(0.5) == 10.0 + 40.0 * 0.5

    def test_observe_buckets_as_the_linear_scan_did(self):
        """``bisect_left``: a sample on a bound belongs to that bound's
        bucket, past the last finite bound to the open-ended one."""
        histogram = Histogram("t", (1.0, 8.0, float("inf")))
        for value in (0.0, 1.0, 1.5, 8.0, 8.000001, 1e9):
            histogram.observe(value)
        assert histogram.counts == [2, 2, 2]

    def test_min_and_max_merge_and_stay_out_of_canonical(self):
        left = Histogram("t", LATENCY_BUCKETS)
        right = Histogram("t", LATENCY_BUCKETS)
        left.observe(0.003)
        right.observe(0.004)
        right.observe(0.0041)
        left.merge(right)
        assert (left.min, left.max) == (0.003, 0.0041)
        assert left.quantile(1.0) == 0.0041
        # Same counts, other extremes: canonically the same histogram.
        other = Histogram("t", LATENCY_BUCKETS)
        for value in (0.0026, 0.0049, 0.005):
            other.observe(value)
        assert other.canonical() == left.canonical()
        assert set(left.as_dict()) == {"buckets", "counts", "count", "total"}

    def test_empty_and_invalid(self):
        histogram = Histogram("t", LATENCY_BUCKETS)
        assert histogram.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.quantile(0.0)


COUNT_SQL = "SELECT COUNT(*) AS n FROM orders o"
JOIN_SQL = (
    "SELECT c.cname, SUM(o.total) AS spent FROM customer c "
    "JOIN orders o ON c.custkey = o.custkey GROUP BY c.cname"
)


class TestClusterServer:
    def test_results_match_direct_execution(self, server):
        direct = server.cluster.sql(JOIN_SQL)
        served = server.execute(JOIN_SQL)
        assert served.columns == direct.columns
        assert_same_rows(served.rows, direct.rows)

    def test_result_cache_hit_and_metrics(self, server):
        first = server.execute(COUNT_SQL)
        ticket = server.submit("select count(*) AS n  from orders o")
        second = ticket.result()
        assert ticket.cache_hit == "result"
        assert second.rows == first.rows
        summary = server.metrics_summary()
        assert summary["result_cache"]["hits"] == 1
        assert summary["result_cache"]["hit_rate"] > 0
        assert summary["completed"] == 2
        assert summary["latency"]["count"] == 2

    def test_plan_cache_serves_changed_literals_separately(self, server):
        a = server.execute("SELECT COUNT(*) AS n FROM orders o WHERE o.total > 10")
        b = server.execute("SELECT COUNT(*) AS n FROM orders o WHERE o.total > 1000")
        assert a.rows[0][0] >= b.rows[0][0]
        assert server.plan_cache.stats.misses == 2

    def test_plan_cache_hit_after_result_invalidation(self, server):
        server.execute(COUNT_SQL)
        # Drop only the result cache: re-execution should reuse the plan.
        server.result_cache.clear()
        ticket = server.submit(COUNT_SQL)
        ticket.result()
        assert ticket.cache_hit == "plan"
        assert server.plan_cache.stats.hits == 1

    def test_cached_result_rows_are_private_copies(self, server):
        first = server.execute(COUNT_SQL)
        first.rows.append(("tampered",))
        second = server.execute(COUNT_SQL)
        assert ("tampered",) not in second.rows

    def test_write_invalidates_dependent_results(self, server):
        stale = server.execute(COUNT_SQL)
        server.insert("orders", [(9001, 1, 42.0)])
        fresh = server.execute(COUNT_SQL)
        assert fresh.rows[0][0] == stale.rows[0][0] + 1
        assert server.metrics_summary()["result_cache"]["invalidations"] >= 1

    def test_write_closure_invalidates_pref_referencers(self, server):
        customer_sql = (
            "SELECT COUNT(*) AS n FROM customer c WHERE c.custkey >= 0"
        )
        server.execute(customer_sql)
        assert len(server.result_cache) == 1
        # customer PREF-references orders: loading orders must drop the
        # customer-derived entry too (propagation can move copies).
        server.insert("orders", [(9002, 2, 1.0)])
        assert len(server.result_cache) == 0

    def test_load_of_a_misspelt_table_is_rejected_whole(self, server):
        tables = server.cluster.config.tables
        stored = store_state(server.cluster.partitioned)
        epochs = server.epochs.snapshot(tables)
        with pytest.raises(BulkLoadError, match="'order'"):
            server.load({"order": [(900, 1, 5.0)]})
        assert store_state(server.cluster.partitioned) == stored
        assert server.epochs.snapshot(tables) == epochs
        assert server.epochs.current("order") == 0

    def test_unrelated_table_entries_survive_writes(self, server):
        item_sql = "SELECT COUNT(*) AS n FROM item i"
        server.execute(item_sql)
        server.insert("orders", [(9003, 3, 1.0)])
        ticket = server.submit(item_sql)
        ticket.result()
        assert ticket.cache_hit == "result"

    def test_explain_passthrough_uncached(self, server):
        result = server.execute(f"EXPLAIN {COUNT_SQL}")
        assert result.columns == ("plan",)
        assert len(server.result_cache) == 0

    def test_analyze_bypasses_result_cache_but_carries_trace(self, server):
        server.execute(COUNT_SQL)
        analyzed = server.execute(COUNT_SQL, analyze=True)
        # The analyze run is never served from (or installed into) the
        # result cache: it must carry a real trace from a real execution.
        assert analyzed.trace is not None
        assert server.result_cache.stats.hits == 0

    def test_plan_node_submission(self, server):
        plan = (
            Query.scan("orders", alias="o")
            .aggregate(aggregates=[("count", None, "n")])
            .plan()
        )
        direct = server.cluster.run(plan)
        served = server.execute(plan)
        assert served.rows == direct.rows

    def test_sql_errors_propagate(self, server):
        with pytest.raises(SqlError):
            server.execute("SELECT * FROM nonexistent")
        assert server.metrics_summary()["errors"] == 1

    def test_closed_server_rejects(self, server):
        server.close()
        with pytest.raises(AdmissionError):
            server.submit(COUNT_SQL)

    def test_sessions_are_distinguishable(self, server):
        a = server.session("app-a")
        b = server.session("app-b")
        a.execute(COUNT_SQL)
        b.execute(COUNT_SQL)
        assert a.submitted == 1
        assert b.submitted == 1
        assert a.session_id != b.session_id


class TestAdmissionControl:
    def test_queue_overflow_rejected(self):
        cluster = SimulatedCluster.partition(
            shop_database(seed=3), _config(), backend="serial"
        )
        server = ClusterServer(cluster, max_inflight=1, queue_depth=1)
        # Not started: nothing drains the queue, so the second submit
        # must overflow the bounded queue deterministically.
        server._started = True  # pretend workers exist; none consume
        try:
            server.submit(COUNT_SQL)
            with pytest.raises(AdmissionError):
                server.submit(COUNT_SQL)
            assert (
                server.metrics_summary()["admission"]["rejected"] == 1
            )
        finally:
            server._started = False
            server.close()
            cluster.close()

    def test_deadline_expired_in_queue_rejected(self):
        cluster = SimulatedCluster.partition(
            shop_database(seed=3), _config(), backend="serial"
        )
        server = ClusterServer(
            cluster, max_inflight=1, queue_depth=8, queue_timeout=0.001
        )
        server._started = True  # hold the queue: no worker consumes yet
        ticket = server.submit(COUNT_SQL)
        import time

        time.sleep(0.05)  # let the deadline lapse while queued
        server._started = False
        server.start()  # now let workers drain it
        try:
            with pytest.raises(QueryTimeoutError):
                ticket.result(timeout=5)
            assert server.metrics_summary()["admission"]["timeouts"] == 1
        finally:
            server.close()
            cluster.close()

    def test_invalid_parameters_rejected(self):
        cluster = SimulatedCluster.partition(
            shop_database(seed=3), _config(), backend="serial"
        )
        try:
            with pytest.raises(ValueError):
                ClusterServer(cluster, max_inflight=0)
            with pytest.raises(ValueError):
                ClusterServer(cluster, queue_timeout=0)
        finally:
            cluster.close()


class TestRegressionHasTeeth:
    """Stub the invalidation mechanisms out and prove staleness appears."""

    def test_stale_result_cache_without_epoch_bump(self, monkeypatch):
        cluster = SimulatedCluster.partition(
            shop_database(seed=3), _config(), backend="serial"
        )
        server = cluster.serve(max_inflight=1)
        monkeypatch.setattr(
            ClusterServer, "_bump", lambda self, tables: frozenset()
        )
        try:
            before = server.execute(COUNT_SQL)
            server.insert("orders", [(9100, 1, 1.0)])
            stale = server.execute(COUNT_SQL)
            # The no-op-invalidation variant serves the stale count: the
            # newly loaded row is invisible.  This is exactly the bug the
            # epoch mechanism exists to prevent.
            assert stale.rows == before.rows
            fresh = cluster.sql(COUNT_SQL)
            assert fresh.rows[0][0] == before.rows[0][0] + 1
        finally:
            server.close()
            cluster.close()

    def test_epoch_bump_fixes_the_same_sequence(self):
        cluster = SimulatedCluster.partition(
            shop_database(seed=3), _config(), backend="serial"
        )
        server = cluster.serve(max_inflight=1)
        try:
            before = server.execute(COUNT_SQL)
            server.insert("orders", [(9100, 1, 1.0)])
            after = server.execute(COUNT_SQL)
            assert after.rows[0][0] == before.rows[0][0] + 1
        finally:
            server.close()
            cluster.close()


class TestServeMatchesFreshCluster:
    def test_cached_workload_equals_fresh_cluster_after_loads(self):
        """query -> cached -> bulk load -> re-query must equal a cluster
        built fresh from the final data (the serving-layer analogue of
        the partition-cache staleness tests)."""
        new_orders = [(9200, 1, 5.0), (9201, 2, 6.0)]
        cluster = SimulatedCluster.partition(
            shop_database(seed=3), _config(), backend="serial"
        )
        server = cluster.serve(max_inflight=2)
        try:
            server.execute(JOIN_SQL)  # warm both caches
            server.execute(COUNT_SQL)
            server.load({"orders": new_orders})
            served_join = server.execute(JOIN_SQL)
            served_count = server.execute(COUNT_SQL)
        finally:
            server.close()
            cluster.close()
        fresh_db = shop_database(seed=3)
        fresh_db.load("orders", new_orders)
        fresh = SimulatedCluster.partition(fresh_db, _config(), backend="serial")
        try:
            assert_same_rows(served_join.rows, fresh.sql(JOIN_SQL).rows)
            assert served_count.rows == fresh.sql(COUNT_SQL).rows
        finally:
            fresh.close()


def test_shop_schema_unchanged_guard():
    """The serve tests hand-write rows for the shop schema; fail loudly
    here (not deep in a worker thread) if its shape changes."""
    schema = shop_schema()
    assert [c.name for c in schema.table("orders").columns] == [
        "orderkey",
        "custkey",
        "total",
    ]
