"""Reads after writes: a query sees every bulk-load mutation.

A partition stores the columns the scan hands out; its one derived form,
the joins' key index, is dropped by every write (``test_key_index.py``
drives each writer against it).  These tests pin the behaviour that
used to depend on a hand-called cache hook: the hasS flip after a
referenced-side insert, a delete and an in-place update are each visible
to the very next query.

They drive the full ``SimulatedCluster`` path — query, mutate, query again
— and compare against a cluster built fresh from the final data.  The
serving-layer class repeats the exercise one layer up, where the result
and plan caches *are* derived state and epochs invalidate them.
"""

from __future__ import annotations

import pytest

from helpers import assert_same_rows, shop_schema
from repro.cluster import SimulatedCluster
from repro.errors import BulkLoadError
from repro.partitioning import (
    HashScheme,
    JoinPredicate,
    PartitioningConfig,
    PrefScheme,
)
from repro.query import ExecOptions, Query
from repro.query.expressions import col, lit
from repro.storage import Database

ORDERS = [  # (orderkey, custkey, total)
    (1, 10, 5.0),
    (2, 11, 7.0),
    (3, 10, 9.0),
    (4, 13, 2.0),
]
CUSTOMERS = [  # custkey 12 starts as an orphan: no order references it.
    (10, "a", 0),
    (11, "b", 0),
    (12, "c", 0),
    (13, "d", 0),
]
NEW_ORDERS = [(5, 12, 4.0), (6, 12, 6.0)]


def _database(orders=ORDERS) -> Database:
    database = Database(shop_schema())
    database.load("customer", list(CUSTOMERS))
    database.load("orders", [tuple(row) for row in orders])
    return database


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
    return config


def _semi_join_plan():
    # Answered through the hasS bitmap when optimizations are on.
    return (
        Query.scan("customer", alias="c")
        .semi_join(Query.scan("orders", alias="o"), on=[("c.custkey", "o.custkey")])
        .select(["c.custkey", "c.cname"])
        .plan()
    )


def _cluster(database: Database) -> SimulatedCluster:
    return SimulatedCluster.partition(database, _config(), backend="serial")


def _fresh_rows(orders, plan):
    fresh = _cluster(_database(orders))
    try:
        return fresh.run(plan).rows
    finally:
        fresh.close()


class TestIncrementalLoadInvalidation:
    def test_has_partner_flip_reflected_after_load(self):
        plan = _semi_join_plan()
        cluster = _cluster(_database())
        try:
            before = cluster.run(plan).rows
            assert (12, "c") not in before
            cluster.loader.load({"orders": NEW_ORDERS})
            after = cluster.run(plan).rows
        finally:
            cluster.close()
        assert (12, "c") in after
        assert_same_rows(after, _fresh_rows(ORDERS + NEW_ORDERS, plan))

    def test_delete_reflected_after_rebuild(self):
        plan = (
            Query.scan("orders", alias="o")
            .aggregate(
                aggregates=[("count", None, "cnt"), ("sum", col("o.total"), "t")]
            )
            .plan()
        )
        cluster = _cluster(_database())
        try:
            cluster.run(plan)
            removed = cluster.loader.delete("orders", lambda row: row[0] == 2)
            assert removed == 1
            after = cluster.run(plan).rows
        finally:
            cluster.close()
        survivors = [row for row in ORDERS if row[0] != 2]
        assert_same_rows(after, _fresh_rows(survivors, plan))

    def test_update_reflected_in_place(self):
        plan = (
            Query.scan("orders", alias="o")
            .where(col("o.orderkey") == lit(1))
            .select(["o.total"])
            .plan()
        )
        cluster = _cluster(_database())
        try:
            assert cluster.run(plan).rows == [(5.0,)]
            updated = cluster.loader.update(
                "orders",
                lambda row: row[0] == 1,
                lambda row: (row[0], row[1], 99.0),
            )
            assert updated == 1
            assert cluster.run(plan).rows == [(99.0,)]
        finally:
            cluster.close()


SEMI_JOIN_SQL = (
    "SELECT c.custkey, c.cname FROM customer c WHERE EXISTS "
    "(SELECT * FROM orders o WHERE o.custkey = c.custkey)"
)


class TestServingLayerInvalidation:
    """Reads after writes one layer up: the serving caches.

    A result served from the cache after a bulk load must be
    indistinguishable from a cluster built fresh from the final data.
    """

    def test_result_cache_invalidated_by_referenced_side_load(self):
        cluster = _cluster(_database())
        server = cluster.serve(max_inflight=2)
        try:
            before = server.execute(SEMI_JOIN_SQL)
            assert (12, "c") not in before.rows
            # Cached now: a repeat submission is served from the cache.
            repeat = server.submit(SEMI_JOIN_SQL)
            repeat.result()
            assert repeat.cache_hit == "result"
            server.load({"orders": NEW_ORDERS})
            after = server.execute(SEMI_JOIN_SQL)
        finally:
            server.close()
            cluster.close()
        assert (12, "c") in after.rows
        plan = _semi_join_plan()
        assert_same_rows(after.rows, _fresh_rows(ORDERS + NEW_ORDERS, plan))

    def test_plan_cache_invalidated_under_predicate_transfer(self):
        """With predicate transfer on, cached annotations embed Bloom
        filters built from table contents; a load must drop the cached
        plan too, or re-execution filters through stale Blooms."""
        cluster = SimulatedCluster.partition(
            _database(), _config(), backend="serial",
            options=ExecOptions(predicate_transfer=True),
        )
        server = cluster.serve(max_inflight=1)
        join_sql = (
            "SELECT c.cname, o.total FROM customer c "
            "JOIN orders o ON c.custkey = o.custkey"
        )
        try:
            server.execute(join_sql)  # caches plan + Bloom annotations
            server.load({"orders": NEW_ORDERS})
            assert len(server.plan_cache) == 0  # the annotation was dropped
            after = server.execute(join_sql)
        finally:
            server.close()
            cluster.close()
        fresh = SimulatedCluster.partition(
            _database(ORDERS + NEW_ORDERS),
            _config(),
            backend="serial",
            options=ExecOptions(predicate_transfer=True),
        )
        try:
            assert_same_rows(after.rows, fresh.sql(join_sql).rows)
        finally:
            fresh.close()

    def test_delete_and_update_bump_epochs(self):
        count_sql = "SELECT COUNT(*) AS n FROM orders o"
        sum_sql = "SELECT SUM(o.total) AS t FROM orders o"
        cluster = _cluster(_database())
        server = cluster.serve(max_inflight=1)
        try:
            assert server.execute(count_sql).rows == [(4,)]
            server.delete("orders", lambda row: row[0] == 2)
            assert server.execute(count_sql).rows == [(3,)]
            before_total = server.execute(sum_sql).rows[0][0]
            server.update(
                "orders",
                lambda row: row[0] == 1,
                lambda row: (row[0], row[1], row[2] + 100.0),
            )
            after_total = server.execute(sum_sql).rows[0][0]
            assert after_total == before_total + 100.0
        finally:
            server.close()
            cluster.close()

    def test_failed_load_still_bumps_epochs(self):
        """A load that raises on its second table has already stored the
        first table's rows; the result cache must not answer from before."""
        count_sql = "SELECT COUNT(*) AS n FROM orders o"
        cluster = _cluster(_database())
        server = cluster.serve(max_inflight=1)
        try:
            assert server.execute(count_sql).rows == [(4,)]  # now cached
            with pytest.raises(BulkLoadError):
                server.load({"orders": NEW_ORDERS, "customer": [()]})
            served = server.submit(count_sql).result().rows
            assert served == cluster.sql(count_sql).rows == [(6,)]
        finally:
            server.close()
            cluster.close()

    def test_rejected_update_serves_what_is_stored(self):
        sum_sql = "SELECT SUM(o.total) AS t FROM orders o"
        cluster = _cluster(_database())
        server = cluster.serve(max_inflight=1)
        try:
            before = server.execute(sum_sql).rows  # now cached
            with pytest.raises(BulkLoadError):
                # Legal on orders 1-3, touches the hash key on order 4.
                server.update(
                    "orders",
                    lambda row: True,
                    lambda row: (
                        row[0] + (100 if row[0] == 4 else 0),
                        row[1],
                        row[2] + 1.0,
                    ),
                )
            served = server.submit(sum_sql).result().rows
            assert served == cluster.sql(sum_sql).rows == before
        finally:
            server.close()
            cluster.close()
