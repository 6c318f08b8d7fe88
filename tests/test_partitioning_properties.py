"""Property-based tests for Definition 1 invariants (hypothesis)."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    all_hashed_config,
    pref_chain_config,
    ref_chain_config,
    shop_database,
    shop_schema,
    store_state,
)
from repro.partitioning import (
    BulkLoader,
    check_pref_invariants,
    partition_database,
)
from repro.storage import Database

CONFIG_BUILDERS = {
    "pref": pref_chain_config,
    "ref": ref_chain_config,
    "hashed": all_hashed_config,
}


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=9),
    config_name=st.sampled_from(sorted(CONFIG_BUILDERS)),
)
def test_partitioning_preserves_definition_1(seed, n, config_name):
    """Freshly partitioned databases satisfy Definition 1 exactly."""
    database = shop_database(seed=seed, customers=12, orders=30, lineitems=80)
    config = CONFIG_BUILDERS[config_name](n)
    partitioned = partition_database(database, config)
    check_pref_invariants(partitioned, config, exact=True)
    for table in config.tables:
        assert (
            partitioned.table(table).canonical_row_count
            == database.table(table).row_count
        )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=6),
    batch_count=st.integers(min_value=1, max_value=4),
)
def test_incremental_loading_preserves_locality(seed, n, batch_count):
    """Interleaved incremental loads keep the co-location guarantee."""
    database = shop_database(seed=seed, customers=10, orders=25, lineitems=60)
    config = pref_chain_config(n)
    partitioned = partition_database(Database(shop_schema()), config)
    loader = BulkLoader(partitioned, config)
    rng = random.Random(seed)
    # Split each table's rows into batches and interleave table order.
    batches = []
    for table in config.tables:
        rows = list(database.table(table).rows)
        rng.shuffle(rows)
        size = max(1, len(rows) // batch_count)
        for start in range(0, len(rows), size):
            batches.append((table, rows[start : start + size]))
    rng.shuffle(batches)
    for table, rows in batches:
        loader.insert(table, rows)
    # Exactness does not hold for interleaved loads (stale round-robin
    # copies are allowed) but the locality guarantee must.
    check_pref_invariants(partitioned, config, exact=False)
    for table in config.tables:
        assert (
            partitioned.table(table).canonical_row_count
            == database.table(table).row_count
        )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=8),
)
def test_fk_order_loading_matches_fresh_partitioning_sizes(seed, n):
    """Loading in FK order yields the very store partitioning builds."""
    database = shop_database(seed=seed, customers=10, orders=25, lineitems=60)
    config = pref_chain_config(n)
    fresh = partition_database(database, config)
    loaded = partition_database(Database(shop_schema()), config)
    loader = BulkLoader(loaded, config)
    for table in config.load_order():
        loader.insert(table, database.table(table).rows)
    assert store_state(loaded) == store_state(fresh)
