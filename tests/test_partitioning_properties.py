"""Property-based tests for Definition 1 invariants (hypothesis)."""

import random
from collections import Counter

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
    PrefScheme,
    check_pref_invariants,
    partition_database,
)
from repro.storage import Database
from repro.storage.partition import row_key

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


def interleaved_load(seed: int, n: int, batch_count: int):
    """``shop_database(seed)`` bulk-loaded into an empty ``pref_chain``
    store as about *batch_count* shuffled batches per table, the batches
    of all tables interleaved in random order."""
    database = shop_database(seed=seed, customers=10, orders=25, lineitems=60)
    config = pref_chain_config(n)
    partitioned = partition_database(Database(shop_schema()), config)
    loader = BulkLoader(partitioned, config)
    rng = random.Random(seed)
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
    return database, config, partitioned


def placements(partitioned, config) -> dict[str, Counter]:
    """Per table, what placement decided for each stored tuple, as a
    multiset (source ids and row order left out).

    * A partner-less tuple (``hasS`` = 0): an ``"orphan"`` with its
      number of copies and whether it has patch entries.  Its partition
      is the round-robin cursor's, which depends on the batch order.
    * A tuple partnered through such an orphan (further down the chain)
      has partitions that depend on it too: it ``"follows an orphan"``,
      with its ``hasS`` bits.
    * Any other tuple: ``"placed"``, with its partitions, the partition of
      its ``dup = 0`` copy, its ``hasS`` bits and its patch partitions.
    """
    drifting: dict[str, set] = {}  # per table: its orphans' and followers' ids
    result = {}
    for name in config.load_order():
        table = partitioned.table(name)
        scheme = config.scheme_of(name)
        drifting_keys: set = set()  # a seed table follows nothing
        if isinstance(scheme, PrefScheme):
            referenced = partitioned.table(scheme.referenced_table)
            extract = row_key(referenced.schema.positions(scheme.referenced_columns))
            drifting_keys = {
                extract(row)
                for partition in referenced.partitions
                for row, source_id in zip(partition, partition.source_ids)
                if source_id in drifting[referenced.name]
            }
            key_of = row_key(
                table.schema.positions(scheme.referencing_columns(name))
            )
        tuples: dict[int, tuple] = {}
        for partition in table.partitions:
            for row, source_id, dup, has_partner in zip(
                partition, partition.source_ids, partition.dup, partition.has_partner
            ):
                _row, partitions, canonical, bits = tuples.setdefault(
                    source_id, (row, set(), [], set())
                )
                partitions.add(partition.partition_id)
                bits.add(has_partner)
                if not dup:
                    canonical.append(partition.partition_id)
        patched: dict[int, set[int]] = {}
        for partition_id, entries in table.patches.items():
            for _row, source_id in entries:
                patched.setdefault(source_id, set()).add(partition_id)
        described = {}
        for source_id, (row, partitions, canonical, bits) in tuples.items():
            patches = frozenset(patched.get(source_id, ()))
            if bits == {0}:
                described[source_id] = ("orphan", row, len(partitions), bool(patches))
            elif drifting_keys and key_of(row) in drifting_keys:
                described[source_id] = ("follows an orphan", row, frozenset(bits))
            else:
                described[source_id] = (
                    "placed", row, frozenset(partitions), tuple(canonical),
                    frozenset(bits), patches,
                )
        drifting[name] = {
            source_id
            for source_id, entry in described.items()
            if entry[0] != "placed"
        }
        result[name] = Counter(described.values())
    return result


INTERLEAVED = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=6),
    batch_count=st.integers(min_value=1, max_value=4),
)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**INTERLEAVED)
def test_incremental_loading_preserves_locality(seed, n, batch_count):
    """Interleaved incremental loads keep Definition 1 exactly."""
    database, config, partitioned = interleaved_load(seed, n, batch_count)
    check_pref_invariants(partitioned, config, exact=True)
    for table in config.tables:
        assert (
            partitioned.table(table).canonical_row_count
            == database.table(table).row_count
        )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**INTERLEAVED)
def test_incremental_loading_places_as_partitioning_does(seed, n, batch_count):
    """A maintained load, in any batch order, is the store partitioning
    the same rows builds, up to orphans' partitions (and what follows
    from them), row order and source ids.  The fresh store meets
    Definition 1 exactly, so every partnered tuple here has the fresh
    partitions, ``dup = 0`` partition, ``hasS = 1`` and patch partitions,
    and every partner-less one a single copy with ``hasS = 0``."""
    database, config, loaded = interleaved_load(seed, n, batch_count)
    assert placements(loaded, config) == placements(
        partition_database(database, config), config
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
