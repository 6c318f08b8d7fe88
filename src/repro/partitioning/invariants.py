"""Checkable invariants of PREF-partitioned databases (Definition 1).

These checkers are used heavily by the test suite (including the
property-based tests) to prove that the partitioner and the bulk loader
maintain the guarantees that query processing relies on:

* **Locality** — for every PREF table R referencing S under predicate p,
  every partition that holds an s also holds every r with p(r, s).
* **Coverage** — every base tuple of R is stored in at least one partition.
* **Canonical copies** — exactly one copy of every base tuple has dup == 0.
* **Partner bits** — hasS is set on (all copies of) r iff a partner exists
  anywhere in S.
* **Derived state** — every structure the store keeps beside its stored
  rows equals a fresh build: each partition's join tables and shuffle
  buckets, each routing memo (no write left one stale, no memo answers
  what ``stable_hash`` would not).
"""

from __future__ import annotations

from repro.partitioning.config import PartitioningConfig
from repro.partitioning.scheme import (
    PatchedPrefScheme,
    PrefScheme,
    hash_router,
    key_has_null,
    stable_hash,
)
from repro.storage.partition import build_buckets, build_key_table
from repro.storage.partitioned import PartitionedDatabase, PartitionedTable


class InvariantViolation(AssertionError):
    """A PREF invariant does not hold; the message names the violation."""


def check_pref_invariants(
    partitioned: PartitionedDatabase,
    config: PartitioningConfig,
    exact: bool = False,
) -> None:
    """Validate Definition 1 over every PREF table of *partitioned*.

    Args:
        partitioned: The partitioned database to check.
        config: The configuration it was built from.
        exact: If True, additionally require that copies of partnered tuples
            exist *only* in partitions with a partner (true right after
            partitioning from scratch; incremental loads may leave behind a
            stale round-robin copy of a formerly partner-less tuple, which is
            harmless for locality).

    Raises:
        InvariantViolation: Naming the table and the violated condition.
    """
    check_derived_state(partitioned)
    for table_name in config.tables:
        scheme = config.scheme_of(table_name)
        if not isinstance(scheme, PrefScheme):
            _check_canonical_copies(partitioned.table(table_name))
            continue
        referencing = partitioned.table(table_name)
        referenced = partitioned.table(scheme.referenced_table)
        _check_canonical_copies(referencing)
        _check_pref_table(referencing, referenced, scheme, exact=exact)


def _check_pref_table(
    referencing: PartitionedTable,
    referenced: PartitionedTable,
    scheme: PrefScheme,
    exact: bool,
) -> None:
    name = referencing.name
    # Keys containing NULL never satisfy the partitioning predicate, on
    # either side: a NULL referenced key partners nothing, and a NULL
    # referencing key has no partner (matching SQL equality semantics).
    referenced_positions = referenced.schema.positions(scheme.referenced_columns)
    partner_keys_by_partition = [
        {
            key
            for key in partition.keys(referenced_positions)
            if not key_has_null(key)
        }
        for partition in referenced.partitions
    ]
    all_partner_keys = set().union(*partner_keys_by_partition) if (
        partner_keys_by_partition
    ) else set()

    # Collect, per base tuple of R, its key and the partitions holding copies.
    positions = referencing.schema.positions(scheme.referencing_columns(name))
    copies: dict[int, set[int]] = {}
    keys: dict[int, object] = {}
    has_bits: dict[int, set[bool]] = {}
    for partition in referencing.partitions:
        for key, source_id, has_partner in zip(
            partition.keys(positions),
            partition.source_ids,
            partition.has_partner,
        ):
            copies.setdefault(source_id, set()).add(partition.partition_id)
            keys[source_id] = key
            has_bits.setdefault(source_id, set()).add(bool(has_partner))

    max_copies = (
        scheme.max_copies if isinstance(scheme, PatchedPrefScheme) else None
    )
    for source_id, key in keys.items():
        expected = (
            set()
            if key_has_null(key)
            else {
                partition_id
                for partition_id, partner_keys in enumerate(
                    partner_keys_by_partition
                )
                if key in partner_keys
            }
        )
        actual = copies[source_id]
        patched = set(referencing.patch_partitions_of(source_id))
        if patched & actual:
            raise InvariantViolation(
                f"{name}: tuple {source_id} (key {key!r}) both stored in and "
                f"patched to partitions {sorted(patched & actual)}"
            )
        if expected:
            # Patch-list entries satisfy locality through the residual
            # shuffle: a partner partition must hold a stored copy OR a
            # patch delivery, never neither.
            missing = expected - actual - patched
            if missing:
                raise InvariantViolation(
                    f"{name}: tuple {source_id} (key {key!r}) missing from "
                    f"partitions {sorted(missing)} that hold a partner"
                )
            if patched - expected:
                raise InvariantViolation(
                    f"{name}: tuple {source_id} (key {key!r}) patched to "
                    f"partitions {sorted(patched - expected)} without a "
                    f"partner"
                )
            if max_copies is not None and len(actual) > max_copies:
                raise InvariantViolation(
                    f"{name}: tuple {source_id} (key {key!r}) stored in "
                    f"{len(actual)} partitions, exceeding max_copies="
                    f"{max_copies}"
                )
            if exact and actual - expected:
                raise InvariantViolation(
                    f"{name}: tuple {source_id} (key {key!r}) has stray "
                    f"copies in {sorted(actual - expected)}"
                )
        else:
            # Partner-less tuples (including NULL keys, the PR 3 rule) are
            # dealt round-robin exactly once and never enter a patch list —
            # patch entries exist only for real partner locations.
            if patched:
                raise InvariantViolation(
                    f"{name}: partner-less tuple {source_id} has patch "
                    f"entries in partitions {sorted(patched)}"
                )
            if len(actual) != 1:
                raise InvariantViolation(
                    f"{name}: partner-less tuple {source_id} stored in "
                    f"{len(actual)} partitions, expected exactly 1"
                )
        expected_partner = not key_has_null(key) and key in all_partner_keys
        observed = has_bits[source_id]
        if observed != {expected_partner}:
            raise InvariantViolation(
                f"{name}: tuple {source_id} hasS bits {observed} inconsistent "
                f"with partner existence {expected_partner}"
            )


def check_derived_state(partitioned: PartitionedDatabase) -> None:
    """Every derived structure *partitioned* keeps equals a fresh build by
    the routine that built it: each partition's kept entries
    (:func:`check_key_index`) and each routing memo's entries (a route
    is ``stable_hash(key) % count``, whatever the memo was fed).

    Raises:
        InvariantViolation: Naming the stale structure.
    """
    check_key_index(partitioned)
    for count, route in partitioned.routers.items():
        for key, target in list(route.items()):
            if target != stable_hash(key) % count:
                raise InvariantViolation(
                    f"routing memo for {count} targets sends {key!r} to "
                    f"{target}, not {stable_hash(key) % count}"
                )


def check_key_index(partitioned: PartitionedDatabase) -> None:
    """Every entry a partition of *partitioned* keeps in its derived slot
    equals a fresh build over its stored columns: a join table by
    :func:`build_key_table`, shuffle buckets by :func:`build_buckets`
    over a fresh router.

    Raises:
        InvariantViolation: Naming the table, partition and key columns.
    """
    for table in partitioned.tables.values():
        for partition in table.partitions:
            for entry, kept in (partition.key_index or {}).items():
                if kept is None:  # built once, not kept
                    continue
                if isinstance(entry[0], tuple):  # (key positions, count)
                    positions, count = entry
                    kind = f"shuffle buckets for {count} targets"
                    fresh = build_buckets(
                        partition.keys(positions), hash_router(count), count
                    )
                else:
                    positions = entry
                    kind = "key index"
                    fresh, _unique = build_key_table(
                        [partition.columns[position] for position in positions],
                        compact=True,
                    )
                if kept != fresh:
                    raise InvariantViolation(
                        f"{table.name}: partition {partition.partition_id} "
                        f"keeps a stale {kind} on columns {positions}"
                    )


def _check_canonical_copies(table: PartitionedTable) -> None:
    """Exactly one copy of each base tuple must have dup == 0."""
    canonical: dict[int, int] = {}
    for partition in table.partitions:
        for index, source_id in enumerate(partition.source_ids):
            canonical.setdefault(source_id, 0)
            if not partition.dup[index]:
                canonical[source_id] += 1
    bad = {sid: count for sid, count in canonical.items() if count != 1}
    if bad:
        sample = next(iter(bad.items()))
        raise InvariantViolation(
            f"{table.name}: {len(bad)} tuples without exactly one canonical "
            f"copy (e.g. tuple {sample[0]} has {sample[1]})"
        )
