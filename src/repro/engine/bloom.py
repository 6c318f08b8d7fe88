"""Dependency-free blocked Bloom filters for predicate transfer.

A filter is a list of 64-bit blocks; every key maps to exactly one block
and sets ``k`` bits inside it (register-blocked layout, one cache line of
one in this simulation).  Hashing is anchored on
:func:`repro.partitioning.scheme.stable_hash`, the engine's
process-stable hash, so a filter built from the same key set is
bit-identical on every backend and in every interpreter run.

Blocked filters trade a slightly worse false-positive rate for probe
locality; sizing inflates the classic Bloom bit budget to compensate, so
the measured FPR stays at or below the requested target.  NULL keys are
never inserted and never probed: under SQL three-valued logic a NULL
join key matches nothing, so ``might_contain`` reports False for them
and pruning the carrying row is sound.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.partitioning.scheme import KeyMemo, key_has_null, stable_hash

_MASK64 = (1 << 64) - 1
_BLOCK_BITS = 64
_LN2 = math.log(2.0)
#: Bit-budget inflation compensating the blocked layout's FPR penalty.
_BLOCKED_INFLATION = 1.5
#: Target false-positive rate of the filters predicate transfer builds.
TRANSFER_FPR = 0.01


def validate_bloom_params(fpr: float, capacity: int | None = None) -> None:
    """Reject unusable Bloom parameters with a clear :class:`ValueError`.

    A target false-positive rate must be a finite probability strictly
    between 0 and 1, and a capacity (when given) a positive integer.
    """
    if isinstance(fpr, bool) or not isinstance(fpr, (int, float)):
        raise ValueError(f"bloom_fpr must be a real number, got {fpr!r}")
    if not math.isfinite(fpr) or not 0.0 < float(fpr) < 1.0:
        raise ValueError(
            f"bloom_fpr must be a finite value in (0, 1), got {fpr!r}"
        )
    if capacity is not None:
        if isinstance(capacity, bool) or not isinstance(capacity, int):
            raise ValueError(
                f"bloom capacity must be an integer, got {capacity!r}"
            )
        if capacity < 1:
            raise ValueError(
                f"bloom capacity must be >= 1, got {capacity}"
            )


def _remix(value: int) -> int:
    """A splitmix64 round decorrelating block choice from in-block bits."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class BloomFilter:
    """A blocked Bloom filter over join-key values.

    Insertion order never changes the bit pattern (set-bits OR
    commutatively), so two filters built from the same key *set* are
    equal — the property the cross-process determinism tests pin.
    """

    __slots__ = ("blocks", "block_count", "k", "capacity", "fpr")

    def __init__(self, block_count: int, k: int, capacity: int, fpr: float) -> None:
        self.blocks: list[int] = [0] * block_count
        self.block_count = block_count
        self.k = k
        self.capacity = capacity
        self.fpr = fpr

    @classmethod
    def sized(cls, capacity: int, fpr: float) -> "BloomFilter":
        """Size a filter for *capacity* distinct keys at target *fpr*."""
        validate_bloom_params(fpr, capacity)
        # Classic budget m = -n ln p / (ln 2)^2, inflated for blocking,
        # rounded up to whole 64-bit blocks.
        base_bits = -capacity * math.log(fpr) / (_LN2 * _LN2)
        bits = base_bits * _BLOCKED_INFLATION
        block_count = max(1, math.ceil(bits / _BLOCK_BITS))
        k = round(-math.log(fpr) / _LN2)
        k = min(8, max(1, k))
        return cls(block_count, k, capacity, float(fpr))

    def _slot(self, key) -> tuple[int, int]:
        """(block index, bit mask) for a non-NULL key."""
        mixed = _remix(stable_hash(key))
        bit = mixed & 63
        step = ((mixed >> 6) & 63) | 1  # odd => visits distinct bits
        mask = 0
        for _ in range(self.k):
            mask |= 1 << bit
            bit = (bit + step) & 63
        return (mixed >> 32) % self.block_count, mask

    def add(self, key) -> None:
        """Insert one key; NULL (or NULL-bearing composite) keys are skipped."""
        if key is None or key_has_null(key):
            return
        index, mask = self._slot(key)
        self.blocks[index] |= mask

    def add_many(self, keys: Iterable) -> int:
        """Insert many keys, returning how many non-NULL keys were added."""
        added = 0
        for key in keys:
            if key is None or key_has_null(key):
                continue
            index, mask = self._slot(key)
            self.blocks[index] |= mask
            added += 1
        return added

    def might_contain(self, key) -> bool:
        """Probe one key.  NULL keys always answer False (3VL)."""
        if key is None or key_has_null(key):
            return False
        index, mask = self._slot(key)
        return self.blocks[index] & mask == mask

    def probe_many(self, keys: Iterable) -> list[bool]:
        """Bulk probe over a key column: ``might_contain`` of every key,
        computed once per distinct key (a probe column repeats its
        foreign keys).  The memo lives for the call; a caller probing
        batch after batch holds its own (``BloomTransfer``)."""
        return KeyMemo(self.might_contain).map(keys)

    @property
    def byte_size(self) -> int:
        """Wire size of the filter payload (what a broadcast ships)."""
        return self.block_count * 8

    def words(self) -> tuple[int, ...]:
        """The raw block words — the bit-identity surface for tests."""
        return tuple(self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self.block_count == other.block_count
            and self.k == other.k
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.block_count, self.k, tuple(self.blocks)))

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"BloomFilter(blocks={self.block_count}, k={self.k}, "
            f"capacity={self.capacity}, fpr={self.fpr})"
        )
