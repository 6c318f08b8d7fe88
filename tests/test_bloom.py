"""Property tests for the blocked Bloom filter behind predicate transfer.

Pins the four properties the transfer scheduler's soundness argument
leans on: no false negatives ever, a measured false-positive rate at or
near the sizing target, NULL keys never entering (or matching) a filter
under SQL three-valued logic, and bit-identical filters regardless of
insertion order or builder interpreter.
"""

from __future__ import annotations

import ast
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine.bloom import BloomFilter, validate_bloom_params


def _mixed_keys(rng: random.Random, count: int) -> list:
    """A deterministic mix of the key types join columns produce."""
    keys = []
    for index in range(count):
        kind = index % 4
        if kind == 0:
            keys.append(rng.randrange(1_000_000))
        elif kind == 1:
            keys.append(f"key-{rng.randrange(1_000_000)}")
        elif kind == 2:
            keys.append(rng.random())
        else:
            keys.append((rng.randrange(1000), f"s{rng.randrange(1000)}"))
    return keys


class TestValidation:
    @pytest.mark.parametrize(
        "fpr", [0.0, 1.0, -0.5, 2.0, float("nan"), float("inf"), "0.5", True, None]
    )
    def test_bad_fpr_rejected(self, fpr):
        with pytest.raises(ValueError):
            validate_bloom_params(fpr)

    @pytest.mark.parametrize("capacity", [0, -1, 1.5, "10", True])
    def test_bad_capacity_rejected(self, capacity):
        with pytest.raises(ValueError):
            validate_bloom_params(0.01, capacity)

    def test_good_params_pass(self):
        validate_bloom_params(0.01)
        validate_bloom_params(0.5, 1)
        validate_bloom_params(1e-6, 10_000)

    def test_sized_validates(self):
        with pytest.raises(ValueError):
            BloomFilter.sized(100, 0.0)
        with pytest.raises(ValueError):
            BloomFilter.sized(0, 0.01)


class TestNoFalseNegatives:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_inserted_key_is_found(self, seed):
        rng = random.Random(seed)
        keys = _mixed_keys(rng, 2000)
        bloom = BloomFilter.sized(len(keys), 0.01)
        assert bloom.add_many(keys) == len(keys)
        assert all(bloom.might_contain(key) for key in keys)
        assert bloom.probe_many(keys) == [True] * len(keys)


class TestFalsePositiveRate:
    @pytest.mark.parametrize("fpr", [0.01, 0.05])
    def test_measured_fpr_within_2x_of_target(self, fpr):
        rng = random.Random(42)
        capacity = 3000
        inserted = [rng.randrange(10**9) for _ in range(capacity)]
        bloom = BloomFilter.sized(capacity, fpr)
        bloom.add_many(inserted)
        member = set(inserted)
        probes = 30_000
        outside = []
        while len(outside) < probes:
            candidate = rng.randrange(10**9, 2 * 10**9)
            if candidate not in member:
                outside.append(candidate)
        positives = sum(bloom.probe_many(outside))
        measured = positives / probes
        assert measured <= 2 * fpr, f"measured FPR {measured} vs target {fpr}"

    def test_sizing_grows_with_capacity_and_precision(self):
        assert (
            BloomFilter.sized(10_000, 0.01).byte_size
            > BloomFilter.sized(100, 0.01).byte_size
        )
        assert (
            BloomFilter.sized(1000, 0.001).byte_size
            > BloomFilter.sized(1000, 0.1).byte_size
        )
        # k = -ln(p)/ln(2) rounded, clamped to [1, 8].
        assert BloomFilter.sized(100, 0.5).k == 1
        assert BloomFilter.sized(100, 0.01).k == round(-math.log(0.01) / math.log(2))


class TestNullKeys:
    def test_null_never_inserted(self):
        bloom = BloomFilter.sized(10, 0.01)
        bloom.add(None)
        bloom.add((1, None))
        bloom.add((None, None))
        assert bloom.words() == (0,) * bloom.block_count
        assert bloom.add_many([None, (None, 2), 7]) == 1

    def test_null_probe_is_false_even_when_saturated(self):
        bloom = BloomFilter.sized(1, 0.5)
        bloom.blocks = [(1 << 64) - 1] * bloom.block_count  # all bits set
        assert not bloom.might_contain(None)
        assert not bloom.might_contain((None, 1))
        assert bloom.probe_many([None, (3, None), 5]) == [False, False, True]


class TestBitIdentity:
    def test_insertion_order_is_irrelevant(self):
        rng = random.Random(9)
        keys = _mixed_keys(rng, 500)
        forward = BloomFilter.sized(len(keys), 0.01)
        forward.add_many(keys)
        shuffled = list(keys)
        rng.shuffle(shuffled)
        backward = BloomFilter.sized(len(keys), 0.01)
        backward.add_many(shuffled)
        assert forward == backward
        assert forward.words() == backward.words()

    def test_pickle_round_trip(self):
        bloom = BloomFilter.sized(100, 0.01)
        bloom.add_many(range(100))
        clone = pickle.loads(pickle.dumps(bloom))
        assert clone == bloom
        assert clone.capacity == bloom.capacity
        assert clone.probe_many([1, 2, 10**9]) == bloom.probe_many([1, 2, 10**9])

    def test_bit_identical_across_processes(self):
        rng = random.Random(17)
        keys = _mixed_keys(rng, 400)
        local = BloomFilter.sized(len(keys), 0.01)
        local.add_many(keys)
        # A fresh interpreter, with its own string-hash seed, builds the
        # filter from the same keys.
        script = (
            "import ast, sys\n"
            "from repro.engine.bloom import BloomFilter\n"
            "keys = ast.literal_eval(sys.stdin.read())\n"
            "bloom = BloomFilter.sized(len(keys), 0.01)\n"
            "bloom.add_many(keys)\n"
            "print(list(bloom.words()))\n"
        )
        env = {
            **os.environ,
            "PYTHONHASHSEED": "12345",
            "PYTHONPATH": str(Path(repro.__file__).parents[1]),
        }
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=repr(keys), capture_output=True, text=True, env=env,
            check=True,
        )
        assert tuple(ast.literal_eval(done.stdout)) == local.words()
