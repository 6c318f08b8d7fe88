"""Tests for scheme descriptors, predicates and the stable hash."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PartitioningError
from repro.partitioning import (
    HashScheme,
    JoinPredicate,
    PrefScheme,
    RangeScheme,
    ReplicatedScheme,
    RoundRobinScheme,
    SchemeKind,
    stable_hash,
)


class TestJoinPredicate:
    def test_equi_constructor(self):
        predicate = JoinPredicate.equi("a", "x", "b", "y")
        assert predicate.tables == frozenset({"a", "b"})
        assert predicate.columns_of("a") == ("x",)
        assert predicate.columns_of("b") == ("y",)
        assert predicate.other_table("a") == "b"

    def test_normalised_orientation(self):
        forward = JoinPredicate.equi("a", "x", "b", "y")
        backward = JoinPredicate.equi("b", "y", "a", "x")
        assert forward.equivalent(backward)
        assert forward.normalised() == backward.normalised()

    def test_composite(self):
        predicate = JoinPredicate("a", ("x1", "x2"), "b", ("y1", "y2"))
        assert list(predicate.conjuncts()) == [("x1", "y1"), ("x2", "y2")]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(PartitioningError):
            JoinPredicate("a", ("x",), "b", ("y1", "y2"))

    def test_same_table_rejected(self):
        with pytest.raises(PartitioningError):
            JoinPredicate.equi("a", "x", "a", "y")

    def test_unknown_table_lookup(self):
        predicate = JoinPredicate.equi("a", "x", "b", "y")
        with pytest.raises(PartitioningError):
            predicate.columns_of("c")


class TestSchemes:
    def test_hash_partition_of_in_range(self):
        scheme = HashScheme(("k",), 7)
        for key in range(100):
            assert 0 <= scheme.partition_of(key) < 7

    def test_hash_needs_columns(self):
        with pytest.raises(PartitioningError):
            HashScheme((), 4)

    def test_range_scheme_boundaries(self):
        scheme = RangeScheme("k", (10, 20))
        assert scheme.partition_count == 3
        assert scheme.partition_of(5) == 0
        assert scheme.partition_of(10) == 0
        assert scheme.partition_of(15) == 1
        assert scheme.partition_of(99) == 2

    def test_range_unsorted_rejected(self):
        with pytest.raises(PartitioningError):
            RangeScheme("k", (20, 10))

    def test_pref_predicate_must_mention_referenced(self):
        predicate = JoinPredicate.equi("r", "x", "s", "y")
        PrefScheme("s", predicate)  # fine
        with pytest.raises(PartitioningError):
            PrefScheme("zzz", predicate)

    def test_pref_column_accessors(self):
        predicate = JoinPredicate.equi("r", "x", "s", "y")
        scheme = PrefScheme("s", predicate)
        assert scheme.referenced_columns == ("y",)
        assert scheme.referencing_columns("r") == ("x",)

    def test_kinds(self):
        assert HashScheme(("k",), 2).kind is SchemeKind.HASH
        assert RoundRobinScheme(2).kind is SchemeKind.ROUND_ROBIN
        assert ReplicatedScheme(2).kind is SchemeKind.REPLICATED
        assert SchemeKind.PREF.is_seed is False
        assert SchemeKind.HASH.is_seed is True


class TestStableHash:
    def test_deterministic_for_strings(self):
        assert stable_hash("hello") == stable_hash("hello")

    def test_tuple_order_matters(self):
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_int_not_identity(self):
        # Sequential keys must not map to sequential partitions.
        assignments = {stable_hash(k) % 10 for k in range(0, 50, 5)}
        assert len(assignments) > 2

    def test_float_integral_matches_int(self):
        assert stable_hash(2.0) == stable_hash(2)

    def test_bool_matches_int(self):
        # True == 1 == 1.0 to a join and to a dict, so to the hash too:
        # a BOOLEAN column shuffled against an INTEGER one must meet it.
        assert stable_hash(True) == stable_hash(1) == stable_hash(1.0)
        assert stable_hash(False) == stable_hash(0) == stable_hash(-0.0)
        assert stable_hash((True, "x")) == stable_hash((1, "x"))

    def test_none_hashable(self):
        assert stable_hash(None) >= 0

    @pytest.mark.parametrize(
        "key, value",
        [
            ("hello", 2607821981565500683),
            ("", 5472609002491880229),
            ("Customer#000000042", 2701122237933697784),
            (7, 1346066267577507604),
            (-7, 6601206236533552883),
            (2**70 + 3, 2185194620014831856),
            (2.5, 6956283617732284700),
            (float("nan"), 2390246027809994938),
            (None, 2654435769),
            (("a", 1), 7643774782449041225),
            ((3, None, "x"), 2043503037235734420),
        ],
    )
    def test_values_are_pinned(self, key, value):
        # Recorded at 656cc81, before the string memo came out of the hash:
        # placement and Bloom bits depend on these staying put.
        assert stable_hash(key) == value

    @given(st.integers())
    def test_nonnegative(self, value):
        assert stable_hash(value) >= 0

    @given(st.integers(min_value=0, max_value=10**6))
    def test_spread_over_partitions(self, value):
        assert 0 <= stable_hash(value) % 16 < 16
