"""``Partition.compress`` removes rows from the stored lists in place.

Every mutator changes the stored lists in place and drops the derived
slot; ``compress`` never replaces a list object.  It deletes a few
dropped runs run by run, from the highest down, and rewrites each list
in one pass past ``COMPRESS_RUNS_PER_ROOT`` runs per square root of the
row count.  For masks that keep all, drop all, drop one run, alternate
or are random, on partitions of 0 to 3 000 and of 5 000 to 6 000 rows
and on both sides of the crossover, every stored list must come out
equal to ``itertools.compress`` of what it held, be the same object, and
the key index must be gone.  A mask of the wrong length is refused with
the store untouched; a delete through the bulk loader keeps the PREF
invariants; and a compress that rebuilds one list fails the check.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pref_chain_config, shop_database
from repro.errors import RowShapeError
from repro.partitioning import BulkLoader, check_pref_invariants, partition_database
from repro.storage import partition as partition_module
from repro.storage.partition import Partition

WIDTH = 15  # a lineitem partition: 15 columns and three bookkeeping lists


def stored_lists(partition: Partition) -> list[list]:
    return [
        *partition.columns,
        partition.source_ids,
        partition.dup,
        partition.has_partner,
    ]


def make_partition(rows: int, seed: int) -> Partition:
    rng = random.Random(seed)
    partition = Partition(0, WIDTH)
    partition.extend(
        [
            tuple(
                None if rng.random() < 0.05 else (i * WIDTH + c, f"v{i}", i / 7)[c % 3]
                for c in range(WIDTH)
            )
            for i in range(rows)
        ],
        list(range(rows)),
        [rng.randrange(2) for _ in range(rows)],
        [rng.randrange(2) for _ in range(rows)],
    )
    return partition


def check_compress(partition: Partition, keep) -> None:
    """Compress *partition* by *keep* and hold it to the in-place rule."""
    before = stored_lists(partition)
    expected = [list(compress(values, keep)) for values in before]
    partition.key_index = {(0,): None}
    partition.compress(keep)
    after = stored_lists(partition)
    assert after == expected
    assert all(new is old for new, old in zip(after, before)), (
        "compress replaced a stored list"
    )
    assert partition.key_index is None


@contextmanager
def runs_limit(limit: int):
    saved = partition_module.COMPRESS_RUNS_PER_ROOT
    partition_module.COMPRESS_RUNS_PER_ROOT = limit
    try:
        yield
    finally:
        partition_module.COMPRESS_RUNS_PER_ROOT = saved


@st.composite
def masks(draw, rows: int):
    shape = draw(
        st.sampled_from(["keep all", "drop all", "one run", "alternate", "random"])
    )
    if shape == "keep all":
        return [True] * rows
    if shape == "drop all":
        return [False] * rows
    if shape == "one run":
        start = draw(st.integers(0, rows))
        stop = draw(st.integers(start, rows))
        return [not start <= i < stop for i in range(rows)]
    if shape == "alternate":
        phase = draw(st.integers(0, 1))
        return [i % 2 == phase for i in range(rows)]
    rng = random.Random(draw(st.integers(0, 2**16)))
    share = draw(st.sampled_from([0.01, 0.1, 0.5, 0.9]))
    # Any truthy / falsy entry, as the engine's masks hold.
    values = draw(st.sampled_from([(True, False), (1, 0), (True, None)]))
    return [values[rng.random() < share] for _ in range(rows)]


@st.composite
def cases(draw):
    rows = draw(
        st.one_of(
            st.integers(0, 40), st.integers(0, 3_000), st.integers(5_000, 6_000)
        )
    )
    return rows, draw(st.integers(0, 2**16)), draw(masks(rows))


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from([None, 0, 10**9]))
def test_compress_keeps_every_stored_list(case, limit):
    """Both paths, and the crossover's choice between them (``None``)."""
    rows, seed, keep = case
    partition = make_partition(rows, seed)
    if limit is None:
        check_compress(partition, keep)
    else:
        with runs_limit(limit):
            check_compress(partition, keep)


def crossover(rows: int) -> int:
    """The most dropped runs that *rows* rows still delete run by run."""
    return math.floor(partition_module.COMPRESS_RUNS_PER_ROOT * math.sqrt(rows))


def test_runs_on_both_sides_of_the_crossover(monkeypatch):
    """A few runs and more than the crossover, at its edge, on 1 200,
    5 000 and 20 000 rows, with the branch each mask takes observed."""
    taken = []
    monkeypatch.setattr(
        partition_module, "compress", lambda *args: taken.append(1) or compress(*args)
    )
    for rows in (1_200, 5_000, 20_000):
        limit = crossover(rows)
        for runs in (1, 2, limit - 1, limit, limit + 1, 2 * limit):
            keep = [True] * rows
            for index in range(runs - 1):
                keep[index * (rows // runs)] = False  # runs - 1 single-row runs
            keep[-1] = False  # and one more run at the very end
            taken.clear()
            check_compress(make_partition(rows, runs), keep)
            assert bool(taken) == (runs > limit), (rows, runs)


@pytest.mark.parametrize("delta", [-1, 1, -5])
def test_a_mask_of_the_wrong_length_is_refused(delta):
    """``itertools.compress`` stops at the shorter input: a short mask
    used to drop the trailing rows without a word."""
    partition = make_partition(10, 1)
    before = [list(values) for values in stored_lists(partition)]
    with pytest.raises(RowShapeError, match=f"mask of {10 + delta} entries"):
        partition.compress([True] * (10 + delta))
    assert stored_lists(partition) == before
    with pytest.raises(RowShapeError):
        Partition(0, 2).compress([True])


def test_loader_delete_keeps_the_lists_and_the_invariants():
    config = pref_chain_config(4)
    partitioned = partition_database(shop_database(seed=3), config)
    before = {
        name: [stored_lists(partition) for partition in table.partitions]
        for name, table in partitioned.tables.items()
    }
    loader = BulkLoader(partitioned, config)
    assert loader.delete("lineitem", lambda row: row[0] % 7 == 0)
    assert loader.delete("orders", lambda row: row[0] % 5 == 0)
    check_pref_invariants(partitioned, config)
    for name, table in partitioned.tables.items():
        for partition, lists in zip(table.partitions, before[name]):
            assert all(
                new is old for new, old in zip(stored_lists(partition), lists)
            ), name


def test_a_compress_that_rebuilds_one_list_fails_the_check(monkeypatch):
    original = Partition.compress

    def rebuilds_dup(self, keep):
        original(self, keep)
        self.dup = list(self.dup)

    monkeypatch.setattr(Partition, "compress", rebuilds_dup)
    with pytest.raises(AssertionError, match="replaced a stored list"):
        check_compress(make_partition(50, 2), [i % 3 != 0 for i in range(50)])
