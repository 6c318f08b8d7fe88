"""Aggregate functions: row accumulators and columnar state kernels.

The distributed executor computes partial aggregates per node, ships the
compact partial states, and merges them — the standard two-phase strategy
(the paper's XDB pushes per-node sub-plans into MySQL and combines on the
coordinator, which is the same structure).

An aggregate function is declared once, in :data:`AGGREGATES`: the row
accumulator (``add``/``result``) that :class:`LocalExecutor` runs and
that is the reference semantics, and the plain functions the engine runs
over plain values — a group's state is a slot in a per-aggregate *state
column*, never an object.  Every fold runs in ascending row order and
starts where the accumulator starts (SUM from its first value, AVG from
``0.0``), so float results are bit-identical to the per-row ``add``
loop.  No fold calls the builtin ``sum`` on values: from Python 3.12 it
is compensated and would differ in the last ulp.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.errors import ExecutionError


class Accumulator:
    """Base class for the row accumulators."""

    def add(self, value: object) -> None:
        raise NotImplementedError

    def result(self) -> object:
        """The final aggregate value."""
        raise NotImplementedError


class SumAccumulator(Accumulator):
    """SUM over non-null inputs (None if no input)."""

    def __init__(self) -> None:
        self._total: float | int | None = None

    def add(self, value: object) -> None:
        if value is None:
            return
        self._total = value if self._total is None else self._total + value

    def result(self) -> object:
        return self._total


class CountAccumulator(Accumulator):
    """COUNT(expr) — counts non-null inputs; COUNT(*) feeds a sentinel."""

    def __init__(self) -> None:
        self._count = 0

    def add(self, value: object) -> None:
        if value is not None:
            self._count += 1

    def result(self) -> object:
        return self._count


class AvgAccumulator(Accumulator):
    """AVG as (sum, count) so partials merge exactly."""

    def __init__(self) -> None:
        self._total: float = 0.0
        self._count = 0

    def add(self, value: object) -> None:
        if value is None:
            return
        self._total += value  # type: ignore[operator]
        self._count += 1

    def result(self) -> object:
        if self._count == 0:
            return None
        return self._total / self._count


class MinAccumulator(Accumulator):
    """MIN over non-null inputs."""

    def __init__(self) -> None:
        self._best: object = None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self._best is None or value < self._best:  # type: ignore[operator]
            self._best = value

    def result(self) -> object:
        return self._best


class MaxAccumulator(Accumulator):
    """MAX over non-null inputs."""

    def __init__(self) -> None:
        self._best: object = None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self._best is None or value > self._best:  # type: ignore[operator]
            self._best = value

    def result(self) -> object:
        return self._best


class CountDistinctAccumulator(Accumulator):
    """COUNT(DISTINCT expr) — partials ship the distinct-value sets."""

    def __init__(self) -> None:
        self._values: set = set()

    def add(self, value: object) -> None:
        if value is not None:
            self._values.add(value)

    def result(self) -> object:
        return len(self._values)


# -- columnar state kernels ---------------------------------------------------
#
# Two loop shapes fold a value column into a state column.  By group:
# ``fold(column, rows)`` is one group's state from ``column[i]`` over its
# ascending row indices — a tight loop with the state in a local, a fixed
# cost per group.  By row: ``fold_rows(gids, values, groups)`` lets
# ``states[g]`` absorb ``values[i]`` for each ``g = gids[i]`` — more per
# row, nothing per group.  A merge is a by-row fold of shipped states;
# where absorbing a state is absorbing a value (SUM, MIN, MAX) it is the
# same function.  COUNT(*) has no argument: its value column is None.

RowFold = Callable[[Iterable[int], Iterable, int], list]


def _sum(column: Sequence, rows: Iterable[int]) -> object:
    total = None
    for index in rows:
        value = column[index]
        if value is not None:
            total = value if total is None else total + value
    return total


def _sum_rows(gids: Iterable[int], values: Iterable, groups: int) -> list:
    states: list = [None] * groups
    for g, value in zip(gids, values):
        if value is not None:
            state = states[g]
            states[g] = value if state is None else state + value
    return states


def _count(column: Sequence | None, rows: Sequence[int]) -> int:
    if column is None:
        return len(rows)
    count = 0
    for index in rows:
        if column[index] is not None:
            count += 1
    return count


def _count_rows(gids: Iterable[int], values: Iterable | None, groups: int) -> list:
    states = [0] * groups
    for g, value in zip(gids, repeat(1) if values is None else values):
        if value is not None:
            states[g] += 1
    return states


def _add_rows(gids: Iterable[int], counts: Iterable[int], groups: int) -> list:
    states = [0] * groups
    for g, count in zip(gids, counts):
        states[g] += count
    return states


def _avg(column: Sequence, rows: Iterable[int]) -> tuple[float, int]:
    total = 0.0
    count = 0
    for index in rows:
        value = column[index]
        if value is not None:
            total += value
            count += 1
    return total, count


def _avg_rows(gids: Iterable[int], values: Iterable, groups: int) -> list:
    totals = [0.0] * groups
    counts = [0] * groups
    for g, value in zip(gids, values):
        if value is not None:
            totals[g] += value
            counts[g] += 1
    return list(zip(totals, counts))


def _avg_merge(gids: Iterable[int], shipped: Iterable, groups: int) -> list:
    # From 0.0, as every partial total started: 0.0 + t is t, bit for bit.
    totals = [0.0] * groups
    counts = [0] * groups
    for g, (total, count) in zip(gids, shipped):
        totals[g] += total
        counts[g] += count
    return list(zip(totals, counts))


def _avg_result(states: list) -> list:
    return [total / count if count else None for total, count in states]


def _min(column: Sequence, rows: Iterable[int]) -> object:
    best = None
    for index in rows:
        value = column[index]
        if value is not None and (best is None or value < best):
            best = value
    return best


def _min_rows(gids: Iterable[int], values: Iterable, groups: int) -> list:
    states: list = [None] * groups
    for g, value in zip(gids, values):
        if value is not None:
            state = states[g]
            if state is None or value < state:
                states[g] = value
    return states


def _max(column: Sequence, rows: Iterable[int]) -> object:
    best = None
    for index in rows:
        value = column[index]
        if value is not None and (best is None or value > best):
            best = value
    return best


def _max_rows(gids: Iterable[int], values: Iterable, groups: int) -> list:
    states: list = [None] * groups
    for g, value in zip(gids, values):
        if value is not None:
            state = states[g]
            if state is None or value > state:
                states[g] = value
    return states


def _distinct(column: Sequence, rows: Iterable[int]) -> set:
    seen = set(map(column.__getitem__, rows))
    seen.discard(None)
    return seen


def _distinct_rows(gids: Iterable[int], values: Iterable, groups: int) -> list:
    states: list[set] = [set() for _ in range(groups)]
    for g, value in zip(gids, values):
        if value is not None:
            states[g].add(value)
    return states


def _distinct_merge(gids: Iterable[int], shipped: Iterable[set], groups: int) -> list:
    # Fresh sets: a shipped state is never mutated, so a partial can be
    # merged (and its wire size read) any number of times.
    states: list[set] = [set() for _ in range(groups)]
    for g, values in zip(gids, shipped):
        states[g] |= values
    return states


def _distinct_result(states: list[set]) -> list:
    return list(map(len, states))


def _state_is_result(states: list) -> list:
    return states


class AggregateFunction(NamedTuple):
    """Everything the executors know about one aggregate function."""

    #: The row accumulator: :class:`LocalExecutor`'s, and the reference
    #: the columnar folds must equal bit for bit.
    accumulator: type[Accumulator]
    #: By group: ``(column, rows)`` -> one group's state; ``fold((), ())``
    #: is the state of a group with no input.
    fold: Callable[[Sequence, Sequence[int]], object]
    #: By row: ``(gids, values, groups)`` -> the state column.
    fold_rows: RowFold
    #: ``(gids, shipped states, groups)`` -> the merged state column.
    merge_rows: RowFold
    #: The state column -> the result column.
    result: Callable[[list], list] = _state_is_result
    #: Nominal wire bytes of one state (network cost model); None when it
    #: depends on the data, which :func:`state_bytes` then answers.
    width: int | None = 8


def state_bytes(state: set) -> int:
    """Nominal wire size of one data-sized (COUNT DISTINCT) state."""
    return 8 * max(1, len(state))


AGGREGATES: dict[str, AggregateFunction] = {
    "sum": AggregateFunction(SumAccumulator, _sum, _sum_rows, _sum_rows),
    "count": AggregateFunction(CountAccumulator, _count, _count_rows, _add_rows),
    "avg": AggregateFunction(
        AvgAccumulator, _avg, _avg_rows, _avg_merge, _avg_result, width=16
    ),
    "min": AggregateFunction(MinAccumulator, _min, _min_rows, _min_rows),
    "max": AggregateFunction(MaxAccumulator, _max, _max_rows, _max_rows),
    "count_distinct": AggregateFunction(
        CountDistinctAccumulator,
        _distinct,
        _distinct_rows,
        _distinct_merge,
        _distinct_result,
        width=None,
    ),
}


def aggregate_function(func: str) -> AggregateFunction:
    """The declaration of aggregate function *func*."""
    try:
        return AGGREGATES[func]
    except KeyError:
        raise ExecutionError(f"unknown aggregate function {func!r}") from None


def make_accumulator(func: str) -> Accumulator:
    """Instantiate the row accumulator for aggregate function *func*."""
    return aggregate_function(func).accumulator()
