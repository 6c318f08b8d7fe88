"""Aggregate accumulators with partial/merge support.

The distributed executor computes partial aggregates per node, ships the
compact partial states, and merges them — the standard two-phase strategy
(the paper's XDB pushes per-node sub-plans into MySQL and combines on the
coordinator, which is the same structure).

Each accumulator supports ``add`` (consume an input value), ``state``
(serialisable partial), ``merge_state`` and ``result``.  The columnar
engine feeds whole value columns through ``add_many``/``add_count``,
which accumulate a group's rows in one call instead of one virtual
dispatch per (row, aggregate); every override folds values in ascending
row order, so float accumulation stays bit-identical to the per-row
``add`` loop it replaces (the row-engine golden traces pin this).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ExecutionError


class Accumulator:
    """Base class for aggregate accumulators."""

    def add(self, value: object) -> None:
        raise NotImplementedError

    def add_many(self, column: Sequence, indices: Iterable[int]) -> None:
        """Consume ``column[i]`` for each row index, in iteration order.

        The base implementation is the per-row loop; subclasses override
        it with a tight local fold over the same order.
        """
        add = self.add
        for index in indices:
            add(column[index])

    def add_count(self, count: int) -> None:
        """Consume *count* non-null sentinel inputs (the COUNT(*) path)."""
        add = self.add
        for _ in range(count):
            add(1)

    def state(self) -> object:
        """The partial state shipped between nodes."""
        raise NotImplementedError

    def merge_state(self, state: object) -> None:
        """Fold another node's partial state into this accumulator."""
        raise NotImplementedError

    def result(self) -> object:
        """The final aggregate value."""
        raise NotImplementedError

    #: Nominal wire size of the partial state (network cost model); None
    #: when it depends on the data, which ``state_bytes`` then answers.
    fixed_state_bytes: int | None = 8

    def state_bytes(self) -> int:
        """Nominal wire size of this partial state."""
        return self.fixed_state_bytes


class SumAccumulator(Accumulator):
    """SUM over non-null inputs (None if no input)."""

    def __init__(self) -> None:
        self._total: float | int | None = None

    def add(self, value: object) -> None:
        if value is None:
            return
        self._total = value if self._total is None else self._total + value

    def add_many(self, column: Sequence, indices: Iterable[int]) -> None:
        total = self._total
        for index in indices:
            value = column[index]
            if value is None:
                continue
            total = value if total is None else total + value
        self._total = total

    def state(self) -> object:
        return self._total

    def merge_state(self, state: object) -> None:
        if state is None:
            return
        self._total = state if self._total is None else self._total + state

    def result(self) -> object:
        return self._total


class CountAccumulator(Accumulator):
    """COUNT(expr) — counts non-null inputs; COUNT(*) feeds a sentinel."""

    def __init__(self) -> None:
        self._count = 0

    def add(self, value: object) -> None:
        if value is not None:
            self._count += 1

    def add_many(self, column: Sequence, indices: Iterable[int]) -> None:
        self._count += sum(1 for index in indices if column[index] is not None)

    def add_count(self, count: int) -> None:
        self._count += count

    def state(self) -> object:
        return self._count

    def merge_state(self, state: object) -> None:
        self._count += state  # type: ignore[operator]

    def result(self) -> object:
        return self._count


class AvgAccumulator(Accumulator):
    """AVG as (sum, count) so partials merge exactly."""

    fixed_state_bytes = 16

    def __init__(self) -> None:
        self._total: float = 0.0
        self._count = 0

    def add(self, value: object) -> None:
        if value is None:
            return
        self._total += value  # type: ignore[operator]
        self._count += 1

    def add_many(self, column: Sequence, indices: Iterable[int]) -> None:
        total = self._total
        count = self._count
        for index in indices:
            value = column[index]
            if value is None:
                continue
            total += value
            count += 1
        self._total = total
        self._count = count

    def state(self) -> object:
        return (self._total, self._count)

    def merge_state(self, state: object) -> None:
        total, count = state  # type: ignore[misc]
        self._total += total
        self._count += count

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

    def add_many(self, column: Sequence, indices: Iterable[int]) -> None:
        best = self._best
        for index in indices:
            value = column[index]
            if value is None:
                continue
            if best is None or value < best:  # type: ignore[operator]
                best = value
        self._best = best

    def state(self) -> object:
        return self._best

    def merge_state(self, state: object) -> None:
        self.add(state)

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

    def add_many(self, column: Sequence, indices: Iterable[int]) -> None:
        best = self._best
        for index in indices:
            value = column[index]
            if value is None:
                continue
            if best is None or value > best:  # type: ignore[operator]
                best = value
        self._best = best

    def state(self) -> object:
        return self._best

    def merge_state(self, state: object) -> None:
        self.add(state)

    def result(self) -> object:
        return self._best


class CountDistinctAccumulator(Accumulator):
    """COUNT(DISTINCT expr) — partials ship the distinct-value sets."""

    fixed_state_bytes = None

    def __init__(self) -> None:
        self._values: set = set()

    def add(self, value: object) -> None:
        if value is not None:
            self._values.add(value)

    def add_many(self, column: Sequence, indices: Iterable[int]) -> None:
        self._values.update(
            value
            for value in (column[index] for index in indices)
            if value is not None
        )

    def state(self) -> object:
        return self._values

    def merge_state(self, state: object) -> None:
        self._values |= state  # type: ignore[operator]

    def result(self) -> object:
        return len(self._values)

    def state_bytes(self) -> int:
        return 8 * max(1, len(self._values))


_FACTORIES: dict[str, type[Accumulator]] = {
    "sum": SumAccumulator,
    "count": CountAccumulator,
    "avg": AvgAccumulator,
    "min": MinAccumulator,
    "max": MaxAccumulator,
    "count_distinct": CountDistinctAccumulator,
}


def accumulator_factory(func: str) -> type[Accumulator]:
    """The accumulator class for aggregate function *func*."""
    try:
        return _FACTORIES[func]
    except KeyError:
        raise ExecutionError(f"unknown aggregate function {func!r}") from None


def make_accumulator(func: str) -> Accumulator:
    """Instantiate the accumulator for aggregate function *func*."""
    return accumulator_factory(func)()
