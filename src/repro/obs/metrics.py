"""A thread-safe registry of counters and histograms for the engine.

Every recorder of a query (:class:`~repro.engine.context.ContextDelta`,
the query's :class:`~repro.engine.context.ExecutionContext` included)
owns a plain, lock-free registry for what has no per-operator home — the
per-partition row histogram and the task metrics — and the context folds
finished recorders in through :meth:`MetricsRegistry.merge`.  The
``engine.*`` row/byte/shuffle counters are not recorded at all: the
context derives them from the per-operator records when the query
finishes.  Both paths only ever sum integers, which is what makes the
totals independent of task-completion order and identical across the
serial and thread backends.

A counter at zero and a counter that was never touched are the same
observation: derived counters are emitted only when non-zero, and
:meth:`MetricsRegistry.counter` reads zero for an absent name.

Two metric kinds:

* **counters** — monotonically increasing numbers (row counts, bytes,
  shuffle round-trips).  All engine counters are integers, so merging is
  exact in any order.
* **histograms** — fixed-bucket distributions (per-partition row counts
  for skew, task wall times).  Bucket boundaries are fixed at creation,
  so merging is a per-bucket sum and therefore commutative.

Wall-clock metrics live under the ``time.`` prefix and are excluded from
:meth:`MetricsRegistry.canonical`, the comparison form used by the
backend-equivalence checks (timings are scheduling artefacts; counts are
not); so are the access-path counters under ``engine.access.``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

#: Default buckets for row-count distributions (upper bounds, inclusive).
ROW_BUCKETS: tuple[float, ...] = (
    1.0, 8.0, 64.0, 512.0, 4096.0, 32768.0, 262144.0, float("inf"),
)

#: Default buckets for wall-time distributions, in seconds.
TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, float("inf"),
)

#: Finer-grained buckets for per-query serving latency, in seconds: the
#: serving layer's p50/p99 estimates come from these, so they resolve the
#: sub-millisecond cache-hit regime and the multi-second tail separately.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0002, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, float("inf"),
)

#: Buckets for queue-depth samples (small-integer distribution).
DEPTH_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, float("inf"),
)

#: Metric-name prefix whose values are wall-clock measurements and must
#: be excluded from cross-backend comparisons.
TIMING_PREFIX = "time."

#: Metric-name prefix of the counters that say which access path the
#: engine took (a partition's kept sorted column or a pass over every
#: row).  That depends on what earlier queries left in the store, not on
#: the query, so they too stay out of the comparison form.
ACCESS_PREFIX = "engine.access."


class Histogram:
    """A fixed-bucket histogram; merging sums per-bucket counts.

    It also keeps the smallest and largest sample (merged by min and max,
    and outside :meth:`canonical`), which bound what :meth:`quantile`
    reads between two bucket bounds.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, buckets: tuple[float, ...]) -> None:
        if not buckets or buckets[-1] != float("inf"):
            buckets = tuple(buckets) + (float("inf"),)
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * len(self.buckets)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        # The first bucket whose (inclusive) upper bound is >= value.
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name!r}: incompatible buckets "
                f"{other.buckets!r} != {self.buckets!r}"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def canonical(self) -> tuple:
        """Comparable form: buckets and counts, no float totals."""
        return (self.name, self.buckets, tuple(self.counts), self.count)

    def quantile(self, q: float) -> float:
        """Estimated *q*-quantile (0 < q <= 1) from the bucket counts.

        The rank ``q * count`` falls into one bucket; the estimate
        interpolates linearly within it, between the bucket's bounds
        narrowed to the smallest and largest sample (the open-ended final
        bucket ends at the largest).  So it never leaves the observed
        range: 100 samples of 3 ms give a p99 of 3 ms, not the 5 ms
        bucket bound.  Returns 0.0 for an empty histogram.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count and cumulative + bucket_count >= rank:
                lower = max(self.buckets[index - 1], self.min) if index else self.min
                upper = min(self.buckets[index], self.max)
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return self.max  # pragma: no cover - cumulative always reaches count

    def as_dict(self) -> dict:
        return {
            "buckets": [b for b in self.buckets],
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }


class MetricsRegistry:
    """Named counters and histograms with commutative merging.

    A shared registry (``locked=True``, e.g. the serving layer's) may be
    updated from any thread; the engine's per-recorder registries are
    single-owner and skip the lock.
    """

    def __init__(self, locked: bool = True) -> None:
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock() if locked else None

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        """Add *amount* to counter *name* (created at zero)."""
        if self._lock is None:
            self.counters[name] = self.counters.get(name, 0) + amount
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def observe(
        self, name: str, value: float, buckets: tuple[float, ...] = ROW_BUCKETS
    ) -> None:
        """Record *value* into histogram *name* (created with *buckets*)."""
        if self._lock is None:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram(name, buckets)
            histogram.observe(value)
            return
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram(name, buckets)
            histogram.observe(value)

    # -- merging -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other* into this registry (commutative: sums only)."""
        if self._lock is not None:
            with self._lock:
                self._merge(other)
        else:
            self._merge(other)

    def _merge(self, other: "MetricsRegistry") -> None:
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, histogram in other.histograms.items():
            existing = self.histograms.get(name)
            if existing is None:
                copy = Histogram(name, histogram.buckets)
                copy.merge(histogram)
                self.histograms[name] = copy
            else:
                existing.merge(histogram)

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of counter *name* (zero if never incremented)."""
        return self.counters.get(name, 0)

    def snapshot(self) -> dict:
        """A plain-data snapshot of every metric (JSON-serialisable)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def canonical(
        self, exclude_prefixes: tuple[str, ...] = (TIMING_PREFIX, ACCESS_PREFIX)
    ) -> tuple:
        """Order-independent comparable form, excluding timing and
        access-path metrics.

        Two backends that executed the same query must produce equal
        canonical registries regardless of scheduling or the order their
        deltas merged in.
        """
        counters = tuple(
            (name, value)
            for name, value in sorted(self.counters.items())
            if not name.startswith(exclude_prefixes)
        )
        histograms = tuple(
            histogram.canonical()
            for name, histogram in sorted(self.histograms.items())
            if not name.startswith(exclude_prefixes)
        )
        return (counters, histograms)
