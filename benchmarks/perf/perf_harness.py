"""Spans, timing wrappers and statistics shared by the four workloads.

Nothing under ``src/`` knows about the benchmark: every layer is measured
from here, by timing calls into its public functions and — in the traced
run only — by wrappers installed around the named functions in
:data:`WRAPPED`.  A span's *layer* is the part of its name before the
first dot and is one of this repository's packages (``workloads``,
``design``, ``partitioning``, ``sql``, ``query``, ``engine``, ``obs``,
``serve``) or ``bench`` for the benchmark's own bookkeeping.
"""

from __future__ import annotations

import functools
import gc
import importlib
import math
import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

#: Functions the traced run wraps: (module, owner class or None,
#: attribute, span name).  Modules that imported a function by name hold
#: their own reference, so each importing module is patched separately.
WRAPPED = (
    ("repro.serve.server", None, "normalize_sql", "serve.normalize_sql"),
    ("repro.serve.server", None, "sql_to_plan", "sql.sql_to_plan"),
    ("repro.cluster.cluster", None, "sql_to_plan", "sql.sql_to_plan"),
    ("repro.query.executor", "Executor", "annotate", "query.annotate"),
    (
        "repro.query.predicate_transfer",
        None,
        "apply_predicate_transfer",
        "query.apply_predicate_transfer",
    ),
    (
        "repro.query.executor",
        "Executor",
        "execute_annotated",
        "query.execute_annotated",
    ),
    ("repro.engine.compile", None, "compile_plan", "engine.compile_plan"),
    ("repro.engine.backends", "SerialBackend", "run", "engine.backend_run"),
    ("repro.engine.backends", "ThreadPoolBackend", "run", "engine.backend_run"),
    ("repro.obs.span", None, "build_trace", "obs.build_trace"),
)


class Span:
    """One timed interval; also the context manager that measures it.

    ``seconds`` is valid after the ``with`` block.  The span is kept in
    the tracer's log only while the tracer is recording, so the untraced
    run pays two clock reads per span and stores nothing.
    """

    __slots__ = (
        "tracer", "name", "request", "start", "end", "parent",
        "child_seconds", "attrs",
    )

    def __init__(self, tracer: "Tracer", name: str, request) -> None:
        self.tracer = tracer
        self.name = name
        self.request = request
        self.start = self.end = 0.0
        self.parent: Span | None = None
        self.child_seconds = 0.0
        self.attrs: dict | None = None

    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        if stack:
            self.parent = stack[-1]
            if self.request is None:
                self.request = self.parent.request
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self.tracer._stack().pop()
        if self.tracer.recording:
            self.tracer.spans.append(self)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the part its child spans cover (valid after
        :meth:`Tracer.link`)."""
        return max(0.0, self.seconds - self.child_seconds)


class Tracer:
    """An in-memory span log with one parent stack per thread."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, request=None) -> Span:
        return Span(self, name, request)

    def link(self, adopt: str | None = None, into: str | None = None) -> None:
        """Compute every span's child time.

        With *adopt*/*into*, root spans named *adopt* become children of
        the span named *into* that carries the same request id — the one
        place a request crosses threads (client session -> server worker).
        """
        if adopt is not None:
            owners = {
                span.request: span for span in self.spans if span.name == into
            }
            for span in self.spans:
                if span.name == adopt and span.parent is None:
                    span.parent = owners.get(span.request)
        for span in self.spans:
            span.child_seconds = 0.0
        for span in self.spans:
            if span.parent is not None:
                span.parent.child_seconds += span.seconds

    def self_seconds_since(self, mark: int, skip: str | None = None) -> Counter:
        """Self time by span name over the spans logged after *mark*,
        leaving out every span named *skip* and all beneath it."""
        totals: Counter = Counter()
        for span in self.spans[mark:]:
            ancestor = span
            while ancestor is not None and ancestor.name != skip:
                ancestor = ancestor.parent
            if ancestor is None:
                totals[span.name] += span.self_seconds
        return totals

    def export(self) -> list[dict]:
        """The log as plain data: name, layer, start, end, parent index
        and request id per span (times relative to the first span)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        origin = min((span.start for span in self.spans), default=0.0)
        rows = []
        for span in self.spans:
            row = {
                "name": span.name,
                "layer": span.layer,
                "start": span.start - origin,
                "end": span.end - origin,
                "parent": index.get(id(span.parent)),
                "request": span.request,
            }
            if span.attrs:
                row.update(span.attrs)
            rows.append(row)
        return rows


@contextmanager
def instrumented(tracer: Tracer, extra: Sequence[tuple] = ()) -> Iterator[None]:
    """Install the timing wrappers and record spans for the block.

    *extra* adds ``(module, class, attribute, span name, request_of)``
    sites whose span takes its request id from the call's arguments.
    The originals are restored on exit, so importing this module or
    running the untraced benchmark changes nothing in ``repro``.
    """
    installed = []
    sites = [site + (None,) for site in WRAPPED] + list(extra)
    for module_name, class_name, attr, span_name, request_of in sites:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = getattr(owner, attr)
        setattr(owner, attr, _timed(tracer, original, span_name, request_of))
        installed.append((owner, attr, original))
    tracer.recording = True
    try:
        yield
    finally:
        tracer.recording = False
        for owner, attr, original in installed:
            setattr(owner, attr, original)


def _timed(tracer: Tracer, original: Callable, span_name: str, request_of):
    @functools.wraps(original)
    def timed(*args, **kwargs):
        request = request_of(*args, **kwargs) if request_of else None
        with tracer.span(span_name, request):
            return original(*args, **kwargs)

    return timed


# --------------------------------------------------------------------------
# Set-up, measurement loop and statistics
# --------------------------------------------------------------------------

#: Times a workload sets up in one run; ``setup_s`` is the median.
SETUP_REPEATS = 3


def set_up(tracer: Tracer, build: Callable[[], object], repeats: int = SETUP_REPEATS):
    """Run *build* *repeats* times, each inside a ``bench.setup`` span;
    return the last product and the median seconds of every span name the
    set-ups logged.

    Set-up is always recorded (a handful of call-site spans) and never
    wrapped, so ``setup_s`` means the same with and without ``--trace``.
    """
    mark = len(tracer.spans)
    tracer.recording = True
    try:
        for _ in range(repeats):
            gc.collect()
            with tracer.span("bench.setup"):
                product = build()
    finally:
        tracer.recording = False
    by_name: dict[str, list[float]] = {}
    for span in tracer.spans[mark:]:
        by_name.setdefault(span.name, []).append(span.seconds)
    medians = {name: statistics.median(v) for name, v in by_name.items()}
    return product, medians


#: Fewest measured passes of a run, however short ``--seconds`` is.
MIN_PASSES = 8
#: Fewest plain and fewest instrumented passes of a traced run.
MIN_TRACED_PASSES = 2


def measure(
    tracer: Tracer,
    run_pass: Callable[[bool], None],
    seconds: float,
    traced: bool,
    extra: Sequence[tuple] = (),
) -> None:
    """Call ``run_pass(analyze)`` until *seconds* are over.

    An untraced run makes plain passes only.  A traced run spends a
    third of the time on plain passes — the base of the tracing-overhead
    figure — and the rest on instrumented ones (*extra* as in
    :func:`instrumented`).
    """
    if not traced:
        _passes(lambda: run_pass(False), seconds, MIN_PASSES)
        return
    _passes(lambda: run_pass(False), seconds / 3, MIN_TRACED_PASSES)
    with instrumented(tracer, extra):
        _passes(lambda: run_pass(True), 2 * seconds / 3, MIN_TRACED_PASSES)


def _passes(run_pass: Callable[[], None], seconds: float, min_passes: int) -> None:
    """The collector runs before each pass and stays enabled during it: a
    pass then starts from the same heap state without hiding what
    allocation costs the program."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < min_passes or time.perf_counter() < deadline:
        gc.collect()
        run_pass()
        done += 1


def quiet(samples_by_operation: dict[str, list[float]]) -> dict[str, float]:
    """The fastest observed time of each operation over the passes.

    Every pass repeats the same operations on the same data, so the
    samples of one operation differ only by what else the machine was
    doing.  On the 2-vCPU sandbox a fixed CPU-bound loop varies by
    +-25% from one 50 ms sample to the next and drifts over tens of
    seconds, and a median of wall times inherits all of it; the minimum
    over many short samples estimates the cost on a quiet machine and
    repeats several times better (README, "Noise").  Medians and
    quartiles of the raw samples are still written beside it.
    """
    return {name: min(samples) for name, samples in samples_by_operation.items()}


def quantile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles and every sample, as the detail file lists them."""
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
        "min": min(values),
        "max": max(values),
        "values": list(values),
    }


def same_rows(got: Iterable[Sequence], expected: Iterable[Sequence]) -> bool:
    """Multiset equality of two answers, floats compared to 9 digits.

    The distributed plan adds floats in another order than the
    single-node oracle, so sums differ in their last bits.  Rounding
    both sides and comparing exactly (the ISSUE's "6 places") fails when
    a value sits on a rounding boundary — AVG(l_discount) = 0.0528125
    did, at seed 30 — so rows are paired in sorted order and floats
    compared with a relative tolerance instead.
    """

    def key(row):
        exact = [(v is None, v) for v in row if not isinstance(v, float)]
        return exact, [v for v in row if isinstance(v, float)]

    got, expected = sorted(got, key=key), sorted(expected, key=key)
    if len(got) != len(expected):
        return False
    for row, other in zip(got, expected):
        if len(row) != len(other):
            return False
        for value, wanted in zip(row, other):
            if isinstance(value, float) and isinstance(wanted, float):
                if not math.isclose(value, wanted, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif value != wanted:
                return False
    return True
