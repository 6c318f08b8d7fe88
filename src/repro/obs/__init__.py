"""Query-lifecycle observability: metrics, spans, and EXPLAIN ANALYZE.

``repro.obs`` has three layers:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters and histograms whose deltas merge commutatively alongside the
  cost stats (identical totals on every backend);
* :mod:`repro.obs.span` — the :class:`QueryTrace`/:class:`OperatorSpan`
  span tree built from one finished execution, with measured locality
  and per-partition skew;
* :mod:`repro.obs.explain` — ``EXPLAIN ANALYZE`` text rendering, JSON
  export, and schema validation of traces.

Attributes are loaded lazily (PEP 562) so importing the metrics module
from the engine never drags the span/explain layers — or anything that
imports the engine — back in.
"""

from __future__ import annotations

_EXPORTS = {
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "ROW_BUCKETS": "repro.obs.metrics",
    "TIME_BUCKETS": "repro.obs.metrics",
    "TIMING_PREFIX": "repro.obs.metrics",
    "OperatorSpan": "repro.obs.span",
    "QueryTrace": "repro.obs.span",
    "TaskSpan": "repro.obs.span",
    "build_trace": "repro.obs.span",
    "dump_trace": "repro.obs.explain",
    "load_trace_schema": "repro.obs.explain",
    "render_analyze": "repro.obs.explain",
    "span_to_json": "repro.obs.explain",
    "trace_to_json": "repro.obs.explain",
    "validate_trace": "repro.obs.explain",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
