"""The execution engine: physical plans, backends, and accounting.

The engine turns an :class:`~repro.query.rewrite.Annotated` logical plan
into a tree of self-contained physical operators (:mod:`.operators`) via
the physical compiler (:mod:`.compile`), and schedules their
per-(operator, partition) tasks through a pluggable backend
(:mod:`.backends`).  All cost accounting flows through an
:class:`~repro.engine.context.ExecutionContext` (:mod:`.context`): one
lock-free recorder of per-operator × per-node records, from which the
:class:`~repro.query.cost.ExecutionStats` totals are derived, plus an
optional trace hook.

Exports are resolved lazily (PEP 562): the engine and :mod:`repro.query`
import each other's submodules, and an eager package init here would
re-enter half-initialised modules when the engine is imported first
(e.g. via :mod:`repro.cluster`).
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.backends import (
        Backend,
        SerialBackend,
        ThreadPoolBackend,
        make_backend,
    )
    from repro.engine.compile import compile_plan
    from repro.engine.context import (
        ContextDelta,
        ExecutionContext,
        OperatorStats,
        TraceEvent,
        format_operator_stats,
    )
    from repro.engine.operators import PhysicalOperator

#: Export name -> defining submodule, resolved on first attribute access.
_EXPORTS = {
    "Backend": "repro.engine.backends",
    "SerialBackend": "repro.engine.backends",
    "ThreadPoolBackend": "repro.engine.backends",
    "make_backend": "repro.engine.backends",
    "compile_plan": "repro.engine.compile",
    "ContextDelta": "repro.engine.context",
    "ExecutionContext": "repro.engine.context",
    "OperatorStats": "repro.engine.context",
    "TraceEvent": "repro.engine.context",
    "format_operator_stats": "repro.engine.context",
    "PhysicalOperator": "repro.engine.operators",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
