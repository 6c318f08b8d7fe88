"""``EXPLAIN ANALYZE`` rendering and JSON export of query traces.

Three output contracts, all over the same :class:`~repro.obs.span.QueryTrace`:

* :func:`render_analyze` — the human text form: one line per operator,
  the rewriter's static ``Part``/``Dup`` annotation side by side with the
  measured rows, shuffle volume, duplicate elimination, locality ratio
  and per-partition skew.
* :func:`trace_to_json` — a plain-dict export that validates against the
  checked-in ``trace_schema.json`` (CI asserts this on every backend).
* :func:`validate_trace` — an in-house validator for the JSON-Schema
  subset the trace schema uses (the container deliberately has no
  third-party ``jsonschema``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine.context import COUNTERS
from repro.obs.span import STATIC, OperatorSpan, QueryTrace

#: Location of the JSON schema the exported traces must satisfy.
SCHEMA_PATH = Path(__file__).with_name("trace_schema.json")


# --------------------------------------------------------------------------
# JSON export
# --------------------------------------------------------------------------


#: Span properties computed from the tree, exported beside the fields.
DERIVED = ("rows_in", "seconds", "locality", "skew")


def span_to_json(span: OperatorSpan) -> dict:
    """One span (and its subtree) as schema-conforming plain data: the
    static fields, every declared counter, the derived properties, then
    the structured measurements."""
    names = (*STATIC, *(counter.name for counter in COUNTERS), *DERIVED)
    data = {}
    for name in names:
        value = getattr(span, name)
        data[name] = list(value) if isinstance(value, tuple) else value
    data["rows_out_by_partition"] = {
        str(partition): rows
        for partition, rows in sorted(span.rows_out_by_partition.items())
    }
    data["node_work"] = list(span.node_work)
    data["tasks"] = [
        {
            "phase": task.phase,
            "node_id": task.node_id,
            "seconds": task.seconds,
            "worker": task.worker,
        }
        for task in span.tasks
    ]
    data["children"] = [span_to_json(child) for child in span.children]
    return data


def trace_to_json(trace: QueryTrace) -> dict:
    """The whole trace as plain data (``json.dumps``-able)."""
    return {
        "version": 1,
        "query": trace.query,
        "backend": trace.backend,
        "node_count": trace.node_count,
        "root": span_to_json(trace.root),
        "metrics": trace.metrics.snapshot(),
    }


def dump_trace(trace: QueryTrace, path: str | Path) -> None:
    """Write the JSON export of *trace* to *path*."""
    Path(path).write_text(json.dumps(trace_to_json(trace), indent=2))


# --------------------------------------------------------------------------
# Schema validation (in-house JSON-Schema subset)
# --------------------------------------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def load_trace_schema() -> dict:
    """The checked-in trace schema, parsed."""
    return json.loads(SCHEMA_PATH.read_text())


def validate_trace(data: object, schema: dict | None = None) -> list[str]:
    """Validate *data* against *schema* (default: the trace schema).

    Returns a list of human-readable violations — empty means valid.
    Supports the subset of JSON Schema the trace schema uses: ``type``
    (single or list), ``properties`` + ``required`` +
    ``additionalProperties``, ``items``, ``enum``, ``minimum``, and
    local ``$ref``/``$defs`` (which is what makes the recursive span
    definition work).
    """
    root = schema if schema is not None else load_trace_schema()
    errors: list[str] = []

    def resolve(node: dict) -> dict:
        while "$ref" in node:
            reference = node["$ref"]
            if not reference.startswith("#/"):
                raise ValueError(f"unsupported $ref {reference!r}")
            target: object = root
            for part in reference[2:].split("/"):
                target = target[part]  # type: ignore[index]
            node = target  # type: ignore[assignment]
        return node

    def check_type(value: object, expected: str) -> bool:
        if expected == "number":
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if expected == "integer":
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, _TYPES[expected])

    def check(value: object, node: dict, path: str) -> None:
        node = resolve(node)
        declared = node.get("type")
        if declared is not None:
            options = declared if isinstance(declared, list) else [declared]
            if not any(check_type(value, option) for option in options):
                errors.append(
                    f"{path or '$'}: expected {declared}, "
                    f"got {type(value).__name__}"
                )
                return
        if "enum" in node and value not in node["enum"]:
            errors.append(f"{path or '$'}: {value!r} not in {node['enum']!r}")
        if "minimum" in node and isinstance(value, (int, float)):
            if not isinstance(value, bool) and value < node["minimum"]:
                errors.append(f"{path or '$'}: {value!r} < {node['minimum']}")
        if isinstance(value, dict):
            for name in node.get("required", ()):
                if name not in value:
                    errors.append(f"{path or '$'}: missing property {name!r}")
            properties = node.get("properties", {})
            additional = node.get("additionalProperties", True)
            for name, item in value.items():
                if name in properties:
                    check(item, properties[name], f"{path}.{name}")
                elif additional is False:
                    errors.append(f"{path or '$'}: unexpected property {name!r}")
                elif isinstance(additional, dict):
                    check(item, additional, f"{path}.{name}")
        if isinstance(value, list) and "items" in node:
            for index, item in enumerate(value):
                check(item, node["items"], f"{path}[{index}]")

    check(data, root, "")
    return errors


# --------------------------------------------------------------------------
# Text rendering
# --------------------------------------------------------------------------


def _annotation(span: OperatorSpan) -> str:
    """The rewriter's static annotation, matching ``Annotated.explain``."""
    parts = [span.method]
    if span.hash_columns:
        parts[0] += f" on {','.join(span.hash_columns)}"
    parts.append(f"dup={int(span.dup)}")
    if span.strategy:
        strategy = span.strategy
        if span.case:
            strategy += f"/{span.case}"
        parts.append(strategy)
    return f"[{', '.join(parts)}]"


def _measured(span: OperatorSpan) -> str:
    """The measured counters (non-zero ones), aligned with the static
    annotation; ``rows_out`` renders as the ``rows=in->out`` arrow."""
    rows_in = span.rows_in
    arrow = f"{rows_in}->{span.rows_out}" if rows_in is not None else str(span.rows_out)
    shown = [f"rows={arrow}"]
    shown.extend(
        f"{counter.metadata['label']}={getattr(span, counter.name)}"
        for counter in COUNTERS
        if counter.name != "rows_out" and getattr(span, counter.name)
    )
    if span.examined_on:
        shown.append(f"entry={','.join(span.examined_on)}")
    locality = span.locality
    if locality is not None:
        shown.append(f"locality={locality:.0%}")
    skew = span.skew
    if skew is not None:
        shown.append(f"skew={skew:.2f}")
    shown.append(f"time={span.seconds * 1e3:.2f}ms")
    return "  ".join(shown)


def render_analyze(trace: QueryTrace) -> str:
    """The ``EXPLAIN ANALYZE`` text form of *trace*.

    One line per operator (plan order, children indented): static
    annotation, live of total columns, measured counters; then a totals
    footer from the merged metrics registry.
    """
    lines = []
    header = "EXPLAIN ANALYZE"
    if trace.query:
        header += f" {trace.query}"
    if trace.backend:
        header += f" (backend={trace.backend}, nodes={trace.node_count})"
    else:
        header += f" (nodes={trace.node_count})"
    lines.append(header)

    def walk(span: OperatorSpan, indent: int) -> None:
        lines.append(
            f"{'  ' * indent}{span.label} {_annotation(span)}  "
            f"cols {len(span.live_columns)}/{span.total_columns}  "
            f"{_measured(span)}"
        )
        for child in span.children:
            walk(child, indent + 1)

    walk(trace.root, 0)
    counters = trace.metrics.counters
    lines.append(
        "totals: "
        + "  ".join(
            f"{name.removeprefix('engine.')}={int(value)}"
            for name, value in sorted(counters.items())
            if name.startswith("engine.")
        )
    )
    return "\n".join(lines)
