"""Row-set canonicalisation and comparison for the differential runner.

Two comparison strengths:

* **exact** — used between engine backends (serial vs thread):
  the backends are required to produce *identical* row lists and
  canonical :class:`~repro.query.cost.ExecutionStats`.
* **tolerant multiset** — used against the oracles: row order is
  unspecified and floating-point aggregates may differ in the last ulp
  (two-phase partial merges sum in a different order than a naive
  single pass), so rows are sorted into a canonical order and floats
  compared with a tiny relative tolerance.  SQL type coercions are
  honoured: ``True == 1`` and ``1 == 1.0``.
"""

from __future__ import annotations

import math

from repro.engine.rows import _sort_key

Row = tuple


def canonical_rows(rows: list) -> list[Row]:
    """Rows as tuples, sorted into a total order (NULLs first)."""
    return sorted(
        (tuple(row) for row in rows),
        key=lambda row: tuple(_sort_key(value) for value in row),
    )


def values_equal(a: object, b: object, tolerance: bool = True) -> bool:
    """SQL-value equality; floats compared with tolerance when asked."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        # bool is an int subclass: True == 1, matching SQL storage.
        if tolerance and (isinstance(a, float) or isinstance(b, float)):
            return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
        return a == b
    return a == b


def rows_equal(a: list, b: list, tolerance: bool = True) -> bool:
    """Multiset equality of two row collections."""
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(canonical_rows(a), canonical_rows(b)):
        if len(row_a) != len(row_b):
            return False
        if not all(
            values_equal(va, vb, tolerance=tolerance)
            for va, vb in zip(row_a, row_b)
        ):
            return False
    return True


def span_trees_equal(a, b) -> bool:
    """Canonical (timing-free) equality of two query traces.

    *a*/*b* are :class:`~repro.obs.span.QueryTrace` objects: span-tree
    shape, row/shuffle/dup counters and merged metrics must match;
    wall times and worker identities are excluded by canonicalisation.
    """
    if a is None or b is None:
        return a is None and b is None
    return a.canonical() == b.canonical()


def span_tree_diff(label_a: str, a, label_b: str, b, limit: int = 5) -> str:
    """First-differences summary between two traces' span trees."""
    if a is None or b is None:
        return f"{label_a}: {'no trace' if a is None else 'trace'}, " \
               f"{label_b}: {'no trace' if b is None else 'trace'}"
    lines = []
    spans_a = {span.op_id: span for span in a.spans()}
    spans_b = {span.op_id: span for span in b.spans()}
    shown = 0
    for op_id in sorted(set(spans_a) | set(spans_b)):
        span_a, span_b = spans_a.get(op_id), spans_b.get(op_id)
        if span_a is None or span_b is None:
            lines.append(
                f"  op {op_id}: only in "
                f"{label_a if span_b is None else label_b}"
            )
        else:
            own_a = dict(span_a.own_canonical())  # children are compared
            own_b = dict(span_b.own_canonical())  # via their own op_ids
            differing = [name for name in own_a if own_a[name] != own_b[name]]
            if not differing:
                continue
            lines.append(
                f"  op {op_id} ({span_a.label}): "
                + "; ".join(
                    f"{name} {label_a}={own_a[name]!r} {label_b}={own_b[name]!r}"
                    for name in differing
                )
            )
        shown += 1
        if shown >= limit:
            lines.append("  ...")
            break
    if not lines and a.metrics.canonical() != b.metrics.canonical():
        lines.append("  merged metrics registries differ")
    return "\n".join([f"span trees diverge ({label_a} vs {label_b}):"] + lines)


def diff_summary(label_a: str, a: list, label_b: str, b: list, limit: int = 3) -> str:
    """Human-readable first-differences summary for divergence reports."""
    ca, cb = canonical_rows(a), canonical_rows(b)
    lines = [f"{label_a}: {len(ca)} rows, {label_b}: {len(cb)} rows"]
    shown = 0
    for i in range(max(len(ca), len(cb))):
        row_a = ca[i] if i < len(ca) else "<missing>"
        row_b = cb[i] if i < len(cb) else "<missing>"
        if (
            row_a == "<missing>"
            or row_b == "<missing>"
            or len(row_a) != len(row_b)
            or not all(values_equal(x, y) for x, y in zip(row_a, row_b))
        ):
            lines.append(f"  row {i}: {label_a}={row_a!r} {label_b}={row_b!r}")
            shown += 1
            if shown >= limit:
                lines.append("  ...")
                break
    return "\n".join(lines)
