"""Aggregation state is columns: the kernels against the row accumulators.

``PhysicalAggregate`` keeps a group's state as a slot in one state column
per aggregate and folds value columns in one of two loop shapes.  The
reference is what the row accumulators (``add``/``result``, the classes
``LocalExecutor`` runs) give: one pass for ``single``/``local``; for
``two_phase`` one pass per source partition, the states then merged in
source order on the group's hash target — which is what the engine
computed while a group's state was a list of accumulator objects.
Pinned, bit for bit (``float.hex``) and in row order:

* the six functions x NULL-free / NULL-bearing / all-NULL groups x
  scalar / one bare key / a multi-column key with strings x every row
  its own group / a few heavy groups / no rows x the three strategies;
* the by-row and by-group fold shapes give identical state columns;
* the exchange charges a shipped ``count_distinct`` state by its size
  before any merge, and a partial is plain ``(keys, columns)`` lists;
* no fold may reassociate a float sum (``math.fsum`` would differ).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import operators
from repro.engine.context import ExecutionContext
from repro.engine.operators import PhysicalAggregate, PhysicalOperator
from repro.engine.rows import ColumnBatch
from repro.partitioning.scheme import hash_router, stable_hash
from repro.query import aggregates
from repro.query.aggregates import AGGREGATES, make_accumulator
from repro.query.expressions import col
from repro.query.plan import Aggregate, AggregateSpec, Scan
from repro.query.relation import Method, PartInfo, RelProps
from repro.query.rewrite import Annotated

NODES = 3
COLUMNS = ("t.k", "t.s", "t.v")
#: Every function over ``t.v``, plus COUNT(*): seven folds read one batch.
SPECS = tuple(
    AggregateSpec(func, col("t.v"), f"a_{func}") for func in AGGREGATES
) + (AggregateSpec("count", None, "a_star"),)
GROUPINGS = {"scalar": (), "bare": ("t.k",), "multi": ("t.k", "t.s")}


# -- a two-operator tree built by hand ---------------------------------------


class Source(PhysicalOperator):
    """A leaf that holds preset partition batches."""

    name = "scan"

    def __init__(self, method: Method, partitions: list[list[tuple]]) -> None:
        props = RelProps(
            COLUMNS, (None,) * 3, (8,) * 3, PartInfo(method, len(partitions))
        )
        super().__init__(Annotated(Scan("t"), props), [], len(partitions))
        for p, rows in enumerate(partitions):
            self.store_batch(p, ColumnBatch.from_rows(rows, 3))


def aggregate_op(partitions, group_by, strategy, specs=SPECS) -> PhysicalAggregate:
    method = Method.GATHERED if strategy == "single" else Method.HASHED
    child = Source(method, partitions)
    width = len(group_by) + len(specs)
    props = RelProps(
        group_by + tuple(spec.name for spec in specs),
        (None,) * width,
        (8,) * width,
        PartInfo(Method.HASHED, NODES),
    )
    node = Aggregate(Scan("t"), group_by, specs)
    op = PhysicalAggregate(
        Annotated(node, props, extra={"strategy": strategy}),
        child,
        NODES,
        hash_router(NODES),
    )
    child.op_id, op.op_id = 0, 1
    return op


def run(op: PhysicalAggregate):
    """Drive the task protocol; ``(rows per output partition, record)``."""
    ctx = ExecutionContext(NODES)
    ctx.register(op)
    for p in range(op.prepare_count):
        op.prepare_partition(ctx, p)
    if op.barrier:
        op.exchange(ctx)
    for p in range(op.output_count):
        op.run_partition(ctx, p)
    out = [op.partition_batch(p).to_rows() for p in range(op.output_count)]
    return out, ctx.record(op)


# -- the row reference --------------------------------------------------------


def exact(value):
    """*value* with every float spelled bit for bit (``-0.0`` is not
    ``0.0``), through rows, state tuples, lists and sets."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (tuple, list)):
        return type(value)(exact(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(exact(item) for item in value)
    return value


def row_groups(rows, positions, specs) -> dict:
    """``key -> [accumulator per spec]`` in first-occurrence order: the
    loop ``LocalExecutor._aggregate`` runs."""
    groups: dict = {}
    for row in rows:
        key = tuple(row[p] for p in positions)
        accs = groups.get(key)
        if accs is None:
            accs = groups[key] = [make_accumulator(spec.func) for spec in specs]
        for acc, spec in zip(accs, specs):
            acc.add(row[2] if spec.expr is not None else 1)
    return groups


# What a partial state is, and how two merge: the accumulators' own
# fields, combined as ``merge_state`` combined them (first state first).
STATE = {
    "sum": lambda acc: acc.result(),
    "count": lambda acc: acc.result(),
    "avg": lambda acc: (acc._total, acc._count),
    "min": lambda acc: acc.result(),
    "max": lambda acc: acc.result(),
    "count_distinct": lambda acc: set(acc._values),
}
MERGE = {
    "sum": lambda a, b: a if b is None else b if a is None else a + b,
    "count": lambda a, b: a + b,
    "avg": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "min": lambda a, b: a if b is None else b if a is None or b < a else a,
    "max": lambda a, b: a if b is None else b if a is None or b > a else a,
    "count_distinct": lambda a, b: a | b,
}
RESULT = {
    "avg": lambda state: state[0] / state[1] if state[1] else None,
    "count_distinct": len,
}
WIDTH = {"avg": lambda state: 16, "count_distinct": lambda s: 8 * max(1, len(s))}


def reference(partitions, group_by, strategy, specs=SPECS):
    """``(rows per output partition, shipped bytes, shipped states)``."""
    positions = [COLUMNS.index(name) for name in group_by]
    funcs = [spec.func for spec in specs]

    def finish(key, values):
        return key + tuple(values)

    def empty_row():
        return finish((), (make_accumulator(func).result() for func in funcs))

    if strategy != "two_phase":
        out = []
        for rows in partitions:
            groups = row_groups(rows, positions, specs)
            part = [
                finish(key, (acc.result() for acc in accs))
                for key, accs in groups.items()
            ]
            out.append(part or ([] if group_by else [empty_row()]))
        return out, 0, 0
    merged: list[dict] = [{} for _ in range(NODES if group_by else 1)]
    shipped_bytes = shipped = 0
    for source, rows in enumerate(partitions):
        for key, accs in row_groups(rows, positions, specs).items():
            bare = key[0] if len(key) == 1 else key
            target = stable_hash(bare) % NODES if group_by else 0
            states = [STATE[func](acc) for func, acc in zip(funcs, accs)]
            if target != source:
                shipped += 1
                shipped_bytes += 8 * max(len(group_by), 1) + sum(
                    WIDTH.get(func, lambda state: 8)(state)
                    for func, state in zip(funcs, states)
                )
            held = merged[target].get(key)
            if held is None:
                merged[target][key] = states
            else:
                held[:] = [
                    MERGE[func](a, b) for func, a, b in zip(funcs, held, states)
                ]
    out = [
        [
            finish(
                key,
                (
                    RESULT.get(func, lambda state: state)(state)
                    for func, state in zip(funcs, states)
                ),
            )
            for key, states in bucket.items()
        ]
        for bucket in merged
    ]
    if not group_by and not out[0]:
        out[0] = [empty_row()]
    return out, shipped_bytes, shipped


def check(partitions, grouping, strategy, specs=SPECS) -> None:
    group_by = GROUPINGS[grouping]
    if strategy == "single":
        partitions = [[row for rows in partitions for row in rows]]
    op = aggregate_op(partitions, group_by, strategy, specs)
    got, record = run(op)
    want, shipped_bytes, shipped = reference(partitions, group_by, strategy, specs)
    assert exact(got) == exact(want)
    assert (record.network_bytes, record.rows_shipped) == (shipped_bytes, shipped)
    for keys, columns in op.prepared.values():
        # Plain lists, no objects.
        assert type(keys) is list and all(type(c) is list for c in columns)


# -- the property -------------------------------------------------------------

numbers = st.one_of(
    st.sampled_from([0.1, -0.0, 0.0, 1e16, 1.0, -1e16, 0.3, 2.5, 1e-9]),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
names = st.sampled_from(["", "a", "b", "Customer#000000001"])


@st.composite
def cases(draw):
    spread = draw(st.sampled_from(["own", "heavy", "empty"]))
    nulls = draw(st.sampled_from(["free", "some", "groups"]))
    count = 0 if spread == "empty" else draw(st.integers(1, 40))
    # All-NULL groups: every value of the chosen keys is NULL.
    null_keys = draw(st.sets(st.integers(0, 2))) if nulls == "groups" else set()
    partitions: list[list[tuple]] = [[] for _ in range(NODES)]
    for index in range(count):
        key = index if spread == "own" else draw(st.integers(0, 2))
        if spread == "heavy" and draw(st.integers(0, 9)) == 0:
            key = draw(st.sampled_from([None, True, 1.0]))  # NULL key; 1 == True
        value = draw(numbers)
        if key in null_keys or (nulls == "some" and draw(st.booleans())):
            value = None
        partitions[draw(st.integers(0, NODES - 1))].append(
            (key, draw(names), value)
        )
    return partitions


@pytest.mark.parametrize("strategy", ["single", "local", "two_phase"])
@pytest.mark.parametrize("grouping", list(GROUPINGS))
@settings(max_examples=60, deadline=None)
@given(partitions=cases())
def test_columnar_aggregate_equals_the_row_accumulators(
    partitions, grouping, strategy
):
    check(partitions, grouping, strategy)


@settings(max_examples=100, deadline=None)
@given(partitions=cases(), grouping=st.sampled_from(["bare", "multi"]))
def test_both_fold_shapes_give_identical_state_columns(partitions, grouping):
    rows = [row for part in partitions for row in part]
    op = aggregate_op([rows], GROUPINGS[grouping], "single")
    batch = op.inputs[0].partition_batch(0)
    shapes = {}
    constant = operators.GROUP_FOLD_ROWS
    try:
        for shape, forced in (("by_group", 0), ("by_row", 10**9)):
            operators.GROUP_FOLD_ROWS = forced
            shapes[shape] = op._partial_states(batch)
    finally:
        operators.GROUP_FOLD_ROWS = constant
    assert exact(shapes["by_row"]) == exact(shapes["by_group"])
    keys, columns = shapes["by_row"]
    assert len(columns) == len(SPECS)
    assert all(len(column) == len(keys) for column in columns)


def test_the_fold_shape_follows_the_batch(monkeypatch):
    """Few rows a group fold by row, many by group — nothing else decides."""
    calls = []
    spied = AGGREGATES["sum"]._replace(
        fold=lambda column, rows: calls.append("by_group"),
        fold_rows=lambda gids, values, groups: calls.append("by_row") or [],
    )
    monkeypatch.setitem(AGGREGATES, "sum", spied)
    specs = (AggregateSpec("sum", col("t.v"), "s"),)
    dense = [(index % 2, "", 1.0) for index in range(4 * operators.GROUP_FOLD_ROWS)]
    sparse = [(index, "", 1.0) for index in range(40)]
    for rows in (dense, sparse):
        op = aggregate_op([rows], ("t.k",), "single", specs)
        op._partial_states(op.inputs[0].partition_batch(0))
    assert calls == ["by_group", "by_group", "by_row"]


def test_folds_never_share_an_iterator():
    """COUNT(*) has no value column: each fold must get its own rows, in
    every shape (a shared ``repeat(1, n)`` fed the first fold only)."""
    specs = (
        AggregateSpec("count", None, "n1"),
        AggregateSpec("sum", col("t.v"), "s"),
        AggregateSpec("count", None, "n2"),
        AggregateSpec("count", col("t.v"), "n3"),
    )
    rows = [(index % 3, "a", 1.0 if index % 4 else None) for index in range(90)]
    partitions = [rows[0::3], rows[1::3], rows[2::3]]
    for grouping in GROUPINGS:
        for strategy in ("single", "local", "two_phase"):
            check(partitions, grouping, strategy, specs)
    op = aggregate_op([rows], (), "single", specs)
    assert run(op)[0] == [[(90, 67.0, 90, 67)]]


def test_distinct_states_are_charged_before_merging():
    """Two sources ship a set for one key each: the charge is the two
    shipped sizes, not the size of their union, and a second exchange
    over the same partials (a re-run) charges and answers the same."""
    specs = (AggregateSpec("count_distinct", col("t.v"), "d"),)
    key = next(k for k in range(100) if stable_hash(k) % NODES == 0)
    partitions = [
        [(key, "", 1)],
        [(key, "", value) for value in (1, 2, 3)],
        [(key, "", value) for value in (3, 4, 5, 6, None)],
    ]
    op = aggregate_op(partitions, ("t.k",), "two_phase", specs)
    out, record = run(op)
    assert out[0] == [(key, 6)]
    assert record.rows_shipped == 2
    assert record.network_bytes == (8 + 8 * 3) + (8 + 8 * 4)
    shipped = exact(sorted(op.prepared.items()))
    ctx = ExecutionContext(NODES)
    op.exchange(ctx)
    assert exact(sorted(op.prepared.items())) == shipped
    assert ctx.record(op).network_bytes == record.network_bytes
    assert op.exchanged[0].to_rows() == [(key, 6)]


# -- float order ---------------------------------------------------------------

TRAPS = ([0.1] * 10, [1e16, 1.0, -1e16], [-0.0], [0.1, None, 0.2, 0.3])


def accumulated(func: str, values: list):
    acc = make_accumulator(func)
    for value in values:
        acc.add(value)
    return acc


def every_shape(func: str, values: list) -> dict:
    """The result of *func* over *values* (one group) by every route: one
    pass in either shape, and two partials (split in half, folded in
    either shape) merged."""
    function = AGGREGATES[func]
    count = len(values)
    half = count // 2
    by_group_partials = [
        function.fold(values, range(half)),
        function.fold(values, range(half, count)),
    ]
    by_row_partials = [
        function.fold_rows([0] * half, values[:half], 1)[0],
        function.fold_rows([0] * (count - half), values[half:], 1)[0],
    ]
    states = {
        "by_group": [function.fold(values, range(count))],
        "by_row": function.fold_rows([0] * count, values, 1),
        "merged_by_group": function.merge_rows([0, 0], by_group_partials, 1),
        "merged_by_row": function.merge_rows([0, 0], by_row_partials, 1),
    }
    return {shape: function.result(state)[0] for shape, state in states.items()}


@pytest.mark.parametrize("values", TRAPS)
@pytest.mark.parametrize("func", ["sum", "avg"])
def test_every_fold_shape_adds_in_row_order(func, values):
    one_pass = accumulated(func, values).result()
    # Two partials are a different sum ((0.1 x 5) + (0.1 x 5) is not
    # 0.1 x 10): their reference is the two accumulators' states merged.
    half = len(values) // 2
    first, second = (
        STATE[func](accumulated(func, part))
        for part in (values[:half], values[half:])
    )
    merged = RESULT.get(func, lambda state: state)(MERGE[func](first, second))
    for shape, result in every_shape(func, values).items():
        want = merged if shape.startswith("merged") else one_pass
        assert float.hex(result) == float.hex(want), shape


def test_the_float_reference_can_fail():
    """The traps tell a reassociating sum from the row loop: ``math.fsum``
    (what builtin ``sum`` does from Python 3.12) differs on both, and
    SUM of ``-0.0`` keeps its sign only when it starts from the value."""
    for values in TRAPS[:2]:
        row_loop = float.hex(accumulated("sum", values).result())
        assert float.hex(math.fsum(values)) != row_loop
        assert float.hex(every_shape("sum", values)["by_row"]) == row_loop
    assert float.hex(every_shape("sum", [-0.0])["by_group"]) == "-0x0.0p+0"
    assert float.hex(0 + -0.0) == "0x0.0p+0"
    assert float.hex(every_shape("avg", [-0.0])["by_row"]) == "0x0.0p+0"


# -- teeth: the property catches a wrong kernel --------------------------------

#: Source 0 and source 1 each hold rows of key 0; 1e16 + 1.0 - 1e16 is
#: 0.0 in row order and 1.0 or 2.0 in any other.
TEETH = [
    [(0, "a", 1e16), (0, "a", 1.0), (0, "a", -1e16), (0, "a", 1.0)],
    [(0, "a", 0.1), (0, "a", 0.2)],
    [],
]


def _avg_merge_from_second(gids, shipped, groups):
    states = list(shipped)
    return aggregates._avg_merge(gids[1:], states[1:], groups)


def _sum_descending(column, rows):
    return aggregates._sum(column, reversed(rows))


def _sum_rows_descending(gids, values, groups):
    pairs = list(zip(gids, values))[::-1]
    return aggregates._sum_rows(
        [g for g, _ in pairs], [value for _, value in pairs], groups
    )


@pytest.mark.parametrize(
    "func, broken",
    [
        ("avg", {"merge_rows": _avg_merge_from_second}),
        ("sum", {"fold": _sum_descending, "fold_rows": _sum_rows_descending}),
    ],
)
def test_a_wrong_kernel_is_caught(monkeypatch, func, broken):
    check(TEETH, "bare", "two_phase")
    check(TEETH, "scalar", "single")
    monkeypatch.setitem(AGGREGATES, func, AGGREGATES[func]._replace(**broken))
    with pytest.raises(AssertionError):
        check(TEETH, "bare", "two_phase")
    if func == "sum":
        with pytest.raises(AssertionError):
            check(TEETH, "scalar", "single")
