"""Replays of minimised fuzzer repros plus a bug-reintroduction check.

Each regression case is a hand-pinned (or fuzzer-minimised) IR dict run
through the full differential pipeline: partitioning, invariants, all
backends, the rewriter-ablation variant, LocalExecutor and sqlite3.
``run_case`` returning ``None`` means every check agreed.
"""

from repro.fuzz.runner import run_case, run_fuzz
from repro.query import local_executor
from repro.query.expressions import Comparison


def _table(name, columns, rows, pk=("id",)):
    return {"name": name, "columns": columns, "pk": list(pk), "rows": rows}


def _case(tables, config, queries, partitions=3, loads=None):
    return {
        "seed": "regression",
        "partitions": partitions,
        "tables": tables,
        "config": config,
        "loads": loads or {},
        "queries": queries,
        "variant": {"optimizations": True, "locality": True},
    }


def _scan(table, alias):
    return {"op": "scan", "table": table, "alias": alias}


def assert_consistent(case):
    divergence = run_case(case, backends=("serial", "thread"))
    assert divergence is None, divergence.describe()


def test_left_outer_group_by_right_key_null_group():
    """Fuzzer find (seed 0, case 433): a co-partitioned LEFT OUTER JOIN
    must not treat a GROUP BY on the *right* join key as partition-local —
    padded rows carry a NULL key in whatever partition their left row
    occupies, and the engine emitted one NULL group per partition."""
    case = _case(
        tables=[
            _table(
                "t0",
                [["id", "integer", False], ["d0", "boolean", True]],
                [[57, False], [58, None]],
            ),
            _table(
                "t2",
                [
                    ["id", "integer", False],
                    ["d0", "integer", False],
                    ["fk_t1", "integer", True],
                ],
                [[58, 0, 52]],
            ),
        ],
        config={
            "t0": {"kind": "hash", "columns": ["id"]},
            "t2": {"kind": "hash", "columns": ["fk_t1"]},
        },
        queries=[
            {
                "op": "aggregate",
                "group_by": ["a1.fk_t1"],
                "aggs": [],
                "input": {
                    "op": "join",
                    "kind": "left_outer",
                    "on": [["a0.id", "a1.fk_t1"]],
                    "residual": None,
                    "left": _scan("t0", "a0"),
                    "right": _scan("t2", "a1"),
                },
            }
        ],
        partitions=4,
    )
    case["variant"] = {"optimizations": True, "locality": False}
    assert_consistent(case)


def test_null_join_keys_never_match():
    """Rows whose join key is NULL pair with nothing — not even other
    NULLs — in inner, semi, anti and outer joins alike."""
    parent = _table("p", [["id", "integer", False]], [[1], [2]])
    child = _table(
        "c",
        [["id", "integer", False], ["fk", "integer", True]],
        [[10, 1], [11, None], [12, None], [13, 9]],
    )
    config = {
        "p": {"kind": "hash", "columns": ["id"]},
        "c": {"kind": "pref", "on": [["fk", "id"]], "referenced": "p"},
    }
    for kind in ("inner", "left_outer", "semi", "anti"):
        join = {
            "op": "join",
            "kind": kind,
            "on": [["a0.fk", "a1.id"]],
            "residual": None,
            "left": _scan("c", "a0"),
            "right": _scan("p", "a1"),
        }
        assert_consistent(_case([parent, child], config, [join]))


def test_local_null_join_keys_bug_is_caught(monkeypatch):
    """Meta-check: let NULL join keys match in LocalExecutor only.  The
    engine stays right, the plan certifies, so the disagreement is a
    certified plan's result diverging from the single-node answer."""
    child = _table(
        "c",
        [["id", "integer", False], ["fk", "integer", True]],
        [[10, 1], [11, None], [12, None], [13, 9]],
    )
    config = {"c": {"kind": "hash", "columns": ["id"]}}
    queries = [
        {
            "op": "join",
            "kind": kind,
            "on": [["a0.fk", "a1.fk"]],
            "residual": None,
            "left": _scan("c", "a0"),
            "right": _scan("c", "a1"),
        }
        for kind in ("inner", "semi")
    ]
    case = _case([child], config, queries)
    assert run_case(case, backends=("serial",)) is None
    monkeypatch.setattr(local_executor, "_null_free", lambda key: True)
    divergence = run_case(case, backends=("serial",))
    assert divergence is not None
    assert divergence.kind == "certify_contradiction:local_rows"


def test_null_comparison_filters():
    """col = NULL and col = col keep no rows when NULL is involved."""
    table = _table(
        "t",
        [["id", "integer", False], ["a", "integer", True], ["b", "integer", True]],
        [[1, None, None], [2, 3, 3], [3, None, 4], [4, 5, 6]],
    )
    config = {"t": {"kind": "hash", "columns": ["id"]}}
    colref = lambda name: {"t": "col", "name": name}  # noqa: E731
    predicates = [
        {"t": "cmp", "op": "=", "l": colref("a0.a"), "r": colref("a0.b")},
        {"t": "cmp", "op": "=", "l": colref("a0.a"), "r": {"t": "lit", "v": None}},
        {
            "t": "not",
            "arg": {
                "t": "cmp", "op": "=", "l": colref("a0.a"), "r": colref("a0.b")
            },
        },
    ]
    for predicate in predicates:
        query = {"op": "filter", "pred": predicate, "input": _scan("t", "a0")}
        assert_consistent(_case([table], config, [query]))


def test_in_list_with_null_semantics():
    """x IN / NOT IN with NULLs on either side of the list."""
    table = _table(
        "t",
        [["id", "integer", False], ["v", "integer", True]],
        [[1, 1], [2, 3], [3, None]],
    )
    config = {"t": {"kind": "round_robin"}}
    needle = {"t": "col", "name": "a0.v"}
    for vals, neg in [([1, None], False), ([1, None], True), ([], True), ([5], True)]:
        query = {
            "op": "filter",
            "pred": {"t": "inlist", "arg": needle, "vals": vals, "neg": neg},
            "input": _scan("t", "a0"),
        }
        assert_consistent(_case([table], config, [query]))


def test_all_null_aggregates():
    """SUM/AVG/MIN/MAX over all-NULL input are NULL; COUNT skips NULLs —
    including through merged two-phase partials."""
    table = _table(
        "t",
        [["id", "integer", False], ["g", "integer", False], ["v", "integer", True]],
        [[1, 0, None], [2, 0, None], [3, 1, 4], [4, 1, None], [5, 0, None]],
    )
    config = {"t": {"kind": "hash", "columns": ["id"]}}
    value = {"t": "col", "name": "a0.v"}
    query = {
        "op": "aggregate",
        "group_by": ["a0.g"],
        "aggs": [
            ["sum", value, "z0"],
            ["avg", value, "z1"],
            ["min", value, "z2"],
            ["max", value, "z3"],
            ["count", value, "z4"],
            ["count", None, "z5"],
        ],
        "input": _scan("t", "a0"),
    }
    assert_consistent(_case([table], config, [query]))


def test_reintroducing_null_equals_null_is_caught(tmp_path, monkeypatch):
    """Meta-check: patch the NULL=NULL bug back in and the fuzzer must
    fail within the CI budget, producing a minimised, replayable repro.
    The bug is shared by the engine and LocalExecutor (both bind the
    same expressions), so sqlite3, the reference that shares no code
    with them, is the check that catches it."""
    original_bind = Comparison.bind

    def buggy_bind(self, columns):
        bound = original_bind(self, columns)
        left = self.left.bind(columns)
        right = self.right.bind(columns)
        op = self.op

        def evaluate(row):
            lhs, rhs = left(row), right(row)
            if lhs is None or rhs is None:
                # The pre-fix behaviour: NULL = NULL was true.
                if op == "=":
                    return lhs is rhs
                if op == "!=":
                    return lhs is not rhs
                return False
            return bound(row)

        return evaluate

    monkeypatch.setattr(Comparison, "bind", buggy_bind)
    out = tmp_path / "bug-repro.json"
    report = run_fuzz(
        60,
        seed=0,
        backends=("serial",),
        out=str(out),
        max_shrink=120,
    )
    assert not report.ok, "fuzzer failed to catch the reintroduced bug"
    assert report.divergence.kind == "sqlite_rows", report.summary()
    assert report.shrunk_case is not None
    assert out.exists()
    # The minimised repro still reproduces under the bug...
    assert run_case(report.shrunk_case, backends=("serial",))
    # ...and is clean once the bug is removed again.
    monkeypatch.setattr(Comparison, "bind", original_bind)
    assert run_case(report.shrunk_case, backends=("serial",)) is None
