"""The generated batch kernels equal the row closures, value for value.

``Expression.bind_batch`` has two evaluators: one comprehension generated
from the tree (two-valued; taken when no referenced column holds a NULL
and the tree passes the guard) and the row closure zipped over the
referenced columns (the Kleene reference; everything else).  The row
closure mapped over the rows is the specification here.  Pinned:

* a Hypothesis property over random trees — arithmetic, IN-lists with and
  without NULL, NULL literals, ``/`` by zero, NaN, bool/int/float mixes,
  hostile strings — on NULL-free, NULL-bearing and pruned batches, with
  the path each batch takes asserted, not assumed;
* the guard, restated here from the issue, decides which trees fuse;
* generated source holds names and fixed tokens only;
* a mutated emitter is caught (the corpus has teeth);
* statements differing only in literals share one code object, and the
  cache of compiled sources is bounded;
* source text becomes code at one site under ``src/``.
"""

from __future__ import annotations

import math
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.rows import ColumnBatch
from repro.fuzz.generator import _gen_pred
from repro.fuzz.ir import expr_from_ir
from repro.query import expressions
from repro.query.expressions import (
    InList,
    and_,
    col,
    kernel_source,
    lit,
    not_,
    or_,
    referenced_positions,
)

#: ``t.dead`` is never referenced: it is the column a pruned batch drops.
COLUMNS = ("t.i", "t.j", "t.f", "t.b", "t.s", "t.u", "t.dead")
NUMERIC_COLUMNS = ("t.i", "t.j", "t.f", "t.b")
STRING_COLUMNS = ("t.s", "t.u")

HOSTILE = (
    "'", '"', "\\", "\n", "", "k0", "v0) or (1", "None",
    "__import__('os').system('true')", "' or __import__('os') or '",
    '"""', "#", "ab",
)
NUMBERS = (
    0, 1, -1, 2, 13, 2**70, True, False, 0.0, -0.0, 0.5, -3.75, 1.0,
    math.nan, math.inf, -math.inf,
)
_POOLS = {
    "t.i": (0, 1, 2, 13, -5, 2**70),
    "t.j": (0, 1, 2, 13, -5),
    "t.f": (0.0, 0.5, -3.75, 2.0, math.nan, math.inf),
    "t.b": (True, False),
    "t.s": HOSTILE,
    "t.u": HOSTILE,
    "t.dead": (7,),
}

# -- random trees (the fuzzer's expression IR, widened) -----------------------


def literals(pool):
    return st.builds(
        lambda v: {"t": "lit", "v": v}, st.one_of(st.none(), st.sampled_from(pool))
    )


def columns(names):
    return st.builds(lambda name: {"t": "col", "name": name}, st.sampled_from(names))


numeric = st.recursive(
    st.one_of(columns(NUMERIC_COLUMNS), literals(NUMBERS)),
    lambda inner: st.builds(
        lambda op, l, r: {"t": "arith", "op": op, "l": l, "r": r},
        st.sampled_from("+-*/"), inner, inner,
    ),
    max_leaves=4,
)
strings = st.one_of(columns(STRING_COLUMNS), literals(HOSTILE))
comparators = st.sampled_from(("=", "!=", "<", "<=", ">", ">="))


def _compare(operands):
    return st.builds(
        lambda op, l, r: {"t": "cmp", "op": op, "l": l, "r": r},
        comparators, operands, operands,
    )


def _in_list(operands, pool):
    return st.builds(
        lambda arg, vals, neg: {"t": "inlist", "arg": arg, "vals": vals, "neg": neg},
        operands,
        st.lists(st.one_of(st.none(), st.sampled_from(pool)), max_size=4),
        st.booleans(),
    )


atoms = st.one_of(
    _compare(numeric),
    _compare(strings),
    _in_list(numeric, NUMBERS),
    _in_list(strings, HOSTILE),
    st.builds(
        lambda arg, neg: {"t": "isnull", "arg": arg, "neg": neg},
        st.one_of(numeric, strings), st.booleans(),
    ),
)
predicates = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds(
            lambda op, args: {"t": op, "args": args},
            st.sampled_from(("and", "or")),
            # A bare column operand is not boolean-valued: no fusing.
            st.lists(st.one_of(inner, columns(("t.b", "t.i"))), min_size=1, max_size=3),
        ),
        st.builds(lambda arg: {"t": "not", "arg": arg}, inner),
        # A predicate compared with a number (the bool/int mix) or with
        # a string (a TypeError, from either evaluator alike).
        _compare(st.one_of(inner, literals((True, False, 1, 0.0, "a")))),
    ),
    max_leaves=6,
)
trees = st.one_of(predicates, numeric)


@st.composite
def batches(draw, nulls: bool):
    length = draw(st.integers(min_value=0, max_value=6))
    data = [
        [
            draw(st.sampled_from(_POOLS[name] + ((None,) if nulls else ())))
            for _ in range(length)
        ]
        for name in COLUMNS
    ]
    return ColumnBatch(data, length)


# -- the specification ---------------------------------------------------------

_BOOLEAN_KINDS = ("cmp", "and", "or", "not", "isnull", "inlist")


def two_valued(node: dict) -> bool:
    """The issue's guard, restated: no NULL literal, no NULL in an
    IN-list, no division, boolean operators over boolean nodes only."""
    kind = node["t"]
    if kind == "col":
        return True
    if kind == "lit":
        return node["v"] is not None
    if kind in ("cmp", "arith"):
        return (
            node["op"] != "/" and two_valued(node["l"]) and two_valued(node["r"])
        )
    if kind in ("and", "or"):
        return all(
            arg["t"] in _BOOLEAN_KINDS and two_valued(arg) for arg in node["args"]
        )
    if kind == "inlist":
        return None not in node["vals"] and two_valued(node["arg"])
    return two_valued(node["arg"])  # not, isnull


def same(ours: object, reference: object) -> bool:
    """Equal as results: identity for None/True/False, else same type
    and value (NaN equal to NaN)."""
    if reference is None or isinstance(reference, bool):
        return ours is reference
    if type(ours) is not type(reference):
        return False
    return ours == reference or (ours != ours and reference != reference)


def agree(ours: object, reference: object) -> bool:
    """Two outcomes agree: the same exception type, or lists equal
    element for element under :func:`same`."""
    if not isinstance(reference, list):
        return ours is reference
    return (
        isinstance(ours, list)
        and len(ours) == len(reference)
        and all(map(same, ours, reference))
    )


def narrowed(expression) -> tuple[list[int], list[str]]:
    """The positions *expression* references in COLUMNS, and their names
    — the layout ``bind_batch`` binds both evaluators against."""
    positions = sorted(referenced_positions([expression], COLUMNS))
    return positions, [COLUMNS[p] for p in positions]


def outcome(thunk):
    """A thunk's list of values, or the type of the exception it raised
    (``'a' < 1`` raises from either evaluator, at the same row)."""
    try:
        return list(thunk())
    except (TypeError, OverflowError) as error:
        return type(error)


class Poisoned(Exception):
    pass


def _poisoned_factory(source):
    def kernel(*cols):
        raise Poisoned

    return lambda *constants: kernel


def check(node: dict, batch: ColumnBatch) -> None:
    """Assert every batch evaluation of *node* equals the row closure,
    and that it took the path the guard and the data dictate."""
    expression = expr_from_ir(node)
    positions, narrow = narrowed(expression)
    scalar = expression.bind(COLUMNS)
    reference = outcome(lambda: map(scalar, batch.to_rows()))
    for view in (batch, batch.prune(positions)):
        ours = outcome(lambda: expression.bind_batch(COLUMNS)(view))
        assert agree(ours, reference), (node, ours, reference)
    if node["t"] in ("col", "lit"):
        return  # the leaves alias the column / repeat the value
    generated = kernel_source(expression, narrow)
    fusable = two_valued(node) and bool(positions)
    assert (generated is not None) == fusable, node
    null_free = not any(batch.has_nulls(p) for p in positions)
    with mock.patch.object(expressions, "_compile_factory", _poisoned_factory):
        poisoned = expression.bind_batch(COLUMNS)
        if fusable and null_free:
            # The generated kernel is what runs ...
            with pytest.raises(Poisoned):
                poisoned(batch)
        else:
            # ... and here the row closure is: the poison is never reached.
            assert agree(outcome(lambda: poisoned(batch)), reference), node
    if generated is not None:
        assert_names_and_tokens_only(generated[0], node)


_TOKEN = re.compile(r"[A-Za-z_]\w*|\S")
_ALLOWED = set("()<>=!+-*") | {"and", "or", "not", "in", "is", "None"}
_SHAPE = re.compile(
    r"def factory\((k\d+(, k\d+)*)?\):\n"
    r"    def kernel\(c\d+(, c\d+)*\):\n"
    r"        return \[(?P<body>.*) for v\d+(, v\d+)* in (c0|zip\(c\d+(, c\d+)+\))\]\n"
    r"    return kernel\n"
)


def assert_names_and_tokens_only(source: str, node: object) -> None:
    match = _SHAPE.fullmatch(source)
    assert match, source
    for token in _TOKEN.findall(match["body"]):
        assert token in _ALLOWED or re.fullmatch(r"[vk]\d+", token), (token, node)


# -- properties ----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(node=trees, batch=batches(nulls=False))
def test_null_free_batches_take_the_generated_kernel(node, batch):
    check(node, batch)


@settings(max_examples=300, deadline=None)
@given(node=trees, batch=batches(nulls=True))
def test_null_bearing_batches_take_the_row_closure(node, batch):
    check(node, batch)


ENV = [
    ("t.i", "integer"), ("t.j", "integer"), ("t.f", "float"),
    ("t.s", "varchar"), ("t.b", "boolean"),
]


def corpus():
    """Deterministic trees: the fuzzer's predicates plus the shapes a
    broken emitter gets wrong (nesting, precedence, boundaries)."""
    rng = random.Random("fused-kernel-corpus")
    yield from (_gen_pred(rng, ENV) for _ in range(150))
    i, j, f = ({"t": "col", "name": name} for name in ("t.i", "t.j", "t.f"))
    ten = {"t": "lit", "v": 10}

    def sub(l, r):
        return {"t": "arith", "op": "-", "l": l, "r": r}

    def cmp(op, l, r):
        return {"t": "cmp", "op": op, "l": l, "r": r}

    yield sub(ten, sub(i, j))
    yield {"t": "arith", "op": "*", "l": sub(i, j), "r": f}
    yield cmp("=", cmp("<", i, j), {"t": "lit", "v": False})
    for op in ("<", "<=", ">", ">="):
        yield cmp(op, i, j)


def corpus_batch(nulls: bool) -> ColumnBatch:
    rng = random.Random(f"fused-kernel-rows-{nulls}")
    return ColumnBatch(
        [
            [rng.choice(_POOLS[name] + ((None,) if nulls else ())) for _ in range(24)]
            for name in COLUMNS
        ],
        24,
    )


def check_corpus() -> None:
    for nulls in (False, True):
        batch = corpus_batch(nulls)
        for node in corpus():
            check(node, batch)


def test_corpus_agrees():
    check_corpus()


def _swap_strictness(monkeypatch):
    for a, b in (("<", "<="), (">", ">=")):
        monkeypatch.setitem(expressions._TOKENS, a, b)
        monkeypatch.setitem(expressions._TOKENS, b, a)


def _drop_parentheses(monkeypatch):
    def source(self, names):
        if self.op not in expressions._TOKENS:
            raise expressions._ThreeValued
        token = expressions._TOKENS[self.op]
        return f"{self.left.source(names)} {token} {self.right.source(names)}"

    monkeypatch.setattr(expressions._Infix, "source", source)


def _ignore_not_in(monkeypatch):
    monkeypatch.setattr(
        InList, "source",
        lambda self, names: f"({self.operand.source(names)} in "
        f"{names.constant(frozenset(self.values))})",
    )


@pytest.mark.parametrize(
    "mutate", [_swap_strictness, _drop_parentheses, _ignore_not_in]
)
def test_a_mutated_emitter_is_caught(monkeypatch, mutate):
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        check_corpus()


# -- the guard, case by case -----------------------------------------------------


@pytest.mark.parametrize(
    "expression, fuses",
    [
        (and_(col("t.i") >= lit(1), col("t.f") < lit(2.0)), True),
        (col("t.f") * (lit(1) - col("t.i")), True),
        (not_(col("t.i")), True),
        (or_(InList(col("t.s"), ("a", "b")), col("t.i") == col("t.j")), True),
        (col("t.i") == lit(None), False),
        (InList(col("t.i"), (1, None)), False),
        (col("t.f") / col("t.i") > lit(1), False),
        (and_(col("t.b"), col("t.i") > lit(0)), False),
        (expressions.BooleanOp("and", ()), False),
        (lit(1) == lit(1), False),  # no column to iterate
    ],
)
def test_guard(expression, fuses):
    generated = kernel_source(expression, narrowed(expression)[1])
    assert (generated is not None) == fuses


def test_q6_is_one_comprehension():
    """The shape the issue names: one pass, short-circuiting, constants
    and columns by name."""
    q6 = and_(
        col("t.i") >= lit(365), col("t.i") < lit(730),
        col("t.f") >= lit(0.05), col("t.f") <= lit(0.07), col("t.j") < lit(24),
    )
    source, constants = kernel_source(q6, ["t.i", "t.j", "t.f"])
    assert constants == [365, 730, 0.05, 0.07, 24]
    assert (
        "[((v0 >= k0) and (v0 < k1) and (v2 >= k2) and (v2 <= k3) and (v1 < k4))"
        " for v0, v1, v2 in zip(c0, c1, c2)]"
    ) in source


def test_hostile_literals_stay_out_of_the_source():
    hostile = "__import__('os').system('true')"
    expression = or_(col("t.s") == lit(hostile), InList(col("t.u"), (hostile, "'")))
    source, constants = kernel_source(expression, ["t.s", "t.u"])
    assert "import" not in source and "'" not in source
    assert constants == [hostile, frozenset((hostile, "'"))]
    batch = ColumnBatch([[hostile, "x"], ["'", "y"]], 2)
    assert expression.bind_batch(["t.s", "t.u"])(batch) == [True, False]


# -- the code cache --------------------------------------------------------------


def _shape(bits: int) -> expressions.Expression:
    """A tree whose source text encodes *bits* (``<`` or ``<=`` per bit)."""
    return and_(
        *(
            (col("t.i") <= lit(n)) if bits >> n & 1 else (col("t.i") < lit(n))
            for n in range(10)
        )
    )


def test_statements_differing_only_in_literals_share_one_code_object():
    first = and_(col("t.i") >= lit(1), InList(col("t.s"), ("a", "b")))
    second = and_(col("t.i") >= lit(99), InList(col("t.s"), ("zz",)))
    (text_a, consts_a), (text_b, consts_b) = (
        kernel_source(e, ["t.i", "t.s"]) for e in (first, second)
    )
    assert text_a == text_b and consts_a != consts_b
    factory = expressions._compile_factory(text_a)
    assert factory(*consts_a).__code__ is factory(*consts_b).__code__
    before = expressions._compile_factory.cache_info()
    first.bind_batch(COLUMNS), second.bind_batch(COLUMNS)
    after = expressions._compile_factory.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 2
    batch = ColumnBatch([[1, 99], ["a", "zz"]], 2)
    assert first.bind_batch(["t.i", "t.s"])(batch) == [True, False]
    assert second.bind_batch(["t.i", "t.s"])(batch) == [False, True]


def test_the_code_cache_is_bounded():
    cache = expressions._compile_factory
    limit = cache.cache_info().maxsize
    assert limit is not None and limit <= 1024
    for bits in range(limit + 8):
        _shape(bits).bind_batch(COLUMNS)
    assert cache.cache_info().currsize == limit


def test_source_becomes_code_at_exactly_one_site():
    """``exec``, ``eval`` and the builtin ``compile`` occur once under
    ``src/`` — the kernel compiler — so code generation cannot spread."""
    src = Path(expressions.__file__).resolve().parents[2]
    call = re.compile(r"(?<![\w.])(exec|eval|compile)\(")
    sites = [
        (str(path.relative_to(src)), line.strip())
        for path in sorted(src.rglob("*.py"))
        for line in path.read_text().splitlines()
        if call.search(line)
    ]
    assert sites == [("repro/query/expressions.py", "exec(source, namespace)")]
