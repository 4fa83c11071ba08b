"""The expression parser against the reference it replaced.

The reference is the tokenizer and recursive-descent parser as they were
before the parser folded constant arithmetic on Python complex values:
(kind, text, offset) tokens, and one node per literal, folded by the
smart constructors of rootbranch.expressions.  The parser must build the
reference's tree bit for bit, and raise the reference's syntax errors
with their message, line and column.
"""

import importlib.util
import math
import re
import sys
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootbranch import (
    ProblemSyntaxError,
    fixture_names,
    get_fixture,
    parse_expression,
    parse_problem,
)
from rootbranch.expressions import (
    Const,
    Cos,
    Exp,
    Expr,
    Guard,
    Pow,
    Sin,
    Split,
    X,
    Z,
    _Switch,
    add,
    mul,
    neg,
    powi,
    series,
    sub,
    walk,
)
from rootbranch.problem import MAX_NESTING
from bench_parse import counting_nodes

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


# ---------------------------------------------------------------------------
# the reference: the tokenizer and parser as they were

_REF_TOKEN_RE = re.compile(
    r"""
    (?P<num>   (?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)? )
  | (?P<name>  [A-Za-z_][A-Za-z_0-9]* )
  | (?P<op>    [-+*();,] )
  | (?P<bad>   [^ \t\r\n] )
    """,
    re.VERBOSE,
)


def _ref_where(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _ref_tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    for m in _REF_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ProblemSyntaxError(
                f"unexpected character {m[0]!r}", *_ref_where(text, m.start())
            )
        out.append((kind, m[0], m.start()))
    out.append(("end", "", len(text)))
    return out


class _RefParser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _ref_tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple:
        return self.toks[self.i]

    def take(self) -> tuple:
        t = self.toks[self.i]
        if t[0] != "end":
            self.i += 1
        if t[1] == "(":
            self.down()
        elif t[1] == ")":
            self.depth -= 1
        return t

    def down(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels")

    def fail(self, msg: str, tok: Optional[tuple] = None):
        tok = tok or self.peek()
        raise ProblemSyntaxError(msg, *_ref_where(self.text, tok[2]))

    def expect(self, text: str) -> tuple:
        kind, got, _ = self.peek()
        if got != text:
            got = repr(got) if kind != "end" else "end of input"
            self.fail(f"expected {text!r}, got {got}")
        return self.take()

    def expr(self) -> Expr:
        toks = self.toks
        e = self.term()
        while (op := toks[self.i][1]) in ("+", "-"):
            self.i += 1
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        toks = self.toks
        e = self.unary()
        while toks[self.i][1] == "*":
            self.i += 1
            e = mul(e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.toks[self.i][1] == "-":
            self.i += 1
            self.down()
            e = neg(self.unary())
            self.depth -= 1
            return e
        return self.atom()

    def atom(self) -> Expr:
        t = self.peek()
        kind, name, _ = t
        if kind == "num":
            return Const(complex(self.number()))
        if name == "(":
            self.take()
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            self.take()
            if name == "x":
                return X()
            if name == "z":
                return Z()
            if name == "i":
                return Const(1j)
            if name == "pi":
                return Const(complex(math.pi))
            if name in ("exp", "sin", "cos"):
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return {"exp": Exp, "sin": Sin, "cos": Cos}[name](arg)
            if name == "pow":
                self.expect("(")
                base = self.expr()
                self.expect(",")
                n = self.signed_int()
                self.expect(")")
                return powi(base, n)
            if name in ("guard", "split"):
                self.expect("(")
                at = self.signed_number()
                self.expect(";")
                a = self.expr()
                self.expect(";")
                b = self.expr()
                self.expect(")")
                return {"guard": Guard, "split": Split}[name](at, a, b)
            self.fail(f"unknown identifier {name!r}", t)
        self.fail("expected a number, name, or '('", t)

    def signed_number(self) -> float:
        sign = 1.0
        if self.peek()[1] == "-":
            self.take()
            sign = -1.0
        if self.peek()[0] != "num":
            self.fail("expected a number")
        return sign * self.number()

    def number(self) -> float:
        t = self.take()
        v = float(t[1])
        if math.isinf(v):
            self.fail(f"number {t[1]} does not fit a float", t)
        return v

    def signed_int(self) -> int:
        t0 = self.peek()
        v = self.signed_number()
        if v != int(v):
            self.fail("exponent must be an integer", t0)
        return int(v)


def reference_parse(text: str) -> Expr:
    p = _RefParser(text)
    e = p.expr()
    kind, rest, _ = p.peek()
    if kind != "end":
        p.fail(f"unexpected trailing input {rest!r}")
    return e


# ---------------------------------------------------------------------------
# comparing the two


def shape(e: Expr) -> list[tuple]:
    """Every node of e in walk order: its class, and its Const value's
    parts, Pow exponent or switch point, floats by float.hex."""
    out = []
    for node in walk(e):
        kind = type(node).__name__
        if isinstance(node, Const):
            v = node.value
            out.append((kind, type(v).__name__, v.real.hex(), v.imag.hex()))
        elif isinstance(node, Pow):
            out.append((kind, type(node.n).__name__, node.n))
        elif isinstance(node, _Switch):
            out.append((kind, node.at.hex()))
        else:
            out.append((kind,))
    return out


def outcome(parse, text: str) -> tuple:
    """The tree's shape, or the syntax error's message, line and column."""
    try:
        e = parse(text)
    except ProblemSyntaxError as err:
        return ("error", err.reason, err.line, err.col)
    return ("tree", shape(e))


def assert_parses_as_the_reference(text: str) -> tuple:
    want = outcome(reference_parse, text)
    assert outcome(parse_expression, text) == want, text
    return want


# the literal spellings the tokenizer reads, underflow and the float limit
# among them
LITERALS = ["0", "1", "2", "7", "0.5", "3.25e2", "1.e5", ".5E-3", "0.0", "1e308", "1e-320", "1e-999"]
_SIGNED = st.tuples(st.sampled_from(["", "-"]), st.sampled_from(LITERALS)).map("".join)
_ATOMS = st.one_of(
    st.sampled_from(LITERALS + ["x", "z", "i", "pi", "-0.0"]),
    st.tuples(_SIGNED, _SIGNED).map(lambda t: f"({t[0]} + {t[1]}*i)"),
)


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*", " - -", "*-"]), inner).map("".join),
        inner.map(lambda e: f"-{e}"),
        inner.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(["exp", "sin", "cos"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.integers(-4, 60)).map(lambda t: f"pow({t[0]}, {t[1]})"),
        st.tuples(st.sampled_from(["guard", "split"]), _SIGNED, inner, inner).map(
            lambda t: f"{t[0]}({t[1]}; {t[2]}; {t[3]})"
        ),
    )


_WRAPS = {"(": ("(", ")"), "-": ("-", ""), "-(": ("-(", ")"), "exp(": ("exp(", ")")}
# an expression from the grammar, inside a run of brackets or minus signs
# that may reach MAX_NESTING and pass it
EXPRESSIONS = st.tuples(
    st.recursive(_ATOMS, _extend, max_leaves=12),
    st.sampled_from(sorted(_WRAPS)),
    st.one_of(st.integers(0, 3), st.integers(MAX_NESTING // 2 - 3, MAX_NESTING + 2)),
).map(lambda t: _WRAPS[t[1]][0] * t[2] + t[0] + _WRAPS[t[1]][1] * t[2])


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
@example("(0.5 + -0.25*i)*pow(x, 3) + (1.e5 + .5E-3*i)")
@example("-0.0*i")
@example("pow(1e200, 2)")
@example("pow(1e-320, -2) + pow(1e-200*i, -2)*z")
@example("pow(2, -1)*z")
@example("0*z + 1*x")
@example("pow(0, -2)*x + pow(0.0, 0) + pow(z, 0) + pow(1e308*i, 60)")
@example("guard(-0.0; 1e-320; z) - split(1e-999; -x; --x)")
# more brackets and minus signs than MAX_NESTING, each closed before the next
@example(" + ".join(["(0.5 + -0.25*i)*pow(-x, 2)"] * (MAX_NESTING + 1)))
def test_parser_matches_the_reference(text):
    assert_parses_as_the_reference(text)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclass looks the module up there
    spec.loader.exec_module(mod)
    return mod


def test_parser_matches_the_reference_on_the_benchmark_documents():
    docs = [get_fixture(name).problem for name in fixture_names()]
    workloads = _load_workloads()
    docs += [p.document for seed in (1, 2, 3) for p in workloads.make_problems("poly-dense", seed)]
    assert len(docs) == 8 + 120
    for doc in docs:
        spec = parse_problem(doc)
        if spec.function is not None:
            want = reference_parse(spec.function)
        else:
            want = series([reference_parse(text) for text in spec.series])
        assert shape(spec.expr) == shape(want), doc


# every kind of syntax error, some several times
ERRORS = [
    "x $ 1", "٣*z", "１+z", "x\n  #", "e.g", "1 + .", "x + 1\xa0", "\x0b",
    "foo(x)", "x + zz", "Exp(z)", "pow2(z)",
    "exp x", "pow(z 2)", "pow(z, 2", "guard(1; z, x)", "(x", "sin(", "split(0.5; x; x",
    "x +", "", "-", "pow(z,", "(", "x * ", "guard(", "guard(1;",
    "x)", "x y", "1 2", "z)(", "pow(z, 2))",
    "pow(z, 0.5)", "pow(z, -1.5)", "pow(z, 1e-3)",
    "1e999", "pow(z, 1e999)", "guard(1e999; z; z)", "-1e400*x", "split(-1e999; x; x)",
    "guard(x; z; z)", "pow(z, x)", "split(-; x; x)", "pow(z, --1)",
    "+x", "*x", "x + * 1", ";", ",",
    "z -\n  * x", "x +\n\n  $", "(1 +\n\n  \xa0", "exp(\n)",
    "(" * (MAX_NESTING + 1) + "z" + ")" * (MAX_NESTING + 1),
    "-" * (MAX_NESTING + 1) + "z",
    "exp(" * (MAX_NESTING + 1) + "z" + ")" * (MAX_NESTING + 1),
    "-(" * (MAX_NESTING // 2 + 1) + "z" + ")" * (MAX_NESTING // 2 + 1),
    "x + " + "(" * 3000 + "z",
]


@pytest.mark.parametrize("text", ERRORS)
def test_syntax_errors_match_the_reference(text):
    kind, msg, line, col = assert_parses_as_the_reference(text)
    assert kind == "error"
    # the document names the text an error is in, at the same line and column
    for doc, source in (
        ({"function": text}, "function"),
        ({"series": ["1", text]}, "series coefficient 1"),
    ):
        doc.update(domain={"kind": "interval"}, seed={"x": 0.0, "z": [0.0, 0.0]})
        with pytest.raises(ProblemSyntaxError) as ei:
            parse_problem(doc)
        assert (ei.value.reason, ei.value.line, ei.value.col) == (f"{source}: {msg}", line, col)


def test_nesting_at_the_bound_parses_under_the_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for opening, closing in _WRAPS.values():
            # "-(" opens two levels at once
            depth = MAX_NESTING // 2 if opening == "-(" else MAX_NESTING
            text = opening * depth + "x*z" + closing * depth
            kind, *_ = assert_parses_as_the_reference(text)
            assert kind == "tree", text
    finally:
        sys.setrecursionlimit(limit)


def test_complex_literal_builds_one_node():
    with counting_nodes() as built:
        e = parse_expression("(0.5 + -0.25*i)")
    assert built == ["Const"] and e == Const(0.5 - 0.25j)
    with counting_nodes() as built:
        e = parse_expression("(0.5 + -0.25*i)*pow(x, 3)")
    assert sorted(built) == ["Const", "Mul", "Pow", "X"]
