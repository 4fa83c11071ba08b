"""Problem documents: expression grammar and the JSON problem format.

A problem file is a JSON object with exactly one of

``function``
    expression text over ``x`` and ``z`` (grammar below),
``series``
    list of coefficient expression texts over ``x`` (coefficient of z**k
    at index k), or
``fixture``
    name of a built-in problem,

plus ``domain``, ``seed``, and optional ``config`` overrides (a fixture
supplies its own domain and seed; only ``config`` may accompany it).

Expression grammar (infix, whitespace-insensitive)::

    expr   :=  term (('+' | '-') term)*
    term   :=  unary ('*' unary)*
    unary  :=  '-' unary | atom
    atom   :=  NUMBER | 'x' | 'z' | 'i' | 'pi' | '(' expr ')'
            |  'exp' '(' expr ')' | 'sin' '(' expr ')' | 'cos' '(' expr ')'
            |  'pow' '(' expr ',' SIGNED_INT ')'
            |  'guard' '(' SIGNED_NUMBER ';' expr ';' expr ')'
            |  'split' '(' SIGNED_NUMBER ';' expr ';' expr ')'

``guard(x0; v; e)`` evaluates to ``v`` exactly at x = x0 and to ``e``
elsewhere (v may use z); ``split(xc; l; r)`` selects ``l`` for x <= xc and
``r`` beyond.  ``pow`` takes an integer exponent; a negative one parses
anywhere, but ``build`` accepts it only on a base free of z (F must be
entire in z), and the result must stay finite on the domain except where
masked by a guard.

Brackets and unary minus signs nest at most MAX_NESTING deep, and a JSON
document no deeper than the json module decodes; deeper input is a syntax
error.
"""

from __future__ import annotations

import json
import math
import re as _re
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .engine import EngineConfig
from .domain import DomainPoint, ParamDomain
from .errors import ProblemSyntaxError, ProblemValidationError
from .expressions import (
    Const,
    EntireFunction,
    Expr,
    Guard,
    Pow,
    Split,
    X,
    Z,
    SeriesForm,
    add,
    contains_z,
    exp,
    cos,
    mul,
    neg,
    powi,
    sin,
    sub,
    to_text,
    walk,
)

__all__ = [
    "ProblemSpec",
    "parse_expression",
    "parse_problem",
    "render",
    "build",
]


# ---------------------------------------------------------------------------
# tokenizer


_TOKEN_RE = _re.compile(
    r"""
    (?P<num>   (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)? )
  | (?P<name>  [A-Za-z_][A-Za-z_0-9]* )
  | (?P<op>    [-+*();,] )
  | (?P<ws>    [ \t\r\n]+ )
    """,
    _re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ProblemSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - bol + 1
            )
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            out.append(_Token(kind, tok, line, pos - bol + 1))
        line += tok.count("\n")
        if "\n" in tok:
            bol = pos + tok.rindex("\n") + 1
        pos = m.end()
    out.append(_Token("end", "", line, len(text) - bol + 1))
    return out


# ---------------------------------------------------------------------------
# recursive-descent parser

# brackets and unary minus signs open at once: the parser recurses through
# four Python frames per bracket, so this keeps it well inside the default
# recursion limit
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0  # brackets and unary minus signs open here

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        t = self.toks[self.i]
        if t.kind != "end":
            self.i += 1
        if t.text == "(":
            self.down()
        elif t.text == ")":
            self.depth -= 1
        return t

    def down(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels")

    def fail(self, msg: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ProblemSyntaxError(msg, tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        t = self.peek()
        if t.text != text:
            got = repr(t.text) if t.kind != "end" else "end of input"
            self.fail(f"expected {text!r}, got {got}")
        return self.take()

    # grammar -----------------------------------------------------------

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().text in ("+", "-"):
            op = self.take().text
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().text == "*":
            self.take()
            e = mul(e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek().text == "-":
            self.take()
            self.down()
            e = neg(self.unary())
            self.depth -= 1
            return e
        return self.atom()

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.take()
            return Const(complex(float(t.text)))
        if t.text == "(":
            self.take()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "name":
            self.take()
            name = t.text
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
                return {"exp": exp, "sin": sin, "cos": cos}[name](arg)
            if name == "pow":
                self.expect("(")
                base = self.expr()
                self.expect(",")
                n = self.signed_int()
                self.expect(")")
                return powi(base, n)
            if name in ("guard", "split"):
                self.expect("(")
                x0 = self.signed_number()
                self.expect(";")
                a = self.expr()
                self.expect(";")
                b = self.expr()
                self.expect(")")
                return Guard(x0, a, b) if name == "guard" else Split(x0, a, b)
            self.fail(f"unknown identifier {name!r}", t)
        self.fail("expected a number, name, or '('", t)

    def signed_number(self) -> float:
        sign = 1.0
        if self.peek().text == "-":
            self.take()
            sign = -1.0
        t = self.peek()
        if t.kind != "num":
            self.fail("expected a number")
        self.take()
        return sign * float(t.text)

    def signed_int(self) -> int:
        t0 = self.peek()
        v = self.signed_number()
        if v != int(v):
            self.fail("exponent must be an integer", t0)
        return int(v)


def parse_expression(text: str) -> Expr:
    """Parse expression text into a tree; errors carry line and column."""
    p = _Parser(text)
    e = p.expr()
    t = p.peek()
    if t.kind != "end":
        p.fail(f"unexpected trailing input {t.text!r}", t)
    return e


# ---------------------------------------------------------------------------
# problem documents


@dataclass(frozen=True)
class ProblemSpec:
    """Validated, normalized problem document.

    Exactly one of function/series/fixture is set.  domain and seed are
    kept in their normalized JSON shapes so render/parse round-trips are
    exact; build() turns the spec into solver objects.
    """

    function: Optional[str] = None
    series: Optional[tuple[str, ...]] = None
    fixture: Optional[str] = None
    domain: Optional[dict] = None
    seed: Optional[dict] = None
    config: dict = field(default_factory=dict)


_TOP_KEYS = {"function", "series", "fixture", "domain", "seed", "config"}


def _norm_domain(d) -> dict:
    if not isinstance(d, dict) or "kind" not in d:
        raise ProblemValidationError("domain must be an object with a 'kind'")
    kind = d["kind"]
    if kind == "interval":
        if set(d) - {"kind"}:
            raise ProblemValidationError("interval domain takes no other keys")
        return {"kind": "interval"}
    if kind != "tree":
        raise ProblemValidationError(f"unknown domain kind {kind!r}")
    if set(d) - {"kind", "vertices", "edges"}:
        raise ProblemValidationError("tree domain takes 'vertices' and 'edges'")
    verts = d.get("vertices")
    edges = d.get("edges")
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise ProblemValidationError("tree 'vertices' must be a list of names")
    if not isinstance(edges, list):
        raise ProblemValidationError("tree 'edges' must be a list")
    ne = []
    for item in edges:
        if not (isinstance(item, list) and len(item) == 3):
            raise ProblemValidationError(f"edge must be [u, v, length]: {item!r}")
        u, v, length = item
        if not (isinstance(u, str) and isinstance(v, str)):
            raise ProblemValidationError(f"edge endpoints must be names: {item!r}")
        ne.append([u, v, _as_float(length, f"edge length of {u}-{v}")])
    return {"kind": "tree", "vertices": list(verts), "edges": ne}


def is_json_int(v) -> bool:
    """A JSON integer: an int that is not a bool (an int subclass)."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_json_number(v) -> bool:
    """A JSON number: an int or a float, not a bool or text."""
    return is_json_int(v) or isinstance(v, float)


def _engine_config(overrides: dict) -> EngineConfig:
    """EngineConfig's defaults updated from problem-file overrides.

    Raises ValueError for an unknown key or a value out of range:
    certify_steps takes a JSON bool, max_steps an integer >= 1, and the
    other knobs a finite number > 0.
    """
    bad = set(overrides) - {f.name for f in fields(EngineConfig)}
    if bad:
        raise ValueError(f"unknown config keys: {sorted(bad)}")
    coerced = {}
    for k, v in overrides.items():
        default = getattr(EngineConfig, k)
        if isinstance(default, bool):
            ok, want = isinstance(v, bool), "true or false"
        elif isinstance(default, int):
            ok, want = is_json_int(v) and v >= 1, "an integer >= 1"
        else:
            # chained comparisons are exact for huge ints and false for NaN
            ok = is_json_number(v) and 0 < v <= sys.float_info.max
            want = "a finite number > 0"
        if not ok:
            raise ValueError(f"config {k!r} must be {want}, got {v!r}")
        coerced[k] = float(v) if isinstance(default, float) else v
    return replace(EngineConfig(), **coerced)


def _as_float(v, what: str) -> float:
    """A JSON number as a float; ProblemValidationError unless it is one
    and finite (a JSON integer can be too large for float())."""
    # chained comparisons are exact for huge ints and false for NaN
    if not (is_json_number(v) and -sys.float_info.max <= v <= sys.float_info.max):
        raise ProblemValidationError(f"{what} must be a finite number, got {v!r}")
    return float(v)


def _norm_complex(v) -> list[float]:
    if isinstance(v, list) and len(v) == 2:
        return [_as_float(v[0], "real part"), _as_float(v[1], "imaginary part")]
    if is_json_number(v):
        return [_as_float(v, "complex value"), 0.0]
    raise ProblemValidationError(f"complex value must be a number or [re, im]: {v!r}")


def _norm_seed(s, domain: dict) -> dict:
    if not isinstance(s, dict) or "z" not in s:
        raise ProblemValidationError("seed must be an object with 'z'")
    z = _norm_complex(s["z"])
    if domain["kind"] == "interval":
        if set(s) - {"x", "z"} or "x" not in s:
            raise ProblemValidationError("interval seed takes 'x' and 'z'")
        x = _as_float(s["x"], "seed x")
        if not (0.0 <= x <= 1.0):
            raise ProblemValidationError(f"seed x={x} outside [0, 1]")
        return {"x": x, "z": z}
    if set(s) - {"point", "z"} or "point" not in s:
        raise ProblemValidationError("tree seed takes 'point' and 'z'")
    p = s["point"]
    if isinstance(p, dict) and set(p) == {"vertex"} and isinstance(p["vertex"], str):
        if p["vertex"] not in domain["vertices"]:
            raise ProblemValidationError(f"seed vertex {p['vertex']!r} is not in the tree")
        return {"point": {"vertex": p["vertex"]}, "z": z}
    if isinstance(p, dict) and set(p) == {"edge", "t"} and is_json_int(p["edge"]):
        edge, t = p["edge"], _as_float(p["t"], "seed t")
        if not 0 <= edge < len(domain["edges"]):
            raise ProblemValidationError(f"seed edge {edge} is not an edge index")
        if not 0.0 <= t <= 1.0:
            raise ProblemValidationError(f"seed t={t} outside [0, 1]")
        return {"point": {"edge": edge, "t": t}, "z": z}
    raise ProblemValidationError(
        "seed point must be {'vertex': name} or {'edge': index, 't': value}"
    )


def parse_problem(data) -> ProblemSpec:
    """Parse and validate a problem document (bytes, str, or dict)."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise ProblemSyntaxError(e.msg, e.lineno, e.colno)
        except RecursionError:
            raise ProblemSyntaxError("document nested too deeply") from None
    if not isinstance(data, dict):
        raise ProblemValidationError("problem document must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ProblemValidationError(f"unknown keys: {sorted(unknown)}")
    sources = [k for k in ("function", "series", "fixture") if k in data]
    if len(sources) != 1:
        raise ProblemValidationError(
            "exactly one of 'function', 'series', 'fixture' is required"
        )
    config = data.get("config", {})
    if not isinstance(config, dict):
        raise ProblemValidationError("'config' must be an object")
    # reject unknown/ill-typed overrides early
    _engine_config(config)

    if sources == ["fixture"]:
        name = data["fixture"]
        if not isinstance(name, str):
            raise ProblemValidationError("'fixture' must be a name")
        if "domain" in data or "seed" in data:
            raise ProblemValidationError("a fixture problem supplies its own domain/seed")
        from .fixtures import fixture_names  # local import breaks the cycle

        if name not in fixture_names():
            raise ProblemValidationError(f"unknown fixture {name!r}")
        return ProblemSpec(fixture=name, config=dict(config))

    if "domain" not in data or "seed" not in data:
        raise ProblemValidationError("'domain' and 'seed' are required")
    domain = _norm_domain(data["domain"])
    seed = _norm_seed(data["seed"], domain)

    if sources == ["function"]:
        text = data["function"]
        if not isinstance(text, str):
            raise ProblemValidationError("'function' must be expression text")
        parse_expression(text)  # syntax-check now; build() parses again
        return ProblemSpec(
            function=text, domain=domain, seed=seed, config=dict(config)
        )

    coeffs = data["series"]
    if not isinstance(coeffs, list) or not coeffs:
        raise ProblemValidationError("'series' must be a nonempty list")
    texts = []
    for k, c in enumerate(coeffs):
        if is_json_number(c):
            c = repr(_as_float(c, f"series coefficient {k}"))
        if not isinstance(c, str):
            raise ProblemValidationError(
                f"series coefficient {k} must be expression text or a number"
            )
        e = parse_expression(c)
        if contains_z(e):
            raise ProblemValidationError(f"series coefficient {k} mentions z")
        texts.append(c)
    return ProblemSpec(
        series=tuple(texts), domain=domain, seed=seed, config=dict(config)
    )


def render(spec: ProblemSpec) -> str:
    """Canonical JSON for a spec; parse_problem(render(s)) == s."""
    doc: dict = {}
    if spec.fixture is not None:
        doc["fixture"] = spec.fixture
    if spec.function is not None:
        doc["function"] = spec.function
    if spec.series is not None:
        doc["series"] = list(spec.series)
    if spec.domain is not None:
        doc["domain"] = spec.domain
    if spec.seed is not None:
        doc["seed"] = spec.seed
    if spec.config:
        doc["config"] = spec.config
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# building solver objects


_CONT_PROBES = np.array(
    [0.0, 1.0, -1.0, 1j, -1j, 0.5 - 0.3j, -0.7 + 0.2j, 2.0 + 1.0j],
    dtype=np.complex128,
)


def _validate_entire(e: Expr) -> None:
    """Reject a negative power of a z-dependent base: F has poles in z."""
    for node in walk(e):
        if isinstance(node, Pow) and node.n < 0 and contains_z(node.base):
            raise ProblemValidationError(
                f"{to_text(node)} is not entire in z:"
                " a negative power needs a base free of z"
            )


def _validate_piecewise(expr: Expr, dom: ParamDomain) -> None:
    lo, hi = dom.coordinate_range()
    vertex_coords = {dom.coordinate(dom.vertex_point(i)) for i in range(len(dom.vertex_names))}
    for node in walk(expr):
        if isinstance(node, Guard):
            if node.x0 not in vertex_coords:
                raise ProblemValidationError(
                    f"guard point {node.x0} is not a domain vertex coordinate"
                )
        elif isinstance(node, Split):
            if not (lo <= node.xc <= hi):
                raise ProblemValidationError(
                    f"split point {node.xc} outside coordinate range [{lo}, {hi}]"
                )
            (l,) = EntireFunction(node.left).kernel(node.xc, _CONT_PROBES, dz=False)
            (r,) = EntireFunction(node.right).kernel(node.xc, _CONT_PROBES, dz=False)
            scale = 1.0 + max(np.abs(l).max(), np.abs(r).max())
            if not np.isfinite(l).all() or not np.isfinite(r).all():
                raise ProblemValidationError(
                    f"split at {node.xc} is not finite on both sides"
                )
            if np.abs(l - r).max() > 1e-9 * scale:
                raise ProblemValidationError(
                    f"split at {node.xc} is discontinuous (sides disagree)"
                )


def _build_domain(domain: dict) -> ParamDomain:
    if domain["kind"] == "interval":
        return ParamDomain.interval()
    return ParamDomain.tree(domain["vertices"], [tuple(e) for e in domain["edges"]])


def _build_seed_point(seed: dict, dom: ParamDomain) -> DomainPoint:
    if dom.kind == "interval":
        return dom.interval_point(seed["x"])
    p = seed["point"]
    if "vertex" in p:
        return dom.vertex_point(p["vertex"])
    return dom.edge_point(p["edge"], p["t"])


def build(spec: ProblemSpec):
    """Turn a spec into (EntireFunction, ParamDomain, seed point, z0, config).

    Fixture specs are resolved first; their config is overridden by the
    problem document's own config entries.
    """
    if spec.fixture is not None:
        from .fixtures import get_fixture

        fx = get_fixture(spec.fixture)
        base = parse_problem(fx.problem)
        merged = {**base.config, **spec.config}
        return build(
            ProblemSpec(
                function=base.function,
                series=base.series,
                domain=base.domain,
                seed=base.seed,
                config=merged,
            )
        )

    dom = _build_domain(spec.domain)
    seed_pt = _build_seed_point(spec.seed, dom)
    z0 = complex(spec.seed["z"][0], spec.seed["z"][1])
    cfg = _engine_config(spec.config)
    x_range = dom.coordinate_range()

    if spec.function is not None:
        expr = parse_expression(spec.function)
    else:
        expr = SeriesForm(tuple(parse_expression(c) for c in spec.series)).expr
    _validate_entire(expr)
    _validate_piecewise(expr, dom)
    return EntireFunction(expr, x_range=x_range), dom, seed_pt, z0, cfg
