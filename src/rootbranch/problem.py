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
error.  The parser folds constant arithmetic on Python complex values as
the smart constructors of expressions fold Const nodes, so it builds their
tree with one Const per constant subexpression, such as (0.5 + -0.25*i).
"""

from __future__ import annotations

import json
import math
import re as _re
import sys
from typing import NamedTuple, Optional

import numpy as np

from .engine import EngineConfig
from .domain import DomainPoint, ParamDomain
from .errors import ProblemSyntaxError, ProblemValidationError
from .expressions import (
    Const,
    Cos,
    EntireFunction,
    Exp,
    Expr,
    Guard,
    Pow,
    Sin,
    Split,
    X,
    Z,
    add,
    contains_z,
    mul,
    neg,
    powi,
    series,
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


# every character but whitespace starts a token, a bad one if nothing
# else (a character _BAD_RE matches, or a "." that starts no number);
# findall skips the whitespace, which matches nothing
_TOKEN_RE = _re.compile(
    r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?"
    r"|[A-Za-z_][A-Za-z_0-9]*|[-+*();,]|[^ \t\r\n]"
)
_BAD_RE = _re.compile(r"[^0-9A-Za-z_+\-*();,. \t\r\n]")
_NUMBER_START = frozenset("0123456789.")


def _where(text: str, k: int) -> tuple[int, int]:
    """Line and column, from 1, of text's token k (k past the last token:
    the end), scanned again, as only an error needs them."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    pos = starts[k] if k < len(starts) else len(text)
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> list[str]:
    """The tokens' texts from one regex scan, then "" for the end.  A
    token's first character tells its kind: a digit or "." a number, a
    letter or "_" a name, else an operator."""
    toks = _TOKEN_RE.findall(text)
    if "." in toks or _BAD_RE.search(text):
        for k, tok in enumerate(toks):
            if tok == "." or _BAD_RE.match(tok):
                raise ProblemSyntaxError(f"unexpected character {tok!r}", *_where(text, k))
    toks.append("")
    return toks


# ---------------------------------------------------------------------------
# recursive-descent parser

# brackets and unary minus signs open at once: the parser recurses through
# three Python frames per bracket (expr, term, unary) and one per minus
# sign, so this keeps it well inside the default recursion limit
MAX_NESTING = 200

_CALLS = {"exp": Exp, "sin": Sin, "cos": Cos, "pow": Pow, "guard": Guard, "split": Split}


def _node(v) -> Expr:
    """A parse value as a tree: a constant (a complex) as a Const."""
    return Const(v) if v.__class__ is complex else v


class _Parser:
    """Recursive descent over _tokenize's tokens.  Each rule returns a
    constant as a Python complex, else a node: + - * and unary minus fold
    two constants on their values, as add, sub, mul and neg fold two Const
    nodes (and _powi as powi), and a constant becomes a Const only where
    it meets a node, in the smart constructor.  So the tree is the one the
    smart constructors build, and (a + b*i) is one node."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0  # brackets and unary minus signs open here

    def fail(self, msg: str, k: Optional[int] = None):
        """Raise at token k, by default the token here."""
        raise ProblemSyntaxError(msg, *_where(self.text, self.i if k is None else k))

    def expect(self, text: str) -> None:
        got = self.toks[self.i]
        if got != text:
            self.fail(f"expected {text!r}, got {repr(got) if got else 'end of input'}")
        self.i += 1

    def down(self) -> None:
        """Open the bracket or minus sign just stepped over."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels")

    def expr(self):
        toks = self.toks
        e = self.term()
        while (op := toks[self.i]) == "+" or op == "-":
            self.i += 1
            b = self.term()
            if e.__class__ is complex and b.__class__ is complex:
                e = e + b if op == "+" else e - b
            else:
                e = (add if op == "+" else sub)(_node(e), _node(b))
        return e

    def term(self):
        toks = self.toks
        e = self.unary()
        while toks[self.i] == "*":
            self.i += 1
            b = self.unary()
            if e.__class__ is complex and b.__class__ is complex:
                e = e * b
            else:
                e = mul(_node(e), _node(b))
        return e

    def unary(self):
        """'-' unary, or an atom."""
        tok = self.toks[self.i]
        if tok[:1] in _NUMBER_START:
            return self.number(complex)
        self.i += 1
        if tok == "-":
            self.down()
            e = self.unary()
            self.depth -= 1
            return -e if e.__class__ is complex else neg(e)
        if tok == "x" or tok == "z":
            return X() if tok == "x" else Z()
        if tok == "i" or tok == "pi":
            return 1j if tok == "i" else complex(math.pi)
        if tok == "(":
            self.down()
            e = self.expr()
        else:
            call = _CALLS.get(tok)
            if call is None:
                # an operator, or "" at the end (which is in every string)
                if tok in "+*);,":
                    self.fail("expected a number, name, or '('", self.i - 1)
                self.fail(f"unknown identifier {tok!r}", self.i - 1)
            self.expect("(")
            self.down()
            if call is Pow:
                base = self.expr()
                self.expect(",")
                k = self.i
                n = self.signed_number()
                if n != int(n):
                    self.fail("exponent must be an integer", k)
                e = _powi(base, int(n))
            elif call is Guard or call is Split:
                at = self.signed_number()
                self.expect(";")
                a = _node(self.expr())
                self.expect(";")
                e = call(at, a, _node(self.expr()))
            else:
                e = call(_node(self.expr()))
        self.expect(")")
        self.depth -= 1
        return e

    def signed_number(self) -> float:
        sign = 1.0
        if self.toks[self.i] == "-":
            self.i += 1
            sign = -1.0
        if self.toks[self.i][:1] not in _NUMBER_START:
            self.fail("expected a number")
        return sign * self.number(float)

    def number(self, kind):
        """The number here as a complex or a float: too large for a float
        fails, and underflow reads as 0.0, as in JSON."""
        tok = self.toks[self.i]
        v = kind(tok)
        if v == math.inf:
            self.fail(f"number {tok} does not fit a float")
        self.i += 1
        return v


def _powi(base, n: int):
    """powi of a parse value; a constant it folds to is a constant again."""
    e = powi(_node(base), n)
    return e.value if e.__class__ is Const else e


def parse_expression(text: str) -> Expr:
    """Parse expression text into a tree; errors carry line and column
    within the text."""
    p = _Parser(text)
    e = p.expr()
    if p.toks[p.i]:
        p.fail(f"unexpected trailing input {p.toks[p.i]!r}")
    return _node(e)


def _parse_source(text: str, source: str) -> Expr:
    """parse_expression, with a syntax error's message prefixed by where
    in the document the text came from."""
    try:
        return parse_expression(text)
    except ProblemSyntaxError as e:
        raise ProblemSyntaxError(f"{source}: {e.reason}", e.line, e.col) from None


# ---------------------------------------------------------------------------
# problem documents


class _SpecFields(NamedTuple):
    function: Optional[str] = None
    series: Optional[tuple[str, ...]] = None
    fixture: Optional[str] = None
    domain: Optional[dict] = None
    seed: Optional[dict] = None
    config: Optional[dict] = None
    expr: Optional[Expr] = None


class ProblemSpec(_SpecFields):
    """Validated, normalized problem document.

    Exactly one of function/series/fixture is set.  domain and seed are
    kept in their normalized JSON shapes so render/parse round-trips are
    exact; build() turns the spec into solver objects.  config defaults to
    a new empty dict.  expr is the expression tree parse_problem read from
    function or series (None for a fixture); it takes no part in equality.
    """

    __slots__ = ()

    def __new__(cls, function=None, series=None, fixture=None, domain=None,
                seed=None, config=None, expr=None):
        config = {} if config is None else config
        return tuple.__new__(cls, (function, series, fixture, domain, seed, config, expr))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:-1] == other[:-1]

    def __ne__(self, other):
        return not self == other


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
    bad = set(overrides) - set(EngineConfig._fields)
    if bad:
        raise ValueError(f"unknown config keys: {sorted(bad)}")
    coerced = {}
    for k, v in overrides.items():
        default = EngineConfig._field_defaults[k]
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
    return EngineConfig(**coerced)


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
    rest = dict(domain=domain, seed=_norm_seed(data["seed"], domain), config=dict(config))

    if sources == ["function"]:
        text = data["function"]
        if not isinstance(text, str):
            raise ProblemValidationError("'function' must be expression text")
        return ProblemSpec(function=text, expr=_parse_source(text, "function"), **rest)

    coeffs = data["series"]
    if not isinstance(coeffs, list) or not coeffs:
        raise ProblemValidationError("'series' must be a nonempty list")
    texts, trees = [], []
    for k, c in enumerate(coeffs):
        source = f"series coefficient {k}"
        if is_json_number(c):
            c = repr(_as_float(c, source))
        if not isinstance(c, str):
            raise ProblemValidationError(f"{source} must be expression text or a number")
        e = _parse_source(c, source)
        # z is the one name with a z in it: no z in the text, none in e
        if "z" in c and contains_z(e):
            raise ProblemValidationError(f"{source} mentions z")
        texts.append(c)
        trees.append(e)
    return ProblemSpec(series=tuple(texts), expr=series(trees), **rest)


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


def _validate(expr: Expr, dom: ParamDomain) -> None:
    """Check the tree in one walk: a negative power needs a base free of z
    (F has no poles in z), a guard sits on a vertex coordinate, and a split
    lies in the coordinate range with sides that agree there.  A bad power
    is reported first, then the switches in walk order."""
    switches = []
    for node in walk(expr):
        if node.__class__ is Pow and node.n < 0 and contains_z(node.base):
            raise ProblemValidationError(
                f"{to_text(node)} is not entire in z: a negative power needs a base free of z"
            )
        if node.__class__ is Guard or node.__class__ is Split:
            switches.append(node)
    lo, hi = dom.coordinate_range()
    vertex_coords = {dom.coordinate(dom.vertex_point(i)) for i in range(len(dom.vertex_names))}
    for node in switches:
        at = node.at
        if node.__class__ is Guard:
            if at not in vertex_coords:
                raise ProblemValidationError(f"guard point {at} is not a domain vertex coordinate")
            continue
        if not (lo <= at <= hi):
            raise ProblemValidationError(f"split point {at} outside coordinate range [{lo}, {hi}]")
        (l,) = EntireFunction(node.a).kernel(at, _CONT_PROBES, dz=False)
        (r,) = EntireFunction(node.b).kernel(at, _CONT_PROBES, dz=False)
        scale = 1.0 + max(np.abs(l).max(), np.abs(r).max())
        if not np.isfinite(l).all() or not np.isfinite(r).all():
            raise ProblemValidationError(f"split at {at} is not finite on both sides")
        if np.abs(l - r).max() > 1e-9 * scale:
            raise ProblemValidationError(f"split at {at} is discontinuous (sides disagree)")


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
    problem document's own config entries.  The expression is the tree
    parse_problem kept on the spec; a spec made by hand is parsed first.
    """
    if spec.fixture is not None:
        from .fixtures import get_fixture

        base = parse_problem(get_fixture(spec.fixture).problem)
        return build(base._replace(config={**base.config, **spec.config}))

    dom = _build_domain(spec.domain)
    seed_pt = _build_seed_point(spec.seed, dom)
    z0 = complex(spec.seed["z"][0], spec.seed["z"][1])
    cfg = _engine_config(spec.config)
    x_range = dom.coordinate_range()

    expr = spec.expr if spec.expr is not None else parse_problem(render(spec)).expr
    _validate(expr, dom)
    return EntireFunction(expr, x_range=x_range), dom, seed_pt, z0, cfg
