"""Parametrized entire functions F(x, z) as small expression trees.

The parameter x is real (the arc coordinate of a domain point), z is
complex.  Trees are data: EntireFunction evaluates F and its exact symbolic
dF/dz (so contour integrands need no finite differences) through one
compiled straight-line code (see _Kernel): on numpy arrays, vectorized over
an array of z values at a float x or over rows (x[k], z[k]) for a float
array x of z's shape, and on Python complex numbers at one point (x, z).
"""

from __future__ import annotations

import cmath
import math
import struct
from typing import Optional

import numpy as np

from .errors import NonFiniteError, OutOfDomainError


# ---------------------------------------------------------------------------
# nodes


class Expr:
    """Base expression node. Subclasses implement _dz / children / code.

    ``_dz`` is the node's derivative in z, given its children's
    derivatives.  ``code`` is the node's operation as a Python expression
    over the children's values {0}, {1} (and {n} for Pow's exponent);
    _Kernel compiles it.  Const and Z need none: they are names in the
    compiled code.  A switch (Guard, Split) has none either: its takes(x)
    picks one side.  _Unary, _Binary and _Switch own their nodes' fields
    and children.

    A node is a plain __slots__ object whose fields, named by its class's
    _fields, are given positionally to the __init__ of its shape (Const,
    _Unary, _Binary, _Switch or Pow) and are read-only.  Two nodes are
    equal when they are of one class and their fields are equal in order;
    the hash is that of the fields' tuple.  So Add(a, b) != Sub(a, b),
    and a field-less X() or Z() is true.

    No walk over a tree recurses (see walk and _fold), so the height of a
    tree is bounded by memory, not by Python's recursion limit.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    code = ""

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def dz(self) -> "Expr":
        """The symbolic derivative dF/dz of this tree."""
        return _fold(self, lambda e, kids: e._dz(*kids), {})

    def _dz(self, *kids: "Expr") -> "Expr":
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_text(self)})"


class Const(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value, /):
        _set_value(self, value)

    def _dz(self):
        return Const(0j)


class X(Expr):
    __slots__ = ()
    # the kernel's caller passes x already converted to complex
    code = "x"

    def _dz(self):
        return Const(0j)


class Z(Expr):
    __slots__ = ()

    def _dz(self):
        return Const(1 + 0j)


class _Unary(Expr):
    __slots__ = _fields = ("a",)

    def __init__(self, a, /):
        _set_unary_a(self, a)

    def children(self):
        return (self.a,)


class _Binary(Expr):
    __slots__ = _fields = ("a", "b")

    def __init__(self, a, b, /):
        _set_binary_a(self, a)
        _set_binary_b(self, b)

    def children(self):
        return (self.a, self.b)


class Add(_Binary):
    __slots__ = ()
    code = "{0} + {1}"

    def _dz(self, da, db):
        return add(da, db)


class Sub(_Binary):
    __slots__ = ()
    code = "{0} - {1}"

    def _dz(self, da, db):
        return sub(da, db)


class Mul(_Binary):
    __slots__ = ()
    code = "{0} * {1}"

    def _dz(self, da, db):
        return add(mul(da, self.b), mul(self.a, db))


class Neg(_Unary):
    __slots__ = ()
    code = "-{0}"

    def _dz(self, da):
        return neg(da)


class Pow(Expr):
    """Integer power. Negative exponents are allowed and mean division.

    ``code`` computes the powers n <= 1; _Kernel computes n >= 2 as
    products of lower powers (see _Kernel._power), not by ``code``.
    """

    __slots__ = _fields = ("base", "n")
    code = "asarray({0}, dtype=complex128) ** {n}"

    def __init__(self, base, n, /):
        _set_base(self, base)
        _set_n(self, n)

    def _dz(self, dbase):
        return mul(mul(Const(complex(self.n)), powi(self.base, self.n - 1)), dbase)

    def children(self):
        return (self.base,)


class Exp(_Unary):
    __slots__ = ()
    code = "exp({0})"

    def _dz(self, da):
        return mul(Exp(self.a), da)


class Sin(_Unary):
    __slots__ = ()
    code = "sin({0})"

    def _dz(self, da):
        return mul(Cos(self.a), da)


class Cos(_Unary):
    __slots__ = ()
    code = "cos({0})"

    def _dz(self, da):
        return neg(mul(Sin(self.a), da))


class _Switch(Expr):
    """Piecewise choice at the parameter point ``at``: ``a`` where the
    switch takes x, ``b`` elsewhere.

    Only the chosen side is evaluated (row by row for an array x), so the
    other side may be singular at ``at``.
    """

    __slots__ = _fields = ("at", "a", "b")

    def __init__(self, at, a, b, /):
        _set_at(self, at)
        _set_switch_a(self, a)
        _set_switch_b(self, b)

    def takes(self, x: float) -> bool:
        raise NotImplementedError

    def _dz(self, da, db):
        return type(self)(self.at, da, db)

    def children(self):
        return (self.a, self.b)


class Guard(_Switch):
    """``a`` when x equals ``at`` exactly, ``b`` otherwise (the usual use:
    removable limits at a domain boundary)."""

    __slots__ = ()

    def takes(self, x):
        return x == self.at


class Split(_Switch):
    """``a`` for x <= at and ``b`` beyond.  Problem validation checks the
    two sides agree at ``at`` so F stays continuous."""

    __slots__ = ()

    def takes(self, x):
        return x <= self.at


# a node's __init__ sets each slot past Expr.__setattr__ by its own setter
_set_value, _set_unary_a = Const.value.__set__, _Unary.a.__set__
_set_binary_a, _set_binary_b = _Binary.a.__set__, _Binary.b.__set__
_set_base, _set_n = Pow.base.__set__, Pow.n.__set__
_set_at, _set_switch_a, _set_switch_b = _Switch.at.__set__, _Switch.a.__set__, _Switch.b.__set__


# ---------------------------------------------------------------------------
# smart constructors (fold constants so derivative trees stay small)


def add(a: Expr, b: Expr) -> Expr:
    if a.__class__ is Const and b.__class__ is Const:
        return Const(a.value + b.value)
    if a.__class__ is Const and a.value == 0:
        return b
    if b.__class__ is Const and b.value == 0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if a.__class__ is Const and b.__class__ is Const:
        return Const(a.value - b.value)
    if b.__class__ is Const and b.value == 0:
        return a
    if a.__class__ is Const and a.value == 0:
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if a.__class__ is Const and b.__class__ is Const:
        return Const(a.value * b.value)
    if a.__class__ is Const and a.value == 0 or b.__class__ is Const and b.value == 0:
        return Const(0j)
    if a.__class__ is Const and a.value == 1:
        return b
    if b.__class__ is Const and b.value == 1:
        return a
    return Mul(a, b)


def neg(a: Expr) -> Expr:
    if a.__class__ is Const:
        return Const(-a.value)
    if a.__class__ is Neg:
        return a.a
    return Neg(a)


def powi(base: Expr, n: int) -> Expr:
    n = int(n)
    if n == 0:
        return Const(1 + 0j)
    if n == 1:
        return base
    if base.__class__ is Const and (base.value != 0 or n > 0):
        try:
            return Const(base.value ** n)
        except (OverflowError, ZeroDivisionError):
            pass  # complex ** int raises past either end of the float range
    return Pow(base, n)


def walk(e: Expr):
    """Every node of the tree at e, each parent before its children, left
    to right (a node reached twice is yielded twice)."""
    todo = [e]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(reversed(node.children()))


def _fold(e: Expr, fn, done: dict):
    """fn(node, its children's values) for every node of the tree at e,
    children first, left to right; returns e's value.

    done maps id(node) to its value, so a node reached twice (or already
    in done) is folded once.
    """
    todo = [(e, False)]
    while todo:
        node, ready = todo.pop()
        if id(node) in done:
            continue
        if ready:
            done[id(node)] = fn(node, [done[id(c)] for c in node.children()])
        else:
            todo.append((node, True))
            todo.extend((c, False) for c in reversed(node.children()))
    return done[id(e)]


def contains_z(e: Expr) -> bool:
    return any(isinstance(node, Z) for node in walk(e))


# ---------------------------------------------------------------------------
# rendering (matches the problem-file grammar, see problem.py)


_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


def _num_text(v: complex) -> str:
    re, im = v.real, v.imag
    if im == 0:
        return repr(re) if re >= 0 else f"-{abs(re)!r}"
    if re == 0:
        return f"{im!r}*i" if im >= 0 else f"-{abs(im)!r}*i"
    sign = "+" if im >= 0 else "-"
    return f"({re!r} {sign} {abs(im)!r}*i)"


def _prec(e: Expr) -> int:
    """How tightly e's text binds, for its parent's brackets."""
    if isinstance(e, Const):
        return _PREC_UNARY if _num_text(e.value).startswith("-") else _PREC_ATOM
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, Mul):
        return _PREC_MUL
    return _PREC_UNARY if isinstance(e, Neg) else _PREC_ATOM


def _operand(e: Expr, bracket: bool) -> list:
    return ["(", e, ")"] if bracket else [e]


def _pieces(e: Expr) -> list:
    """e's text as strings and child trees, in reading order."""
    if isinstance(e, Const):
        return [_num_text(e.value)]
    if isinstance(e, X):
        return ["x"]
    if isinstance(e, Z):
        return ["z"]
    if isinstance(e, (Add, Sub)):
        op = " + " if isinstance(e, Add) else " - "
        return [
            *_operand(e.a, _prec(e.a) < _PREC_ADD), op,
            *_operand(e.b, _prec(e.b) <= _PREC_ADD),
        ]
    if isinstance(e, Mul):
        return [
            *_operand(e.a, _prec(e.a) < _PREC_MUL), "*",
            *_operand(e.b, _prec(e.b) <= _PREC_MUL),
        ]
    if isinstance(e, Neg):
        return ["-", *_operand(e.a, _prec(e.a) < _PREC_UNARY)]
    if isinstance(e, Pow):
        return ["pow(", e.base, f", {e.n})"]
    if isinstance(e, (Exp, Sin, Cos)):
        return [f"{type(e).__name__.lower()}(", e.a, ")"]
    if isinstance(e, _Switch):
        return [f"{type(e).__name__.lower()}({e.at!r}; ", e.a, "; ", e.b, ")"]
    raise TypeError(f"unknown node {type(e).__name__}")


def to_text(e: Expr) -> str:
    """Render a tree in the grammar accepted by the problem parser."""
    out, todo = [], [e]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            todo.extend(reversed(_pieces(item)))
    return "".join(out)


# ---------------------------------------------------------------------------
# the function wrapper


class EntireFunction:
    """F(x, z): entire in z for each parameter x, jointly continuous.

    Parameters
    ----------
    expr : Expr
        Expression tree over the variables x and z.
    x_range : (float, float), optional
        Closed admissible range for x.  Evaluations outside raise
        OutOfDomainError.  None disables the check.
    """

    def __init__(self, expr: Expr, x_range: Optional[tuple[float, float]] = None):
        self.expr = expr
        self.x_range = x_range
        self._compiled: Optional[_Kernel] = None  # built on first use

    def _check_x(self, x):
        """x as a float, or as a float array when x is an ndarray.

        Raises OutOfDomainError naming the first x outside x_range (a NaN x
        is outside).
        """
        array = isinstance(x, np.ndarray)
        x = x.astype(np.float64, copy=False) if array else float(x)
        if self.x_range is not None:
            lo, hi = self.x_range
            inside = (lo <= x) & (x <= hi) if array else lo <= x <= hi
            if not (inside.all() if array else inside):
                bad = float(x.ravel()[np.argmin(inside.ravel())]) if array else x
                raise OutOfDomainError(f"x={bad} outside [{lo}, {hi}]")
        return x

    def kernel(self, x, z: np.ndarray, dz: bool = True) -> tuple[np.ndarray, ...]:
        """(F, dF/dz) at x, or (F,) when dz is False, unchecked.

        x is a float, or a float array of z's shape that gives each z its
        own x.  Each value is a complex array of z's shape, from one call
        of the compiled kernel (see _Kernel); non-finite values are
        returned as they are.
        """
        x = self._check_x(x)
        z = np.asarray(z, dtype=np.complex128)
        if isinstance(x, np.ndarray) and x.shape != z.shape:
            raise ValueError(f"x has shape {x.shape}, z has shape {z.shape}")
        if self._compiled is None:
            self._compiled = _Kernel(self.expr)
        return self._compiled(x, z, dz)

    def at(self, x: float, z: complex, dz: bool = True) -> tuple[complex, ...]:
        """(F, dF/dz) at one point, or (F,) when dz is False, as Python
        complex numbers.

        The kernel's code runs on Python complex numbers and cmath (see
        _Kernel.at), which may round a last bit differently from numpy's
        array loops.  Where that arithmetic raises or gives a value that is
        not finite, the point goes through kernel instead, so a non-finite
        value is always kernel's.  Unchecked, like kernel.
        """
        x = self._check_x(x)
        if self._compiled is None:
            self._compiled = _Kernel(self.expr)
        return self._compiled.at(x, complex(z), dz)

    def eval(self, x: float, z: complex) -> complex:
        """Evaluate F(x, z) for scalar z. Raises NonFiniteError on overflow."""
        (v,) = self.at(x, z, dz=False)
        if not cmath.isfinite(v):
            raise NonFiniteError(f"F(x={x}, z={complex(z)}) is not finite")
        return v

    def eval_many(self, x: float, z: np.ndarray) -> np.ndarray:
        """Vectorized F(x, z) over an array of z values."""
        return self._ev_checked(0, x, z)

    def eval_dz_many(self, x: float, z: np.ndarray) -> np.ndarray:
        """Vectorized dF/dz over an array of z values."""
        return self._ev_checked(1, x, z)

    def _ev_checked(self, k: int, x, z: np.ndarray) -> np.ndarray:
        """F (k = 0) or dF/dz (k = 1), finite or NonFiniteError."""
        z = np.asarray(z, dtype=np.complex128)
        out = self.kernel(x, z, dz=k == 1)[k]
        require_finite(x, z, out)
        return out


def require_finite(x, z: np.ndarray, *values: np.ndarray) -> None:
    """Raise NonFiniteError naming the first z where a value is not finite."""
    for v in values:
        ok = np.isfinite(v)
        if not ok.all():
            bad = z.ravel()[int(np.flatnonzero(~ok.ravel())[0])]
            raise NonFiniteError(f"F(x={x}, z={bad}) is not finite")


def x_key(x: float) -> bytes:
    """The exact bits of a float x: 0.0 and -0.0 are different keys."""
    return _F64.pack(x)


_F64 = struct.Struct("<d")
_X_CACHE = 8  # x values whose x-only part one kernel keeps, on each path


def _remember(cache: dict, key: bytes, value: tuple) -> tuple:
    """cache[key] = value, first dropping the oldest of _X_CACHE keys."""
    if len(cache) >= _X_CACHE:
        del cache[next(iter(cache))]
    cache[key] = value
    return value


def _as_rows(value, z: np.ndarray) -> np.ndarray:
    out = np.asarray(value, dtype=np.complex128)
    return out if out.shape == z.shape else np.broadcast_to(out, z.shape).copy()


def _as_complex(value, _z=None, dtype=None) -> complex:
    """asarray and rows of the one-point path: the value as a complex."""
    return complex(value)


# the names the compiled code calls, on numpy arrays and at one point
_ARRAY_OPS = {
    "asarray": np.asarray, "complex128": np.complex128, "rows": _as_rows,
    "exp": np.exp, "sin": np.sin, "cos": np.cos,
}
_POINT_OPS = {
    "asarray": _as_complex, "complex128": complex, "rows": _as_complex,
    "exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos,
}


class _Kernel:
    """F and dF/dz of one function as compiled straight-line code.

    The value tree and its symbolic dz tree are hash-consed into one DAG,
    so each distinct subexpression is computed once per call.  Constants
    and switch points are keyed on their type and repr, which tell -0.0
    from 0.0, so merged nodes always compute the same bits.  A value of x
    fixes every guard/split choice; each choice signature gets its own
    code, compiled on first use: an x part (the nodes that do not read z)
    and a z part.  Each node runs its ``Expr.code``, on complex(x) for a
    float x and on x.astype(complex128) for an array x.  A power b**n with
    n >= 2 is interned as the product of b**(n//2) and b**(n - n//2), so
    the powers of one base share their lower powers, and b**n alone
    costs O(log n) products (Knuth, TAOCP vol. 2, section 4.6.3), with
    the rounding error of n - 1 products at most.  Such a power takes the
    type of its base's value: on a float x, a power of x is a Python
    complex, not numpy's.

    A float x runs the x part once and caches its values on the bits of
    x, for every later call at that x.  An array x (one x per z) splits
    its rows into groups of one signature, each run through its own code
    on its own rows; when all rows share a signature (always, for a
    function without guard or split) there is one group and no split.
    A row's signature depends only on where its x lies among the switch
    points, so a group is one cell between them, numbered by the count of
    points <= x plus the count of points < x.  (np.unique is avoided: its
    first call imports numpy.ma.)

    The same code object runs a second time under _POINT_OPS, on Python
    complex numbers and cmath, for one point (see at).
    """

    def __init__(self, expr: Expr):
        self.nodes: list[Expr] = []  # the DAG: distinct nodes, children first
        self.kids: list[tuple[int, ...]] = []  # their children's ids
        ids: dict[tuple, int] = {}
        seen: dict[int, int] = {}

        def intern(e: Expr, kids: list[int]) -> int:
            return self._intern(e, tuple(kids), ids)

        self.roots = (_fold(expr, intern, seen), _fold(expr.dz(), intern, seen))
        self.switches = [i for i, e in enumerate(self.nodes) if isinstance(e, _Switch)]
        self.points = np.sort([self.nodes[i].at for i in self.switches])
        consts = {}
        for i, e in enumerate(self.nodes):
            if isinstance(e, Const):
                consts[f"c{i}"] = e.value
            elif isinstance(e, Pow):
                consts[f"n{i}"] = e.n
        self.names = {**_ARRAY_OPS, **consts}
        self.point_names = {**_POINT_OPS, **consts}
        # signature -> its (x part, z part); x bits -> (its z part, the x
        # part's values at x); the same for the one-point path
        self.codes: dict[tuple[bool, ...], tuple] = {}
        self.by_x: dict[bytes, tuple] = {}
        self.point_codes: dict[tuple[bool, ...], tuple] = {}
        self.point_by_x: dict[bytes, tuple] = {}

    def _intern(self, e: Expr, kids: tuple[int, ...], ids: dict) -> int:
        """The DAG id of e, whose children have the ids kids."""
        if isinstance(e, Pow) and e.n >= 2:
            return self._power(e.base, e.n, kids[0], ids)
        if isinstance(e, Const):
            payload = (type(e.value), repr(e.value))
        elif isinstance(e, Pow):
            payload = (type(e.n), repr(e.n))
        elif isinstance(e, _Switch):
            payload = repr(e.at)
        else:
            payload = None
        i = ids.setdefault((type(e), payload, kids), len(self.nodes))
        if i == len(self.nodes):
            self.nodes.append(e)
            self.kids.append(kids)
        return i

    def _power(self, base: Expr, n: int, b: int, ids: dict) -> int:
        """The DAG id of base**n for n >= 2, where base has the id b: the
        product of base**(n//2) and base**(n - n//2), each built the same
        way down to base itself at exponent 1.  The exponents at each depth
        are two neighbours at most, and their products are interned, so
        every lower power is one shared node."""
        need, todo = {n}, [n]
        while todo:
            k = todo.pop()
            for h in {k // 2, k - k // 2} - need - {1}:
                need.add(h)
                todo.append(h)
        got = {1: b}
        for k in sorted(need):  # the halves of k come before k
            lo, hi = k // 2, k - k // 2
            node = Mul(*(base if h == 1 else Pow(base, h) for h in (lo, hi)))
            got[k] = self._intern(node, (got[lo], got[hi]), ids)
        return got[n]

    def __call__(self, x, z: np.ndarray, dz: bool):
        with np.errstate(all="ignore"):
            if isinstance(x, np.ndarray):
                return self._rows(x, z, dz)
            key = x_key(x)
            hit = self.by_x.get(key)
            if hit is None:
                xpart, zpart = self._parts(x, self.codes)
                hit = _remember(self.by_x, key, (zpart, xpart(complex(x))))
            zpart, xvals = hit
            return zpart(xvals, z, dz)

    def at(self, x: float, z: complex, dz: bool) -> tuple[complex, ...]:
        """__call__ at the one point (x, z), run under point_names.

        The x part's values are kept per x as in __call__, apart from it.
        Where the Python arithmetic raises, or F or dF/dz is not finite,
        __call__ evaluates the point instead.
        """
        key = x_key(x)
        hit = self.point_by_x.get(key)
        try:
            if hit is None:
                xpart, zpart = self._parts(x, self.point_codes)
                hit = _remember(self.point_by_x, key, (zpart, xpart(complex(x))))
            zpart, xvals = hit
            out = zpart(xvals, z, dz)
            if cmath.isfinite(out[0]) and cmath.isfinite(out[-1]):
                return out
        except (OverflowError, ZeroDivisionError, ValueError):
            pass
        return tuple(complex(v[0]) for v in self(x, np.array([z]), dz))

    def _rows(self, x: np.ndarray, z: np.ndarray, dz: bool):
        """Row k at (x[k], z[k]); each cell's code runs on its rows."""
        xc = x.astype(np.complex128)
        pts = self.points
        cell = np.searchsorted(pts, x, "right") + np.searchsorted(pts, x, "left")
        if x.size and (cell == cell.flat[0]).all():
            xpart, zpart = self._parts(float(x.flat[0]), self.codes)
            return zpart(xpart(xc), z, dz)
        out = tuple(np.empty(z.shape, dtype=np.complex128) for _ in range(1 + dz))
        for c in np.flatnonzero(np.bincount(cell.ravel())).tolist():
            rows = cell == c
            xpart, zpart = self._parts(float(x[rows][0]), self.codes)
            for o, v in zip(out, zpart(xpart(xc[rows]), z[rows], dz)):
                o[rows] = v
        return out

    def _signature(self, x: float) -> tuple[bool, ...]:
        """Per switch, whether it takes x (its side a)."""
        return tuple(self.nodes[i].takes(x) for i in self.switches)

    def _parts(self, x: float, codes: dict) -> tuple:
        """The (x part, z part) of x's choice signature, from codes or
        point_codes."""
        sig = self._signature(x)
        if sig not in codes:
            self._compile(sig)
        return codes[sig]

    def _compile(self, sig: tuple[bool, ...]) -> None:
        """The x part and the z part for one choice signature, as one code
        object run under names into codes and under point_names into
        point_codes.

        The z part computes F's nodes first and returns (F,) there unless
        dz is asked for; then the rest of dF/dz's nodes."""
        chosen = dict(zip(self.switches, sig))

        def pick(i):
            # a switch is its chosen side: a when it takes x
            while i in chosen:
                i = self.kids[i][0 if chosen[i] else 1]
            return i

        roots = tuple(pick(r) for r in self.roots)
        kids = {}
        todo = list(roots)
        while todo:
            i = todo.pop()
            if i not in kids:
                kids[i] = tuple(pick(c) for c in self.kids[i])
                todo.extend(kids[i])
        reads_z = {}
        for i in sorted(kids):  # children have smaller ids than parents
            e = self.nodes[i]
            reads_z[i] = isinstance(e, Z) or any(reads_z[c] for c in kids[i])
        # x-only values the z part reads (operands of z nodes, and roots);
        # constants are global names already
        shared = sorted(
            i
            for i in {c for i in kids if reads_z[i] for c in kids[i]} | set(roots)
            if not reads_z[i] and not isinstance(self.nodes[i], Const)
        )
        xvals = "(" + "".join(f"v{i}, " for i in shared) + ")"
        f_nodes = _reached(roots[:1], kids, reads_z)
        dz_nodes = _reached(roots[1:], kids, reads_z) - f_nodes
        f, d = (f"rows({self._name(r)}, z)" for r in roots)
        dz_reads = {c for i in dz_nodes for c in kids[i]}
        src = [
            "def xpart(x):",
            *self._lines([i for i in kids if not reads_z[i]], kids, set(shared)),
            f"return {xvals}",
            "def zpart(xvals, z, dz):",
            *([f"{xvals} = xvals"] if shared else []),
            *self._lines(f_nodes, kids, dz_reads | set(roots)),
            f"if not dz: return ({f},)",
            *self._lines(dz_nodes, kids, set(roots)),
            f"return ({f}, {d})",
        ]
        # every line but the def lines is a function body
        text = "\n".join(ln if ln.startswith("def ") else "    " + ln for ln in src)
        code = compile(text, "<rootbranch kernel>", "exec")
        for names, codes in (
            (self.names, self.codes), (self.point_names, self.point_codes)
        ):
            scope: dict = {}
            exec(code, names, scope)
            codes[sig] = (scope["xpart"], scope["zpart"])
        if not self.switches:
            # the only signature there is: the DAG is not needed again
            self.nodes = self.kids = []

    def _name(self, i: int) -> str:
        e = self.nodes[i]
        if isinstance(e, Z):
            return "z"
        return f"c{i}" if isinstance(e, Const) else f"v{i}"

    def _lines(self, ids, kids: dict, keep: set[int]) -> list[str]:
        """One assignment per node, children first; constants and z are
        names already.  A value not in keep is deleted after its last read
        here, so that rows of an array x do not keep every intermediate
        array alive until the function returns."""
        order = [i for i in sorted(ids) if not isinstance(self.nodes[i], (Const, Z))]
        last = {c: i for i in order for c in kids[i]}
        lines = []
        for i in order:
            e = self.nodes[i]
            if not e.code:
                raise TypeError(f"no compiled form for node {type(e).__name__}")
            lines.append(f"v{i} = " + e.code.format(*map(self._name, kids[i]), n=f"n{i}"))
            dead = sorted(
                f"v{c}" for c in set(kids[i]) if last[c] == i and c not in keep
                and not isinstance(self.nodes[c], (Const, Z))
            )
            if dead:
                lines.append("del " + ", ".join(dead))
        return lines


def series(coeffs) -> Expr:
    """The sum of coeffs[k] * z**k as one expression, in Horner form
    c0 + z * (c1 + z * (... + z * cd)) (Knuth, TAOCP vol. 2, section
    4.6.4).

    A degree-d series then costs d complex products and d sums, and its
    dz tree, (c1 + z * (...)) + z * (its own dz), the same again on top:
    no power of z is formed.  A power series in z needs coefficients that
    do not mention z; parse_problem checks that for a ``series`` document.
    """
    total: Expr = Const(0j)
    for c in reversed(tuple(coeffs)):
        total = add(c, mul(Z(), total))
    return total


# ---------------------------------------------------------------------------
# degeneracy probe and Newton polish


PROBE_RADII = (1.0, 10.0)  # degeneracy_probe: circles |z| = r it samples
PROBE_SAMPLES = 64  # degeneracy_probe: points per circle
PROBE_TOL_REL = 1e-10  # degeneracy_probe: spread <= PROBE_TOL_REL * (1 + max |F|)


def degeneracy_probe(f: EntireFunction, x0: float) -> Optional[complex]:
    """The constant value of z -> F(x0, z), or None where it is not
    constant, decided heuristically.

    Samples the origin plus PROBE_SAMPLES points on each circle |z| = r
    for r in PROBE_RADII and compares the spread against
    PROBE_TOL_REL * (1 + max |F|).  A nonfinite value anywhere is immediate
    evidence of nonconstancy.  The constant may be 0, so test the result
    with ``is None``.
    """
    pts = [np.zeros(1, dtype=np.complex128)]
    for r in PROBE_RADII:
        ang = 2.0 * np.pi * np.arange(PROBE_SAMPLES) / PROBE_SAMPLES
        pts.append(r * np.exp(1j * ang))
    zs = np.concatenate(pts)
    (vals,) = f.kernel(x0, zs, dz=False)
    if not np.isfinite(vals).all():
        return None
    tol = PROBE_TOL_REL * (1.0 + float(np.abs(vals).max()))
    # two-sweep diameter estimate: farthest from the origin value, then
    # farthest from that
    i1 = int(np.argmax(np.abs(vals - vals[0])))
    i2 = int(np.argmax(np.abs(vals - vals[i1])))
    spread = float(np.abs(vals[i2] - vals[i1]))
    if spread <= tol:
        return complex(vals[0])
    return None


# Newton iterations of polish_root by default, and of every polish_roots row
POLISH_MAX_ITER = 8
# a polish_roots row stops after a step |step - z| <= POLISH_STOP_ULPS * eps * |step|
POLISH_STOP_ULPS = 4


def modulus(c: complex) -> float:
    """abs(c), or inf where finite parts have a modulus past the float
    range: abs() of a Python complex raises there, np.abs gives inf."""
    try:
        return abs(c)
    except OverflowError:
        return math.inf


def polish_root(
    f: EntireFunction, x: float, z0: complex, max_iter: int = POLISH_MAX_ITER
) -> tuple[complex, float]:
    """Newton-refine an approximate root of z -> F(x, z).

    Returns the best iterate and its residual |F(x, z)|.  Stops early when
    the residual stops improving, and when an iterate repeats an earlier
    one bit for bit (the evaluation is deterministic, so the rest would
    replay a cycle that cannot improve the best); never moves to a worse
    iterate.  Each iterate costs one call of the one-point evaluator
    f.at for F and dF/dz together, on Python complex numbers.
    """
    z = best_z = complex(z0)
    fz, d = f.at(x, z)
    if not cmath.isfinite(fz):
        return best_z, float("inf")
    r = best_r = modulus(fz)
    # hex keeps 0.0 and -0.0 apart, which the kernel may tell apart
    seen = {(z.real.hex(), z.imag.hex())}
    for _ in range(max_iter):
        # a non-finite d is a break as well
        if r == 0.0 or d == 0 or not math.isfinite(modulus(d)):
            break
        z = z - fz / d
        key = (z.real.hex(), z.imag.hex())
        if key in seen:
            break
        seen.add(key)
        fz, d = f.at(x, z)
        if not cmath.isfinite(fz):
            break
        r = modulus(fz)
        if r < best_r:
            best_z, best_r = z, r
        elif r > 2.0 * best_r:
            break
    return best_z, best_r


def polish_roots(
    f: EntireFunction, x: np.ndarray, z0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """polish_root for many rows at once: row k refines z0[k] at x[k].

    x and z0 are arrays of one shape, of any number of dimensions; each
    element is a row.  All rows share one Newton loop over arrays, with
    one kernel call for F and dF/dz per iteration.  Every row follows
    polish_root's rules with its default iteration count, with two stops
    of its own.  A row stops when a Newton step gives back its current
    iterate bit for bit, not whenever one gives back an earlier iterate:
    a longer cycle only replays iterates already scored.  And a row whose
    correction is at the rounding level of its new iterate,
    |step - z| <= POLISH_STOP_ULPS * eps * |step|, is evaluated and scored
    at step and then stops: past that point Newton only wanders within
    the rounding noise of F (Dennis & Schnabel 1983, 7.2).  The best
    iterate is returned, as by polish_root.

    A row ends, as polish_root does, where |F| is rounding noise, but not
    always on polish_root's bits: the stops, and numpy's array arithmetic,
    which may round a last bit differently from polish_root's Python
    arithmetic, move it within that noise.  A row (z, r) agrees with
    polish_root's (zs, rs) within
    4 * eps * (1 + |zs|) + (r + rs + 2 * mu) / |F_z|, mu the rounding error
    of F about the root: a few ulp, plus the disk where |F| is at most a
    residual plus mu.  For a polynomial series mu is about eps times the
    sum of |c| |x|**p |z|**k over its terms c x**p z**k.  Returns the
    arrays (z, residual), of the rows' shape.
    """
    z0 = np.asarray(z0, dtype=np.complex128)
    x = np.asarray(x, dtype=np.float64)
    fz, d = f.kernel(x, z0)  # checks x's range and shape
    x, fz, d = x.ravel(), fz.ravel(), d.ravel()
    best_z = z0.ravel().copy()
    settle = POLISH_STOP_ULPS * np.finfo(np.float64).eps
    with np.errstate(all="ignore"):
        start_ok = np.isfinite(fz)
        best_r = np.where(start_ok, np.abs(fz), np.inf)
        # rows still iterating, with their current iterate and F, F_z there
        live = np.flatnonzero(start_ok & (best_r != 0.0))
        z, fz, d = best_z[live], fz[live], d[live]
        for _ in range(POLISH_MAX_ITER):
            if live.size == 0:
                break
            ok = (d != 0) & np.isfinite(np.abs(d))
            live, z, fz, d = live[ok], z[ok], fz[ok], d[ok]
            step = z - fz / d
            # the int64 view keeps 0.0 and -0.0 apart, as polish_root does
            moved = (step.view(np.int64) != z.view(np.int64)).reshape(-1, 2).any(axis=1)
            settled = np.abs(step - z) <= settle * np.abs(step)
            live, z, settled = live[moved], step[moved], settled[moved]
            fz, d = f.kernel(x[live], z)
            ok = np.isfinite(fz)
            live, z, fz, d, settled = live[ok], z[ok], fz[ok], d[ok], settled[ok]
            r = np.abs(fz)
            better = r < best_r[live]
            best_z[live[better]] = z[better]
            best_r[live[better]] = r[better]
            keep = (r <= 2.0 * best_r[live]) & (r != 0.0) & ~settled
            live, z, fz, d = live[keep], z[keep], fz[keep], d[keep]
    return best_z.reshape(z0.shape), best_r.reshape(z0.shape)


def _reached(roots, kids: dict, reads_z: dict) -> set[int]:
    """The nodes reading z that the roots depend on."""
    seen: set[int] = set()
    todo = list(roots)
    while todo:
        i = todo.pop()
        if reads_z[i] and i not in seen:
            seen.add(i)
            todo.extend(kids[i])
    return seen
