"""Parametrized entire functions F(x, z) as small expression trees.

The parameter x is real (the arc coordinate of a domain point), z is
complex.  Trees evaluate vectorized over numpy arrays of z values, and x may
be a float array that broadcasts against z (one parameter per row).  Trees
carry an exact symbolic d/dz so contour integrands need no finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NonFiniteError, OutOfDomainError


# ---------------------------------------------------------------------------
# nodes


class Expr:
    """Base expression node. Subclasses implement ev / dz / children.

    ``ev(x, z)`` takes a float x or a float ndarray x that broadcasts
    against z.
    """

    def ev(self, x, z):
        raise NotImplementedError

    def dz(self) -> "Expr":
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        return ()

    # operator sugar so fixtures and tests can build trees compactly
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_text(self)})"


@dataclass(frozen=True, repr=False)
class Const(Expr):
    value: complex

    def ev(self, x, z):
        return self.value

    def dz(self):
        return Const(0j)


@dataclass(frozen=True, repr=False)
class X(Expr):
    def ev(self, x, z):
        if isinstance(x, np.ndarray):
            return x.astype(np.complex128)
        return complex(x)

    def dz(self):
        return Const(0j)


@dataclass(frozen=True, repr=False)
class Z(Expr):
    def ev(self, x, z):
        return z

    def dz(self):
        return Const(1 + 0j)


@dataclass(frozen=True, repr=False)
class Add(Expr):
    a: Expr
    b: Expr

    def ev(self, x, z):
        return self.a.ev(x, z) + self.b.ev(x, z)

    def dz(self):
        return add(self.a.dz(), self.b.dz())

    def children(self):
        return (self.a, self.b)


@dataclass(frozen=True, repr=False)
class Sub(Expr):
    a: Expr
    b: Expr

    def ev(self, x, z):
        return self.a.ev(x, z) - self.b.ev(x, z)

    def dz(self):
        return sub(self.a.dz(), self.b.dz())

    def children(self):
        return (self.a, self.b)


@dataclass(frozen=True, repr=False)
class Mul(Expr):
    a: Expr
    b: Expr

    def ev(self, x, z):
        return self.a.ev(x, z) * self.b.ev(x, z)

    def dz(self):
        return add(mul(self.a.dz(), self.b), mul(self.a, self.b.dz()))

    def children(self):
        return (self.a, self.b)


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    a: Expr

    def ev(self, x, z):
        return -self.a.ev(x, z)

    def dz(self):
        return neg(self.a.dz())

    def children(self):
        return (self.a,)


@dataclass(frozen=True, repr=False)
class Pow(Expr):
    """Integer power. Negative exponents are allowed and mean division."""

    base: Expr
    n: int

    def ev(self, x, z):
        b = np.asarray(self.base.ev(x, z), dtype=np.complex128)
        return b ** self.n

    def dz(self):
        return mul(mul(Const(complex(self.n)), powi(self.base, self.n - 1)), self.base.dz())

    def children(self):
        return (self.base,)


@dataclass(frozen=True, repr=False)
class Exp(Expr):
    a: Expr

    def ev(self, x, z):
        return np.exp(self.a.ev(x, z))

    def dz(self):
        return mul(Exp(self.a), self.a.dz())

    def children(self):
        return (self.a,)


@dataclass(frozen=True, repr=False)
class Sin(Expr):
    a: Expr

    def ev(self, x, z):
        return np.sin(self.a.ev(x, z))

    def dz(self):
        return mul(Cos(self.a), self.a.dz())

    def children(self):
        return (self.a,)


@dataclass(frozen=True, repr=False)
class Cos(Expr):
    a: Expr

    def ev(self, x, z):
        return np.cos(self.a.ev(x, z))

    def dz(self):
        return neg(mul(Sin(self.a), self.a.dz()))

    def children(self):
        return (self.a,)


@dataclass(frozen=True, repr=False)
class Guard(Expr):
    """Piecewise value pinned at one parameter point.

    Evaluates ``at_value`` when x equals x0 exactly, ``elsewhere`` otherwise.
    Only the selected branch is evaluated (row by row for an array x), so
    the other branch may be singular at x0 (the usual use: removable limits
    at a domain boundary).
    """

    x0: float
    at_value: Expr
    elsewhere: Expr

    def ev(self, x, z):
        if isinstance(x, np.ndarray):
            return _select(x == self.x0, x, z, self.at_value, self.elsewhere)
        if x == self.x0:
            return self.at_value.ev(x, z)
        return self.elsewhere.ev(x, z)

    def dz(self):
        return Guard(self.x0, self.at_value.dz(), self.elsewhere.dz())

    def children(self):
        return (self.at_value, self.elsewhere)


@dataclass(frozen=True, repr=False)
class Split(Expr):
    """Two-sided piecewise switch at a parameter value.

    Evaluates ``left`` for x <= xc and ``right`` for x > xc.  Problem
    validation checks the two sides agree at xc so F stays continuous.
    """

    xc: float
    left: Expr
    right: Expr

    def ev(self, x, z):
        if isinstance(x, np.ndarray):
            return _select(x <= self.xc, x, z, self.left, self.right)
        if x <= self.xc:
            return self.left.ev(x, z)
        return self.right.ev(x, z)

    def dz(self):
        return Split(self.xc, self.left.dz(), self.right.dz())

    def children(self):
        return (self.left, self.right)


def _select(mask: np.ndarray, x: np.ndarray, z, a: Expr, b: Expr):
    """``a`` on the rows where mask holds, ``b`` on the others; each side is
    evaluated only on its own rows."""
    if mask.all():
        return a.ev(x, z)
    if not mask.any():
        return b.ev(x, z)
    x, z, mask = np.broadcast_arrays(x, z, mask)
    out = np.empty(x.shape, dtype=np.complex128)
    out[mask] = a.ev(x[mask], z[mask])
    out[~mask] = b.ev(x[~mask], z[~mask])
    return out


# ---------------------------------------------------------------------------
# smart constructors (fold constants so derivative trees stay small)


def _wrap(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Const(complex(v))


def _is_const(e: Expr, value=None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0j)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def powi(base: Expr, n: int) -> Expr:
    n = int(n)
    if n == 0:
        return Const(1 + 0j)
    if n == 1:
        return base
    if _is_const(base) and (base.value != 0 or n > 0):
        return Const(base.value ** n)
    return Pow(base, n)


def exp(a: Expr) -> Expr:
    return Exp(_wrap(a))


def sin(a: Expr) -> Expr:
    return Sin(_wrap(a))


def cos(a: Expr) -> Expr:
    return Cos(_wrap(a))


def contains_z(e: Expr) -> bool:
    if isinstance(e, Z):
        return True
    return any(contains_z(c) for c in e.children())


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


def _txt(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        t = _num_text(e.value)
        return t, (_PREC_UNARY if t.startswith("-") else _PREC_ATOM)
    if isinstance(e, X):
        return "x", _PREC_ATOM
    if isinstance(e, Z):
        return "z", _PREC_ATOM
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        lt, lp = _txt(e.a)
        rt, rp = _txt(e.b)
        if lp < _PREC_ADD:
            lt = f"({lt})"
        if rp <= _PREC_ADD:
            rt = f"({rt})"
        return f"{lt} {op} {rt}", _PREC_ADD
    if isinstance(e, Mul):
        lt, lp = _txt(e.a)
        rt, rp = _txt(e.b)
        if lp < _PREC_MUL:
            lt = f"({lt})"
        if rp < _PREC_MUL:
            rt = f"({rt})"
        return f"{lt}*{rt}", _PREC_MUL
    if isinstance(e, Neg):
        t, p = _txt(e.a)
        if p < _PREC_UNARY:
            t = f"({t})"
        return f"-{t}", _PREC_UNARY
    if isinstance(e, Pow):
        t, _ = _txt(e.base)
        return f"pow({t}, {e.n})", _PREC_ATOM
    if isinstance(e, Exp):
        return f"exp({_txt(e.a)[0]})", _PREC_ATOM
    if isinstance(e, Sin):
        return f"sin({_txt(e.a)[0]})", _PREC_ATOM
    if isinstance(e, Cos):
        return f"cos({_txt(e.a)[0]})", _PREC_ATOM
    if isinstance(e, Guard):
        return (
            f"guard({e.x0!r}; {_txt(e.at_value)[0]}; {_txt(e.elsewhere)[0]})",
            _PREC_ATOM,
        )
    if isinstance(e, Split):
        return (
            f"split({e.xc!r}; {_txt(e.left)[0]}; {_txt(e.right)[0]})",
            _PREC_ATOM,
        )
    raise TypeError(f"unknown node {type(e).__name__}")


def to_text(e: Expr) -> str:
    """Render a tree in the grammar accepted by the problem parser."""
    return _txt(e)[0]


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
        self._dz = expr.dz()

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

    def eval(self, x: float, z: complex) -> complex:
        """Evaluate F(x, z) for scalar z. Raises NonFiniteError on overflow."""
        return complex(self.eval_many(x, np.asarray([z], dtype=np.complex128))[0])

    def eval_dz(self, x: float, z: complex) -> complex:
        """Evaluate dF/dz (x, z) for scalar z."""
        return complex(self.eval_dz_many(x, np.asarray([z], dtype=np.complex128))[0])

    def eval_many(self, x: float, z: np.ndarray) -> np.ndarray:
        """Vectorized F(x, z) over an array of z values."""
        return self._ev_checked(self.expr, x, z)

    def eval_dz_many(self, x: float, z: np.ndarray) -> np.ndarray:
        """Vectorized dF/dz over an array of z values."""
        return self._ev_checked(self._dz, x, z)

    def _ev_checked(self, expr: Expr, x: float, z: np.ndarray) -> np.ndarray:
        x = self._check_x(x)
        z = np.asarray(z, dtype=np.complex128)
        with np.errstate(all="ignore"):
            out = _ev_rows(expr, x, z)
        if not np.isfinite(out).all():
            bad = z.ravel()[int(np.flatnonzero(~np.isfinite(out.ravel()))[0])]
            raise NonFiniteError(f"F(x={x}, z={bad}) is not finite")
        return out


@dataclass(frozen=True)
class SeriesForm:
    """F given by a finite power series in z with x-dependent coefficients.

    coeffs[k] is the expression for the coefficient of z**k; coefficient
    expressions must not mention z.
    """

    coeffs: tuple[Expr, ...]

    def __post_init__(self):
        for k, c in enumerate(self.coeffs):
            if contains_z(c):
                raise ValueError(f"series coefficient {k} mentions z")

    def to_entire(self, x_range: Optional[tuple[float, float]] = None) -> EntireFunction:
        total: Expr = Const(0j)
        for k, c in enumerate(self.coeffs):
            total = add(total, mul(c, powi(Z(), k)))
        return EntireFunction(total, x_range=x_range)

    def coeff_values(self, x: float) -> np.ndarray:
        """Numeric coefficients [a0, ..., aN] at parameter x."""
        zdummy = np.zeros(1, dtype=np.complex128)
        with np.errstate(all="ignore"):
            vals = [
                complex(np.asarray(c.ev(float(x), zdummy)).ravel()[0])
                for c in self.coeffs
            ]
        return np.asarray(vals, dtype=np.complex128)


# ---------------------------------------------------------------------------
# degeneracy probe and Newton polish


@dataclass(frozen=True)
class DegeneracyResult:
    """Outcome of sampling z -> F(x0, z) for constancy.

    degenerate : True when all probe values agree within tol.
    constant   : the shared value (degenerate case only).
    witness    : ((z_a, f_a), (z_b, f_b)) maximizing |f_a - f_b| otherwise.
    """

    degenerate: bool
    constant: Optional[complex] = None
    witness: Optional[tuple[tuple[complex, complex], tuple[complex, complex]]] = None


def degeneracy_probe(
    f: EntireFunction,
    x0: float,
    radii: Sequence[float] = (1.0, 10.0),
    samples_per_circle: int = 64,
    tol_rel: float = 1e-10,
) -> DegeneracyResult:
    """Decide heuristically whether z -> F(x0, z) is constant.

    Samples the origin plus ``samples_per_circle`` points on each circle
    |z| = r for r in radii and compares the spread against
    tol_rel * (1 + max |F|).  A nonfinite value anywhere is immediate
    evidence of nonconstancy.
    """
    pts = [np.zeros(1, dtype=np.complex128)]
    for r in radii:
        ang = 2.0 * np.pi * np.arange(samples_per_circle) / samples_per_circle
        pts.append(r * np.exp(1j * ang))
    zs = np.concatenate(pts)
    x0 = f._check_x(x0)
    with np.errstate(all="ignore"):
        vals = _ev_rows(f.expr, x0, zs)
    finite = np.isfinite(vals)
    if not finite.all():
        zb = complex(zs[int(np.flatnonzero(~finite)[0])])
        za = complex(zs[int(np.flatnonzero(finite)[0])]) if finite.any() else 0j
        fa = complex(vals[int(np.flatnonzero(finite)[0])]) if finite.any() else 0j
        return DegeneracyResult(False, witness=((za, fa), (zb, complex("inf"))))
    tol = tol_rel * (1.0 + float(np.abs(vals).max()))
    # two-sweep diameter estimate: farthest from the origin value, then
    # farthest from that
    i1 = int(np.argmax(np.abs(vals - vals[0])))
    i2 = int(np.argmax(np.abs(vals - vals[i1])))
    spread = float(np.abs(vals[i2] - vals[i1]))
    if spread <= tol:
        return DegeneracyResult(True, constant=complex(vals[0]))
    return DegeneracyResult(
        False,
        witness=(
            (complex(zs[i1]), complex(vals[i1])),
            (complex(zs[i2]), complex(vals[i2])),
        ),
    )


# Newton iterations of polish_root by default, and of every polish_roots row
POLISH_MAX_ITER = 8


def polish_root(
    f: EntireFunction, x: float, z0: complex, max_iter: int = POLISH_MAX_ITER
) -> tuple[complex, float]:
    """Newton-refine an approximate root of z -> F(x, z).

    Returns the best iterate and its residual |F(x, z)|.  Stops early when
    the residual stops improving; never moves to a worse iterate.
    """
    best_z = complex(z0)
    try:
        fz = f.eval(x, best_z)
    except NonFiniteError:
        return best_z, float("inf")
    z = best_z
    r = best_r = abs(fz)
    for _ in range(max_iter):
        if r == 0.0:
            break
        try:
            d = f.eval_dz(x, z)
        except NonFiniteError:
            break
        if d == 0 or not np.isfinite(abs(d)):
            break
        z = z - fz / d
        try:
            fz = f.eval(x, z)
        except NonFiniteError:
            break
        r = abs(fz)
        if r < best_r:
            best_z, best_r = z, r
        elif r > 2.0 * best_r:
            break
    return best_z, best_r


def polish_roots(
    f: EntireFunction, x: np.ndarray, z0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """polish_root for many rows at once: row k refines z0[k] at x[k].

    x and z0 are arrays of one shape.  Every row follows polish_root's
    rules with its default iteration count, but all rows share one Newton
    loop over arrays.  Returns the arrays (z, residual).
    """
    z0 = np.asarray(z0, dtype=np.complex128)
    x = f._check_x(np.asarray(x, dtype=np.float64))
    if x.shape != z0.shape:
        raise ValueError(f"x has shape {x.shape}, z0 has shape {z0.shape}")
    best_z = z0.copy()
    with np.errstate(all="ignore"):
        fz = _ev_rows(f.expr, x, z0)
        start_ok = np.isfinite(fz)
        best_r = np.where(start_ok, np.abs(fz), np.inf)
        # rows still iterating, with their current iterate and F there
        live = np.flatnonzero(start_ok & (best_r != 0.0))
        z, fz = z0[live], fz[live]
        for _ in range(POLISH_MAX_ITER):
            if live.size == 0:
                break
            d = _ev_rows(f._dz, x[live], z)
            ok = (d != 0) & np.isfinite(np.abs(d))
            live, z, fz, d = live[ok], z[ok], fz[ok], d[ok]
            z = z - fz / d
            fz = _ev_rows(f.expr, x[live], z)
            ok = np.isfinite(fz)
            live, z, fz = live[ok], z[ok], fz[ok]
            r = np.abs(fz)
            better = r < best_r[live]
            best_z[live[better]] = z[better]
            best_r[live[better]] = r[better]
            keep = (r <= 2.0 * best_r[live]) & (r != 0.0)
            live, z, fz = live[keep], z[keep], fz[keep]
    return best_z, best_r


def _ev_rows(expr: Expr, x, z: np.ndarray) -> np.ndarray:
    """expr at (x, z) as a complex array of z's shape (a constant broadcasts)."""
    out = np.asarray(expr.ev(x, z), dtype=np.complex128)
    return out if out.shape == z.shape else np.broadcast_to(out, z.shape).copy()
