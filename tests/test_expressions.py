import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootbranch import EntireFunction, NonFiniteError, OutOfDomainError, series
from rootbranch import build, degeneracy_probe, parse_expression, parse_problem
from rootbranch import continue_branch, engine, polish_root, polish_roots, resample_branch
from rootbranch.fixtures import fixture_names
from rootbranch.expressions import (
    Add,
    Const,
    Cos,
    Exp,
    Guard,
    Mul,
    Neg,
    Pow,
    Sin,
    Split,
    Sub,
    X,
    Z,
    add,
    contains_z,
    mul,
    neg,
    powi,
    sub,
    to_text,
)
from bench_resample import Y_TREE
from test_engine import _linear_roots_series
from test_parser import shape


def f_of(text):
    return EntireFunction(parse_expression(text))


def test_eval_basic_forms():
    f = f_of("exp(x*z) - 1")
    assert f.eval(1.0, 0.0) == 0.0
    assert abs(f.eval(1.0, 1.0) - (math.e - 1.0)) < 1e-14

    g = f_of("pow(z, 2) - x")
    assert g.eval(0.25, 0.5) == 0.0
    assert g.eval(0.0, 2.0) == 4.0

    h = f_of("sin(z) + cos(z)")
    w = complex(0.3, -0.2)
    expect = np.sin(w) + np.cos(w)
    assert abs(h.eval(0.0, w) - expect) < 1e-14


def test_eval_constants_and_pi():
    f = f_of("exp(i*pi*z)")
    assert abs(f.eval(0.0, 1.0) + 1.0) < 1e-14
    g = f_of("2.5*x - 0.5")
    assert g.eval(0.4, 7.0) == pytest.approx(0.5)


def test_negative_integer_power():
    # pow with negative exponent is allowed in expressions; validity at the
    # evaluation point is the caller's concern
    f = f_of("pow(1.0 - x, -1)")
    assert f.eval(0.5, 0.0) == pytest.approx(2.0)
    with pytest.raises(NonFiniteError):
        f.eval(1.0, 0.0)


def test_eval_many_matches_scalar():
    rng = np.random.default_rng(7)
    f = f_of("exp(x*z)*sin(z) - pow(z, 3) + 0.25*x")
    zs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    vals = f.eval_many(0.7, zs)
    for z, v in zip(zs, vals):
        assert abs(v - f.eval(0.7, complex(z))) < 1e-13 * (1.0 + abs(v))


def test_symbolic_dz_matches_central_difference():
    rng = np.random.default_rng(21)
    texts = [
        "exp(x*z) - 1",
        "pow(z, 2) - x",
        "sin(x*z) + cos(z)*exp(-z)",
        "pow(z, 5) - 2.0*pow(z, 2) + x*z - 0.75",
        "x*z*exp(-x*z)",
    ]
    for text in texts:
        f = f_of(text)
        for _ in range(100):
            x = float(rng.uniform(0.0, 1.0))
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            d = complex(f.eval_dz_many(x, [z])[0])
            h = 1e-6 * (1.0 + abs(z))
            fd = (f.eval(x, z + h) - f.eval(x, z - h)) / (2.0 * h)
            assert abs(d - fd) <= 1e-6 * (1.0 + abs(d))


def test_eval_dz_many_matches_scalar():
    f = f_of("exp(z)*z - x")
    zs = np.array([0.1 + 0.2j, -1.0j, 2.0, 0.0])
    ds = f.eval_dz_many(0.3, zs)
    for z, d in zip(zs, ds):
        assert abs(d - f.eval_dz_many(0.3, [z])[0]) < 1e-13 * (1.0 + abs(d))


def test_series_form_matches_entire_function():
    rng = np.random.default_rng(3)
    coeffs = tuple(
        parse_expression(t) for t in ("0.5*x - 1.0", "x*x", "0.0", "1.0")
    )
    f = EntireFunction(series(coeffs))
    for _ in range(50):
        x = float(rng.uniform(0.0, 1.0))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        direct = (0.5 * x - 1.0) + (x * x) * z + z**3
        got = f.eval(x, z)
        assert abs(got - direct) <= 1e-12 * (1.0 + abs(direct))


_PART = st.floats(-1e3, 1e3, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(_PART, min_size=2, max_size=18),
    polar=st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.0, 2 * math.pi)), min_size=1, max_size=8),
)
def test_series_is_polyval_within_rounding(parts, polar):
    # the Horner form's F and dF/dz, on arrays and at one point, are
    # np.polyval's within 1e-14 (d + 1)**2 sum |c_k| |z|**k
    coeffs = [complex(a, b) for a, b in zip(parts[0::2], parts[1::2])]
    f = EntireFunction(series(Const(c) for c in coeffs))
    z = np.array([r * cmath.exp(1j * t) for r, t in polar])
    desc = np.array(coeffs[::-1])
    want = (np.polyval(desc, z), np.polyval(np.polyder(desc), z))
    bound = 1e-14 * len(coeffs) ** 2 * np.polyval(np.abs(desc), np.abs(z))
    at = np.array([f.at(0.5, zk) for zk in z.tolist()]).T
    for got in (f.kernel(0.5, z), at):
        for v, w in zip(got, want):
            assert np.all(np.abs(v - w) <= bound)


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(_PART, min_size=2, max_size=16),
    lead=st.floats(2.0, 3.0),
    exponent=st.floats(300.0, 310.0).filter(lambda e: not 307.9 < e < 308.6),
    angle=st.floats(0.0, 2 * math.pi),
)
def test_series_overflows_where_polyval_does(parts, lead, exponent, angle):
    # |c_d z**d| = 10**exponent dwarfs every other term, so F is past the
    # float range exactly when polyval's value is, away from the edge; the
    # same for dF/dz by the size of d c_d z**(d - 1)
    coeffs = [complex(a, b) for a, b in zip(parts[0::2], parts[1::2])]
    coeffs.append(complex(10.0**lead))
    d = len(coeffs) - 1
    z = np.array([10.0 ** ((exponent - lead) / d) * cmath.exp(1j * angle)])
    f = EntireFunction(series(Const(c) for c in coeffs))
    desc = np.array(coeffs[::-1])
    with np.errstate(all="ignore"):
        want = (np.polyval(desc, z), np.polyval(np.polyder(desc), z))
    sizes = (exponent, math.log10(d) + lead + (d - 1) * (exponent - lead) / d)
    for got in (f.kernel(0.5, z), f.at(0.5, complex(z[0]))):
        for v, w, size in zip(got, want, sizes):
            if size >= 308.6:
                assert not np.isfinite(w).any() and not np.isfinite(v).any()
            elif size <= 307.9:
                assert np.isfinite(w).all() and np.isfinite(v).all()


def test_guard_selects_branch_without_evaluating_other():
    # elsewhere-branch is singular at x0 but never evaluated there
    e = Guard(1.0, Z(), powi(sub(Const(1.0), X()), -1))
    f = EntireFunction(e)
    assert f.eval(1.0, 3.0) == 3.0
    assert f.eval(0.5, 3.0) == pytest.approx(2.0)


def _rows_seen(f):
    """Wrap each compiled x part of f's kernel to record the x it gets,
    by choice signature."""
    seen = {}
    k = f._compiled
    for sig, (xpart, zpart) in list(k.codes.items()):
        def spy(x, xpart=xpart, sig=sig):
            seen.setdefault(sig, []).extend(np.ravel(x).real.tolist())
            return xpart(x)

        k.codes[sig] = (spy, zpart)
    return seen


def test_guard_array_x_evaluates_each_side_on_its_own_rows():
    # the elsewhere-side divides by zero at x0: it must see no x0 row
    f = EntireFunction(Guard(1.0, Z(), powi(sub(Const(1.0), X()), -1)))
    x = np.array([1.0, 0.5, 1.0, 0.75])
    z = np.array([3.0, 3.0, 2.0 - 1.0j, 0.0])
    vals, _ = f.kernel(x, z)
    assert np.array_equal(vals, [3.0, 2.0, 2.0 - 1.0j, 4.0])
    seen = _rows_seen(f)
    assert f.kernel(x, z)[0].tobytes() == vals.tobytes()
    assert sorted(map(sorted, seen.values())) == [[0.5, 0.75], [1.0, 1.0]]


def test_split_array_x_evaluates_each_side_on_its_own_rows():
    # the right side is singular at x = 0, a left-side row
    f = EntireFunction(Split(0.5, X(), powi(X(), -1)))
    x = np.array([0.0, 0.5, 1.0, 0.25, 2.0])
    (vals,) = f.kernel(x, np.zeros(5, dtype=np.complex128), dz=False)
    assert np.array_equal(vals, [0.0, 0.5, 1.0, 0.25, 0.5])
    seen = _rows_seen(f)
    f.kernel(x, np.zeros(5, dtype=np.complex128), dz=False)
    assert sorted(map(sorted, seen.values())) == [[0.0, 0.25, 0.5], [1.0, 2.0]]
    (xs,) = EntireFunction(X()).kernel(x, np.zeros(5), dz=False)
    assert xs.tobytes() == x.astype(np.complex128).tobytes()


# guard point of example1-sin, split and guard points of example2-phi
_SPECIAL_X = {"example1-sin": [0.0], "example2-phi": [0.5, 1.0]}


def _fixture_polish_rows():
    """Per fixture: its name, F, and (x, z0) rows to polish."""
    rng = np.random.default_rng(2009)
    for name in fixture_names():
        f, dom, *_ = build(parse_problem({"fixture": name}))
        lo, hi = dom.coordinate_range()
        rows = []
        for x in [float(x) for x in np.linspace(lo, hi, 7)] + _SPECIAL_X.get(name, []):
            # each root found, and a start 1e-3 off it: near a root Newton
            # does not amplify rounding differences
            for _ in range(3):
                g = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                w, r = polish_root(f, x, g, max_iter=40)
                if r < 1e-9:
                    off = 1e-3 * (1.0 + abs(w)) * np.exp(2j * np.pi * rng.uniform())
                    rows += [(x, w), (x, w + off)]
        yield name, f, rows


def test_polish_roots_matches_polish_root_row_for_row():
    eps = np.finfo(float).eps
    for name, f, rows in _fixture_polish_rows():
        x = np.array([r[0] for r in rows])
        z0 = np.array([r[1] for r in rows])
        zv, rv = polish_roots(f, x, z0)
        assert zv.shape == rv.shape == z0.shape
        for k, (xk, zk) in enumerate(rows):
            zs, rs = polish_root(f, xk, zk)
            # numpy's array loops may round a last bit differently
            assert abs(zv[k] - zs) <= 4 * eps * (1.0 + abs(zs)), (name, xk, zk)
            # the residual agrees to 4 ulp relative, except at a root, where
            # it is the rounding noise of F: that noise, and the change of
            # |F| over the 4 ulp allowed in z, scale with |F_z| (1 + |z|)
            scale = abs(f.eval_dz_many(xk, [zs])[0]) * (1.0 + abs(zs))
            assert abs(rv[k] - rs) <= 4 * eps * max(rs, scale), (name, xk, zk)
        assert set(_SPECIAL_X.get(name, [])) <= set(x.tolist())


def _polish_roots_every_iteration(f, x, z0, rounding_stop=True):
    """polish_roots without its stop at a repeated iterate, and also
    without its rounding stop when rounding_stop is false."""
    z0 = np.asarray(z0, dtype=np.complex128)
    x = np.asarray(x, dtype=np.float64)
    fz, d = f.kernel(x, z0)
    x, fz, d = x.ravel(), fz.ravel(), d.ravel()
    best_z = z0.ravel().copy()
    with np.errstate(all="ignore"):
        start_ok = np.isfinite(fz)
        best_r = np.where(start_ok, np.abs(fz), np.inf)
        live = np.flatnonzero(start_ok & (best_r != 0.0))
        z, fz, d = best_z[live], fz[live], d[live]
        for _ in range(8):
            if live.size == 0:
                break
            ok = (d != 0) & np.isfinite(np.abs(d))
            live, z, fz, d = live[ok], z[ok], fz[ok], d[ok]
            step = z - fz / d
            settled = np.abs(step - z) <= 4 * np.finfo(float).eps * np.abs(step)
            settled &= rounding_stop
            z = step
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


def _counting_kernel(f):
    """Wrap f.kernel to tally the points it evaluates."""
    points = []
    kernel = f.kernel

    def counting(x, z, dz=True):
        points.append(np.size(z))
        return kernel(x, z, dz)

    f.kernel = counting
    return points


# (F, rows) whose roots are exact in floating point
_EXACT_ROWS = [
    ("pow(z, 2) - x", [(0.25, 0.5), (4.0, -2.0), (0.25, 0.5 + 1e-3j)]),
    ("exp(z) - x", [(1.0, 0.0), (1.0, -0.0), (2.0, 0.7)]),
    ("z - x", [(0.5, 0.5), (0.5, 0.25)]),
]


def test_polish_roots_stops_at_a_repeat_without_changing_the_result():
    # a row whose Newton step gives back its iterate bit for bit only
    # replays: stopping it returns the bits of iterating on, in fewer points
    cases = [(f, rows) for _name, f, rows in _fixture_polish_rows()]
    cases += [(f_of(text), rows) for text, rows in _EXACT_ROWS]
    saved = 0
    for f, rows in cases:
        x = np.array([r[0] for r in rows])
        z0 = np.array([r[1] for r in rows], dtype=np.complex128)
        new_points = _counting_kernel(f)
        zv, rv = polish_roots(f, x, z0)
        del f.kernel
        old_points = _counting_kernel(f)
        zw, rw = _polish_roots_every_iteration(f, x, z0)
        del f.kernel
        assert zv.tobytes() == zw.tobytes() and rv.tobytes() == rw.tobytes()
        assert sum(new_points) <= sum(old_points)
        saved += sum(old_points) - sum(new_points)
    assert saved > 0


# monic quartics whose roots a_j + b_j x stay at least 0.3 apart, as the
# poly-dense benchmark draws its families: the bench quartic's roots on
# the Y-tree, and a second family on the interval
_QUARTIC_ROOT_LINES = [
    (
        [0.9 + 0.2j, -0.8 + 0.5j, 0.1 - 0.9j, -0.4 - 0.6j],
        [0.3 - 0.4j, 0.5 + 0.1j, -0.2 + 0.3j, -0.4 - 0.2j],
        Y_TREE,
    ),
    (
        [1.1 - 0.23j, 0.066 + 0.59j, 0.93 + 0.42j, 1.09 - 0.84j],
        [0.038 - 0.48j, -0.26 - 0.39j, -0.17 + 0.39j, 0.35 - 0.005j],
        {"kind": "interval"},
    ),
]


def _series_problem(a, b, domain):
    """prod_j (z - a_j - b_j x) in series form, as poly-dense gives it,
    seeded on the root a_0 at the domain's base point."""
    at = {"point": {"vertex": domain["vertices"][0]}} if domain["kind"] == "tree" else {"x": 0.0}
    return {
        "series": _linear_roots_series(a, b),
        "domain": domain,
        "seed": {**at, "z": [a[0].real, a[0].imag]},
    }


def _rounding_scale(a, b, x, z):
    """eps prod_j (|z| + |a_j| + |b_j| |x|): at least eps times the sum of
    |c| |x|**p |z|**k over the terms c x**p z**k of prod_j (z - a_j - b_j x),
    the scale of the rounding error in evaluating it (Higham 2002, 5.1)."""
    out = np.finfo(float).eps
    for aj, bj in zip(a, b):
        out = out * (np.abs(z) + abs(aj) + abs(bj) * np.abs(x))
    return out


def _within_agreement(f, x, z, r, zs, rs, mu=0.0):
    """Per row, whether z (residual r) lies within 4 eps (1 + |zs|) +
    (r + rs + 2 mu) / |F_z| of zs (residual rs): a few ulp, plus the width
    of the disk about the root where |F| is at most a residual plus F's
    rounding error mu.  A row equal to zs agrees, also where F_z = 0."""
    eps = np.finfo(float).eps
    fz = np.abs([f.eval_dz_many(xk, [zk])[0] for xk, zk in zip(x, zs)])
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = 4 * eps * (1.0 + np.abs(zs)) + (r + rs + 2.0 * mu) / fz
    return (z == zs) | (np.abs(z - zs) <= bound)


def test_polish_roots_stops_at_the_rounding_level_within_the_agreement_bound():
    # a row whose correction is at the rounding level of its iterate stops
    # after scoring it: the rest only wanders in F's rounding noise.  The
    # fixture and exact rows agree even with mu taken as 0
    cases = [(f, rows, 0.0) for _name, f, rows in _fixture_polish_rows()]
    cases += [(f_of(text), rows, 0.0) for text, rows in _EXACT_ROWS]
    a, b, domain = _QUARTIC_ROOT_LINES[1]
    f, *_ = build(parse_problem(_series_problem(a, b, domain)))
    rng = np.random.default_rng(30)
    x = np.linspace(0.0, 1.0, 101)
    curve = a[0] + b[0] * x
    # starts off the curve by about an interpolation's error
    z0 = curve + 1e-6 * np.exp(2j * np.pi * rng.uniform(size=x.size))
    cases.append((f, list(zip(x, z0)), _rounding_scale(a, b, x, curve)))
    new = old = 0
    for f, rows, mu in cases:
        x = np.array([r[0] for r in rows])
        z0 = np.array([r[1] for r in rows], dtype=np.complex128)
        new_points = _counting_kernel(f)
        zv, rv = polish_roots(f, x, z0)
        del f.kernel
        old_points = _counting_kernel(f)
        zw, rw = _polish_roots_every_iteration(f, x, z0, rounding_stop=False)
        del f.kernel
        assert _within_agreement(f, x, zv, rv, zw, rw, mu).all()
        new, old = new + sum(new_points), old + sum(old_points)
    assert new < old
    # criterion 4's bound on the distance to the tracked root curve
    assert np.abs(zv - curve).max() <= 1e-12


def test_polish_roots_matches_polish_root_on_poly_dense_rows(monkeypatch):
    # resampled rows of linear-root families start within rounding of the
    # root, where both polishes wander in F's rounding noise: a row may
    # differ from polish_root by more than 4 ulp, but within that noise
    seen = []

    def recording(f, x, z0):
        seen.append((x, z0))
        return polish_roots(f, x, z0)

    monkeypatch.setattr(engine, "polish_roots", recording)
    for a, b, domain in _QUARTIC_ROOT_LINES:
        f, dom, x0, z0, cfg = build(parse_problem(_series_problem(a, b, domain)))
        seen.clear()
        assert len(resample_branch(f, continue_branch(f, dom, x0, z0, cfg), 1000)) == 1000
        [(x, z0)] = seen
        zv, rv = polish_roots(f, x, z0)
        zs, rs = np.array([polish_root(f, xk, zk) for xk, zk in zip(x.tolist(), z0.tolist())]).T
        mu = _rounding_scale(a, b, x, zs)
        assert _within_agreement(f, x, zv, rv, zs, rs.real, mu).all()


def _polish_root_every_iteration(f, x, z0, max_iter=8):
    """polish_root without its stop at a repeated iterate."""

    def pair(z):
        return f.at(x, z)

    z = best_z = complex(z0)
    fz, d = pair(z)
    if not np.isfinite(fz):
        return best_z, float("inf")
    r = best_r = abs(fz)
    for _ in range(max_iter):
        if r == 0.0 or d == 0 or not np.isfinite(abs(d)):
            break
        z = z - fz / d
        fz, d = pair(z)
        if not np.isfinite(fz):
            break
        r = abs(fz)
        if r < best_r:
            best_z, best_r = z, r
        elif r > 2.0 * best_r:
            break
    return best_z, best_r


def _polish_bits(zr):
    z, r = zr
    return (z.real.hex(), z.imag.hex(), float(r).hex())


_COEFF = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(_COEFF, min_size=2, max_size=6),
    slope=_COEFF,
    x=st.floats(0.05, 1.0),
    z0=st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    exp_family=st.booleans(),
)
def test_polish_stops_at_a_repeat_without_changing_the_result(
    coeffs, slope, x, z0, exp_family
):
    # a repeated iterate only replays a cycle: stopping there returns the
    # same bits as iterating on
    if exp_family:
        f = f_of("exp(x*z) - 1")
    else:
        # monic in z, the constant term moving with x
        terms = [f"({c.real!r} + {c.imag!r}*i)*pow(z, {k})" for k, c in enumerate(coeffs)]
        terms.append(f"pow(z, {len(coeffs)})")
        terms.append(f"({slope.real!r} + {slope.imag!r}*i)*x")
        f = f_of(" + ".join(terms))
    want = _polish_root_every_iteration(f, x, z0)
    assert _polish_bits(polish_root(f, x, z0)) == _polish_bits(want)


def test_polish_stops_when_newton_cycles():
    # Newton cycles 0 -> 1 -> 0 on z^3 - 2z + 2: the repeat of 0 ends it
    # after two one-point evaluations instead of running all iterations
    c = f_of("pow(z, 3) - 2.0*z + 2.0")
    calls = []
    at = c.at

    def counting(x, z, **kw):
        calls.append(z)
        return at(x, z, **kw)

    c.at = counting
    assert polish_root(c, 0.0, 0j) == (1.0, 1.0)
    assert len(calls) == 2
    calls.clear()
    assert _polish_root_every_iteration(c, 0.0, 0j) == (1.0, 1.0)
    assert len(calls) == 9


def test_polish_roots_edge_rows():
    f = f_of("exp(z) - x")
    zs, rs = polish_roots(f, np.array([1.0, 1.0, 2.0]), np.array([1e9, 0.0, 0.1]))
    # non-finite start: kept with residual inf; exact root: kept as is
    assert zs[0] == 1e9 and rs[0] == np.inf
    assert zs[1] == 0.0 and rs[1] == 0.0
    assert zs[2] == pytest.approx(math.log(2.0), rel=1e-15) and rs[2] < 1e-15
    assert polish_root(f, 1.0, 1e9) == (1e9, np.inf)
    # Newton cycles 0 -> 1 -> 0 on z^3 - 2z + 2: the worse iterate 0 is
    # never adopted again
    c = f_of("pow(z, 3) - 2.0*z + 2.0")
    assert polish_root(c, 0.0, 0j) == (1.0, 1.0)
    zs, rs = polish_roots(c, np.zeros(1), np.zeros(1))
    assert (zs[0], rs[0]) == (1.0, 1.0)
    g = EntireFunction(parse_expression("z - x"), x_range=(0.0, 1.0))
    with pytest.raises(OutOfDomainError, match="x=1.5 outside"):
        polish_roots(g, np.array([0.5, 1.5]), np.zeros(2))
    with pytest.raises(OutOfDomainError, match="x=nan outside"):
        polish_roots(g, np.array([np.nan]), np.zeros(1))
    with pytest.raises(ValueError):
        polish_roots(g, 0.5, np.zeros(2))
    # any shape: the rows are the elements, and the result keeps the shape
    x2 = np.array([[1.0, 1.0], [2.0, 3.0]])
    z2 = np.array([[1e9, 0.0], [0.1, 1.0 + 0.5j]])
    zs2, rs2 = polish_roots(f, x2, z2)
    assert zs2.shape == rs2.shape == (2, 2)
    zs1, rs1 = polish_roots(f, x2.ravel(), z2.ravel())
    assert zs2.ravel().tobytes() == zs1.tobytes()
    assert rs2.ravel().tobytes() == rs1.tobytes()
    # no rows at all, also through a guard's row grouping
    for h in (f, f_of("guard(1.0; z; exp(z) - x)")):
        zs, rs = polish_roots(h, np.zeros(0), np.zeros(0))
        assert zs.shape == rs.shape == (0,)
        assert zs.dtype == np.complex128 and rs.dtype == np.float64


def test_split_switches_at_cut():
    e = Split(0.5, X(), sub(Const(1.0), X()))
    f = EntireFunction(e)
    assert f.eval(0.25, 0.0) == 0.25
    assert f.eval(0.5, 0.0) == 0.5
    assert f.eval(0.75, 0.0) == pytest.approx(0.25)


def test_out_of_domain_range_check():
    f = EntireFunction(parse_expression("z - x"), x_range=(0.0, 1.0))
    assert f.eval(0.5, 0.5) == 0.0
    with pytest.raises(OutOfDomainError):
        f.eval(1.5, 0.0)
    with pytest.raises(OutOfDomainError):
        f.eval(-0.1, 0.0)


def test_non_finite_overflow_raises():
    f = f_of("exp(z)")
    with pytest.raises(NonFiniteError):
        f.eval(0.0, 1e9)


def test_parse_to_text_round_trip():
    rng = np.random.default_rng(11)
    texts = [
        "exp(x*z) - 1",
        "pow(z, 2) - x",
        "-z + 2.0*exp(-x)*sin(z)",
        "guard(1.0; z; x*z - 1.0)",
        "split(0.5; x*z; z - 0.5 + x*z - x*z + x*z)",
        "pow(z, -2) + i*pi",
    ]
    for text in texts:
        e1 = parse_expression(text)
        e2 = parse_expression(to_text(e1))
        f1, f2 = EntireFunction(e1), EntireFunction(e2)
        for _ in range(20):
            x = float(rng.uniform(0.0, 1.0))
            z = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            v1, v2 = f1.eval(x, z), f2.eval(x, z)
            assert abs(v1 - v2) <= 1e-14 * (1.0 + abs(v1))


_LEAVES = st.sampled_from([X(), Z()]) | st.floats(0.1, 10.0).map(lambda v: Const(complex(v)))
_NESTS = st.recursive(
    _LEAVES,
    lambda kids: st.tuples(st.sampled_from([add, sub, mul]), kids, kids).map(
        lambda t: t[0](t[1], t[2])
    ),
    max_leaves=12,
)
_SERIES = st.lists(
    st.sampled_from([X(), Const(0j), Const(2 + 0j), Const(0.5 + 0j)]), min_size=1, max_size=6
).map(series)


@settings(max_examples=200, deadline=None)
@example(e=series([Const(1 + 0j), X(), Const(0j), Const(2 + 0j)]))
@given(e=_SERIES | _NESTS)
def test_to_text_parses_back_to_the_same_tree(e):
    # a right-nested product a*(b*c) keeps its brackets: a*b*c would parse
    # as (a*b)*c, another tree with other rounding
    assert parse_expression(to_text(e)) == e


def test_parse_errors_carry_position():
    from rootbranch import ProblemSyntaxError

    with pytest.raises(ProblemSyntaxError):
        parse_expression("exp(z")
    with pytest.raises(ProblemSyntaxError):
        parse_expression("z + * 2")
    with pytest.raises(ProblemSyntaxError):
        parse_expression("pow(z, 1.5)")  # exponent must be an integer
    with pytest.raises(ProblemSyntaxError):
        parse_expression("w + 1")


# The smart constructors as they were, each test through one helper: the
# reference that their inlined class checks must fold exactly as.
def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def _ref_add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    return b if _is_const(a, 0) else a if _is_const(b, 0) else Add(a, b)


def _ref_sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    return a if _is_const(b, 0) else _ref_neg(b) if _is_const(a, 0) else Sub(a, b)


def _ref_mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0j)
    return b if _is_const(a, 1) else a if _is_const(b, 1) else Mul(a, b)


def _ref_neg(a):
    return Const(-a.value) if _is_const(a) else a.a if isinstance(a, Neg) else Neg(a)


def test_smart_constructors_fold_as_before():
    operands = [
        Const(0j), Const(-0.0 - 0j), Const(complex(0.0, -0.0)), Const(1 + 0j),
        Const(complex(1.0, -0.0)), Const(2 - 1j), Const(1e308 + 0j),
        X(), Z(), Neg(X()), Add(X(), Z()), Pow(Z(), 2),
    ]
    for a in operands:
        assert shape(neg(a)) == shape(_ref_neg(a))
        for b in operands:
            for smart, ref in ((add, _ref_add), (sub, _ref_sub), (mul, _ref_mul)):
                assert shape(smart(a, b)) == shape(ref(a, b)), (smart, a, b)


def test_contains_flags():
    assert contains_z(parse_expression("x*z + exp(z)"))
    assert not contains_z(parse_expression("x + 1"))


def test_degeneracy_probe_detects_constant_slice():
    # x^2*z - x collapses to the constant 0 at x = 0
    f = f_of("x*x*z - x")
    constant = degeneracy_probe(f, 0.0)
    assert constant is not None
    assert constant == 0.0
    assert degeneracy_probe(f, 0.5) is None


def test_degeneracy_probe_nondegenerate_on_polynomials():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = EntireFunction(
            add(
                powi(Z(), 2),
                add(mul(Const(complex(c[0])), Z()), Const(complex(c[1]))),
            )
        )
        assert degeneracy_probe(f, float(rng.uniform(0, 1))) is None


def test_degeneracy_probe_nonfinite_sample_is_evidence():
    # exp(exp(z)) overflows on |z| = 10 first at z = 10: the probe reads
    # that as nonconstancy instead of raising
    f = f_of("exp(exp(z)) - x")
    assert degeneracy_probe(f, 0.5) is None


def test_expression_builders_compose():
    e = sub(Exp(mul(X(), Z())), Const(1.0))
    f = EntireFunction(e)
    assert f.eval(2.0, 0.0) == 0.0
    assert "exp" in to_text(e)
    e2 = neg(Sin(Cos(Z())))
    v = EntireFunction(e2).eval(0.0, 0.3)
    assert abs(v + np.sin(np.cos(0.3))) < 1e-14


# ---------------------------------------------------------------------------
# the compiled kernel against the tree walk


def _walk(e, x, z):
    """The reference evaluation of e at (x, z), node by node.

    x is a float, or a float array of z's shape whose entries all take the
    same guard/split sides.  Each node runs the numpy or Python operation
    its Expr.code names, on complex(x) for a float x and on
    x.astype(complex128) for an array x; a power with exponent n >= 2 is
    the kernel's product of halves (see _halving_power).
    """
    array = isinstance(x, np.ndarray)
    if isinstance(e, Const):
        return e.value
    if isinstance(e, X):
        return x.astype(np.complex128) if array else complex(x)
    if isinstance(e, Z):
        return z
    if isinstance(e, (Guard, Split)):
        take = x == e.at if isinstance(e, Guard) else x <= e.at
        assert np.all(take) or not np.any(take)
        a, b = e.children()
        return _walk(a if np.all(take) else b, x, z)
    v = [_walk(c, x, z) for c in e.children()]
    if isinstance(e, Add):
        return v[0] + v[1]
    if isinstance(e, Sub):
        return v[0] - v[1]
    if isinstance(e, Mul):
        return v[0] * v[1]
    if isinstance(e, Neg):
        return -v[0]
    if isinstance(e, Pow) and e.n >= 2:
        return _halving_power(v[0], e.n)
    if isinstance(e, Pow):
        return np.asarray(v[0], dtype=np.complex128) ** e.n
    return {Exp: np.exp, Sin: np.sin, Cos: np.cos}[type(e)](v[0])


def _halving_power(b, n):
    """b**n for n >= 1 as the kernel computes it: b at n = 1, else the
    product of b**(n//2) and b**(n - n//2), each computed the same way."""
    if n == 1:
        return b
    return _halving_power(b, n // 2) * _halving_power(b, n - n // 2)


def _walk_rows(e, x, z):
    """_walk as a complex array of z's shape (a constant broadcasts)."""
    with np.errstate(all="ignore"):
        out = np.asarray(_walk(e, x, z), dtype=np.complex128)
    return out if out.shape == z.shape else np.broadcast_to(out, z.shape).copy()


def _assert_same_bits(got, walk, bits=lambda a: a.tobytes()):
    for g, w in zip(got, walk, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)
        assert bits(g) == bits(w)  # signed zeros too


def _bits_any_nan(a):
    """a's bytes with every NaN part made the same NaN: numpy's vector
    loops and its scalar loops may give an invalid operation NaNs of
    different sign, so for an array the lane a row falls in can change
    a NaN's bits."""
    parts = np.stack([a.real, a.imag])
    parts[np.isnan(parts)] = np.nan
    return parts.tobytes()

SWITCH_POINTS = (0.0, -0.0, 0.25, 0.5, 1.0)
# float, int and complex constants with equal values, and both signed zeros:
# the kernel must not merge any of them
CONSTANTS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), -0.0, 1.0, 1 + 0j, 2,
             -2.5 + 0.5j, 1e200 + 0j)
NODES_Z = np.array([0j, complex(-0.0, -0.0), 0.5 + 0.5j, -1.25 + 0.1j, 2j, 40.0])


def _extend(kids):
    switch = st.sampled_from(SWITCH_POINTS)
    return st.one_of(
        st.builds(Add, kids, kids),
        st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids),
        st.builds(Neg, kids),
        st.builds(Exp, kids),
        st.builds(Sin, kids),
        st.builds(Cos, kids),
        st.builds(Guard, switch, kids, kids),
        st.builds(Split, switch, kids, kids),
        # negative powers only of x-only bases, as build() requires
        kids.flatmap(
            lambda b: st.builds(
                Pow, st.just(b), st.integers(0 if contains_z(b) else -3, 4)
            )
        ),
    )


TREES = st.recursive(
    st.one_of(st.builds(Const, st.sampled_from(CONSTANTS)), st.just(X()), st.just(Z())),
    _extend,
    max_leaves=14,
)
# switch points hit exactly, both zeros, and their neighbours; the sequence
# is walked forward and back, so every x comes again after more than the
# kernel's x cache holds
NEAR_SWITCHES = [np.nextafter(p, d) for p in SWITCH_POINTS for d in (-np.inf, np.inf)]
X_SEQUENCES = st.lists(
    st.one_of(
        st.sampled_from(SWITCH_POINTS + (0.5000000000000001, 0.49999999999999994)),
        st.floats(-1.5, 1.5),
    ),
    min_size=1,
    max_size=10,
).map(lambda xs: xs + xs[::-1])


# a guard and a split at one point, over the same sides, are different
# nodes: merged into one, both would take z at 0.25 or both 1.0
@settings(max_examples=300, deadline=None)
@example(
    expr=Add(Guard(0.5, Z(), Const(1.0)), Split(0.5, Z(), Const(1.0))),
    xs=[0.25, 0.5, 0.75],
)
@given(expr=TREES, xs=X_SEQUENCES)
def test_kernel_matches_tree_walk_bit_for_bit(expr, xs):
    f = EntireFunction(expr)
    dz = expr.dz()
    for x in xs:
        walk = (_walk_rows(expr, x, NODES_Z), _walk_rows(dz, x, NODES_Z))
        _assert_same_bits(f.kernel(x, NODES_Z), walk)
        for ev, w in ((f.eval_many, walk[0]), (f.eval_dz_many, walk[1])):
            if np.isfinite(w).all():
                assert ev(x, NODES_Z).tobytes() == w.tobytes()
            else:
                with pytest.raises(NonFiniteError):
                    ev(x, NODES_Z)
    # one array-x call: every x of the sequence and every switch point with
    # its neighbours, against every z, as rows of a 2-D array.  A row's
    # value must not depend on the other rows of the call, so the walk
    # takes one x at a time
    xr = np.array(xs + list(SWITCH_POINTS) + list(NEAR_SWITCHES))
    x2 = np.repeat(xr, NODES_Z.size).reshape(xr.size, NODES_Z.size)
    z2 = np.tile(NODES_Z, (xr.size, 1))
    walk = tuple(
        np.array([_walk_rows(e, xk, zk) for xk, zk in zip(x2, z2)]) for e in (expr, dz)
    )
    _assert_same_bits(f.kernel(x2, z2), walk, _bits_any_nan)
    _assert_same_bits(f.kernel(x2, z2, dz=False), walk[:1], _bits_any_nan)


def _walk_point(e, x, z):
    """_walk at one point, on Python complex numbers: each node runs the
    Python operation its Expr.code names in the one-point namespace
    (complex for asarray, cmath for exp, sin and cos), and a power with
    exponent n >= 2 as the same product of halves.  Raises where that
    arithmetic raises."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, X):
        return complex(x)
    if isinstance(e, Z):
        return z
    if isinstance(e, (Guard, Split)):
        take = x == e.at if isinstance(e, Guard) else x <= e.at
        return _walk_point(e.children()[0 if take else 1], x, z)
    v = [_walk_point(c, x, z) for c in e.children()]
    if isinstance(e, Add):
        return v[0] + v[1]
    if isinstance(e, Sub):
        return v[0] - v[1]
    if isinstance(e, Mul):
        return v[0] * v[1]
    if isinstance(e, Neg):
        return -v[0]
    if isinstance(e, Pow) and e.n >= 2:
        return _halving_power(v[0], e.n)
    if isinstance(e, Pow):
        return complex(v[0]) ** e.n
    return {Exp: cmath.exp, Sin: cmath.sin, Cos: cmath.cos}[type(e)](v[0])


def _walk_point_or_none(e, x, z):
    """_walk_point as a complex, or None where it raises or is not finite."""
    try:
        v = complex(_walk_point(e, x, z))
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    return v if cmath.isfinite(v) else None


def _point_bits(values):
    return [struct.pack("<dd", v.real, v.imag) for v in values]  # signed zeros too


def _eval_or_raise(ev, x, z):
    try:
        return complex(ev(x, z))
    except NonFiniteError:
        return NonFiniteError


@settings(max_examples=300, deadline=None)
@given(expr=TREES, xs=X_SEQUENCES)
def test_one_point_matches_cmath_walk_bit_for_bit(expr, xs):
    # f.at runs the kernel's code on Python complex numbers; where that
    # arithmetic raises or is not finite it gives the array kernel's bits
    f = EntireFunction(expr)
    dz = expr.dz()
    for x in xs:
        for z in NODES_Z.tolist():
            walk = [_walk_point_or_none(e, x, z) for e in (expr, dz)]
            array = [complex(v[0]) for v in f.kernel(x, np.array([z]))]
            want = array if None in walk else walk
            assert _point_bits(f.at(x, z)) == _point_bits(want)
            # F alone: the x part runs dF/dz's x-only nodes too, so where
            # only the walk of dF/dz fails, either answer may come back
            if walk[0] is None:
                allowed = array[:1]
            else:
                allowed = walk[:1] + (array[:1] if walk[1] is None else [])
            assert _point_bits(f.at(x, z, dz=False))[0] in _point_bits(allowed)
            # NonFiniteError exactly where the array path raises it
            one = _eval_or_raise(f.eval, x, z)
            many = _eval_or_raise(lambda x, z: f.eval_many(x, np.array([z]))[0], x, z)
            assert (one is NonFiniteError) == (many is NonFiniteError)
            if one is not NonFiniteError:
                assert _point_bits([one]) == _point_bits(f.at(x, z, dz=False))


def _on_the_array_kernel(f):
    """f with its one-point evaluator replaced by the array kernel on a
    1-element array."""
    g = EntireFunction(f.expr, f.x_range)

    def at(x, z, dz=True):
        return tuple(complex(v[0]) for v in g.kernel(x, np.array([complex(z)]), dz))

    g.at = at
    return g


@pytest.mark.parametrize(
    "text, x, z, error",
    [
        # exp(exp(40)) = exp(2.35e17) overflows: F is inf on both paths
        ("exp(exp(z))", 0.5, 40.0, OverflowError),
        # the same overflow, where numpy's F is a finite 0
        ("exp(-exp(exp(z))) + z - 40.0", 0.5, 40.0, OverflowError),
        # a negative power of an x-only base at x = 0
        ("z - pow(x, -1)", 0.0, 1.0, ZeroDivisionError),
        # z*1e200*1e200 is inf without raising; cmath.sin(inf) raises
        ("sin(z*1e200*1e200)", 0.5, 1.0, ValueError),
    ],
)
def test_one_point_falls_back_to_the_array_kernel(text, x, z, error):
    f = f_of(text)
    with pytest.raises(error):
        _walk_point(f.expr, x, complex(z))
    g = _on_the_array_kernel(f)
    for dz in (True, False):
        assert _point_bits(f.at(x, z, dz)) == _point_bits(g.at(x, z, dz))
    assert _polish_bits(polish_root(f, x, z)) == _polish_bits(polish_root(g, x, z))
    want = _eval_or_raise(lambda x, z: f.eval_many(x, np.array([z]))[0], x, z)
    got = _eval_or_raise(f.eval, x, z)
    if want is NonFiniteError:
        assert got is NonFiniteError
    else:
        assert _point_bits([got]) == _point_bits([want])


def test_polish_root_at_a_fixture_step_makes_no_kernel_call():
    # a step of monic-cubic-interval off its seed root 1 at x = 0
    f, *_ = build(parse_problem({"fixture": "monic-cubic-interval"}))
    points = _counting_kernel(f)
    _w, residual = polish_root(f, 1e-3, 1.0)
    assert residual < 1e-15
    assert points == []


def test_kernel_keys_x_on_its_bits():
    # x*z at x = -0.0 and at 0.0 differ only in the sign of zero
    f = EntireFunction(Mul(X(), Z()))
    z = np.array([1.0 + 1.0j])
    neg0 = f.kernel(-0.0, z)[0]
    pos0 = f.kernel(0.0, z)[0]
    assert np.signbit(neg0.real[0]) and not np.signbit(pos0.real[0])
    assert f.kernel(-0.0, z)[0].tobytes() == neg0.tobytes()


def test_overflowing_constant_power_is_left_to_evaluation():
    # folding 1e200**3 raises OverflowError in Python; the node stays and
    # evaluates to a non-finite value like any other overflow (its product
    # of overflowed parts may carry a NaN part), for F and for dF/dz
    for text in ("pow(1e200, 3) + z", "pow(pow(z, 0)*1e200, 3)*z"):
        f = f_of(text)
        with pytest.raises(NonFiniteError):
            f.eval(0.5, 1j)
        assert not np.isfinite(f.kernel(0.5, np.array([1j]))[0]).any()


# z**n as products of halves carries, to first order, the error of n - 1
# complex products (Higham, Accuracy and Stability of Numerical Algorithms,
# section 3.1), each within sqrt(5)*2**-53 relative (Brent, Percival and
# Zimmermann, Math. Comp. 76, 2007); 1 % covers the higher orders
POWER_EXPONENTS = (2, 3, 4, 5, 6, 7, 8, 9, 16, 37)


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from(POWER_EXPONENTS),
    log_r=st.floats(-3.0, 3.0),
    turn=st.floats(0.0, 1.0, exclude_max=True),
)
def test_integer_power_stays_within_the_product_error_bound(n, log_r, turn):
    mpmath = pytest.importorskip("mpmath")
    z = cmath.rect(10.0**log_r, 2.0 * math.pi * turn)
    f = EntireFunction(powi(Z(), n))
    bound = 1.01 * (n - 1) * math.sqrt(5.0) * 2.0**-53
    with mpmath.workprec(200):
        exact = mpmath.mpc(z) ** n
        for got in (complex(f.kernel(0.5, np.array([z]), dz=False)[0][0]),
                    f.at(0.5, z, dz=False)[0]):
            assert abs(mpmath.mpc(got) - exact) <= bound * abs(exact)
