import math

import numpy as np
import pytest

from rootbranch import EntireFunction, NonFiniteError, OutOfDomainError, SeriesForm
from rootbranch import build, degeneracy_probe, parse_expression, parse_problem
from rootbranch import polish_root, polish_roots
from rootbranch.fixtures import fixture_names
from rootbranch.expressions import (
    Const,
    Guard,
    Split,
    X,
    Z,
    add,
    contains_z,
    cos,
    exp,
    mul,
    neg,
    powi,
    sin,
    sub,
    to_text,
)


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
            d = f.eval_dz(x, z)
            h = 1e-6 * (1.0 + abs(z))
            fd = (f.eval(x, z + h) - f.eval(x, z - h)) / (2.0 * h)
            assert abs(d - fd) <= 1e-6 * (1.0 + abs(d))


def test_eval_dz_many_matches_scalar():
    f = f_of("exp(z)*z - x")
    zs = np.array([0.1 + 0.2j, -1.0j, 2.0, 0.0])
    ds = f.eval_dz_many(0.3, zs)
    for z, d in zip(zs, ds):
        assert abs(d - f.eval_dz(0.3, complex(z))) < 1e-13 * (1.0 + abs(d))


def test_series_form_matches_entire_function():
    rng = np.random.default_rng(3)
    coeffs = tuple(
        parse_expression(t) for t in ("0.5*x - 1.0", "x*x", "0.0", "1.0")
    )
    sf = SeriesForm(coeffs)
    f = sf.to_entire()
    for _ in range(50):
        x = float(rng.uniform(0.0, 1.0))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        direct = (0.5 * x - 1.0) + (x * x) * z + z**3
        got = f.eval(x, z)
        assert abs(got - direct) <= 1e-12 * (1.0 + abs(direct))
    vals = sf.coeff_values(0.5)
    assert np.allclose(vals, [-0.75, 0.25, 0.0, 1.0])


def test_guard_selects_branch_without_evaluating_other():
    # elsewhere-branch is singular at x0 but never evaluated there
    e = Guard(1.0, Z(), powi(sub(Const(1.0), X()), -1))
    f = EntireFunction(e)
    assert f.eval(1.0, 3.0) == 3.0
    assert f.eval(0.5, 3.0) == pytest.approx(2.0)


def test_guard_array_x_evaluates_each_side_on_its_own_rows():
    # the elsewhere-side would divide by zero on the x0 row: under
    # errstate(all="raise") evaluating it there raises
    e = Guard(1.0, Z(), powi(sub(Const(1.0), X()), -1))
    x = np.array([1.0, 0.5, 1.0, 0.75])
    z = np.array([3.0, 3.0, 2.0 - 1.0j, 0.0])
    with np.errstate(all="raise"):
        vals = e.ev(x, z)
        assert np.array_equal(vals, [3.0, 2.0, 2.0 - 1.0j, 4.0])
        with pytest.raises(FloatingPointError):
            e.elsewhere.ev(np.array([1.0]), np.array([3.0]))


def test_split_array_x_evaluates_each_side_on_its_own_rows():
    # the right side is singular at x = 0, a left-side row
    e = Split(0.5, X(), powi(X(), -1))
    x = np.array([0.0, 0.5, 1.0, 0.25, 2.0])
    with np.errstate(all="raise"):
        vals = e.ev(x, np.zeros(5, dtype=np.complex128))
    assert np.array_equal(vals, [0.0, 0.5, 1.0, 0.25, 0.5])
    assert np.array_equal(X().ev(x, 0j), x.astype(np.complex128))


def test_polish_roots_matches_polish_root_row_for_row():
    rng = np.random.default_rng(2009)
    # guard point of example1-sin, split and guard points of example2-phi
    special = {"example1-sin": [0.0], "example2-phi": [0.5, 1.0]}
    eps = np.finfo(float).eps
    for name in fixture_names():
        f, dom, *_ = build(parse_problem({"fixture": name}))
        lo, hi = dom.coordinate_range()
        rows = []
        for x in [float(x) for x in np.linspace(lo, hi, 7)] + special.get(name, []):
            # each root found, and a start 1e-3 off it: near a root Newton
            # does not amplify rounding differences
            for _ in range(3):
                g = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                w, r = polish_root(f, x, g, max_iter=40)
                if r < 1e-9:
                    off = 1e-3 * (1.0 + abs(w)) * np.exp(2j * np.pi * rng.uniform())
                    rows += [(x, w), (x, w + off)]
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
            scale = abs(f.eval_dz(xk, zs)) * (1.0 + abs(zs))
            assert abs(rv[k] - rs) <= 4 * eps * max(rs, scale), (name, xk, zk)
        assert set(special.get(name, [])) <= set(x.tolist())


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


def test_contains_flags():
    assert contains_z(parse_expression("x*z + exp(z)"))
    assert not contains_z(parse_expression("x + 1"))


def test_degeneracy_probe_detects_constant_slice():
    # x^2*z - x collapses to the constant 0 at x = 0
    f = f_of("x*x*z - x")
    res = degeneracy_probe(f, 0.0)
    assert res.degenerate
    assert res.constant == 0.0
    res = degeneracy_probe(f, 0.5)
    assert not res.degenerate


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
        res = degeneracy_probe(f, float(rng.uniform(0, 1)))
        assert not res.degenerate
        # witness is a point where F actually moved away from F(x, 0)
        assert res.witness is not None


def test_expression_builders_compose():
    e = sub(exp(mul(X(), Z())), Const(1.0))
    f = EntireFunction(e)
    assert f.eval(2.0, 0.0) == 0.0
    assert "exp" in to_text(e)
    e2 = neg(sin(cos(Z())))
    v = EntireFunction(e2).eval(0.0, 0.3)
    assert abs(v + np.sin(np.cos(0.3))) < 1e-14
