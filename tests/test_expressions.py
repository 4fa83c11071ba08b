import math

import numpy as np
import pytest

from rootbranch import EntireFunction, NonFiniteError, OutOfDomainError, SeriesForm
from rootbranch import degeneracy_probe, parse_expression
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
