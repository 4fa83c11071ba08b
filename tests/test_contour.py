import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootbranch import (
    Circle,
    EntireFunction,
    MonicPoly,
    PowerSums,
    ZeroOnContourError,
    count_zeros,
    local_monic_factor,
    newton_to_coeffs,
    parse_expression,
    poly_roots,
    power_sums,
)
from rootbranch.contour import sample_contour, sample_nested
from rootbranch.expressions import Const, SeriesForm


def f_of(text):
    return EntireFunction(parse_expression(text))


def poly_fn(coeffs):
    """EntireFunction for a fixed polynomial, coeffs ascending."""
    return EntireFunction(SeriesForm(tuple(Const(complex(c)) for c in coeffs)).expr)


def test_circle_validation():
    c = Circle(0j, 1.0, 64)
    assert len(c.nodes()) == 64
    assert c.doubled().samples == 128
    with pytest.raises(ValueError):
        Circle(0j, 1.0, 48)
    with pytest.raises(ValueError):
        Circle(0j, 1.0, 8)
    with pytest.raises(ValueError):
        Circle(0j, -1.0, 64)


@settings(max_examples=50, deadline=None)
@given(
    text=st.sampled_from(["exp(x*z) - 1", "sin(z) - x*pow(z, 3)", "cos(x + z) * z"]),
    x=st.floats(-2.0, 2.0),
    re=st.floats(-5.0, 5.0),
    im=st.floats(-5.0, 5.0),
    log_r=st.floats(-6.0, 1.0),
    samples=st.sampled_from([16, 64, 128]),
)
def test_nested_sample_matches_sampling_each_level(text, x, re, im, log_r, samples):
    # the M level cut from one 2M-node sample is the M-node sample, bit for bit
    f = f_of(text)
    circle = Circle(complex(re, im), 10.0**log_r, samples)
    coarse, fine = sample_nested(f, x, circle)
    for got, circ in ((coarse, circle), (fine, circle.doubled())):
        want = sample_contour(f, x, circ)
        assert got.circle == circ
        for name in ("z", "f", "fz"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.flags.c_contiguous and not a.flags.writeable
            assert a.tobytes() == b.tobytes(), name


def test_count_zeros_examples():
    assert count_zeros(f_of("pow(z, 3)"), 0.0, Circle(0j, 1.0, 64)) == 3
    f = f_of("pow(z, 2) - 1.0")
    assert count_zeros(f, 0.0, Circle(0j, 2.0, 64)) == 2
    assert count_zeros(f, 0.0, Circle(0j, 0.5, 64)) == 0


def test_count_zeros_counts_multiplicity():
    f = f_of("pow(z, 2) - x")  # double zero at x = 0
    assert count_zeros(f, 0.0, Circle(0j, 0.5, 64)) == 2


def test_count_zeros_off_center():
    f = f_of("pow(z, 2) - 1.0")
    assert count_zeros(f, 0.0, Circle(1.0 + 0j, 0.5, 64)) == 1
    assert count_zeros(f, 0.0, Circle(1.0j, 0.5, 64)) == 0


def test_count_zeros_rejects_zero_on_contour():
    f = f_of("pow(z, 2) - 1.0")
    with pytest.raises(ZeroOnContourError):
        count_zeros(f, 0.0, Circle(0j, 1.0, 64))


def test_count_stable_under_node_doubling():
    rng = np.random.default_rng(17)
    for _ in range(25):
        deg = int(rng.integers(1, 7))
        roots = rng.uniform(-0.8, 0.8, deg) + 1j * rng.uniform(-0.8, 0.8, deg)
        f = poly_fn(np.poly(roots)[::-1])
        for m in (64, 128, 256):
            assert count_zeros(f, 0.0, Circle(0j, 2.0, m)) == deg


def test_power_sums_examples():
    f = f_of("pow(z, 2) - 1.0")
    ps = power_sums(f, 0.0, Circle(0j, 2.0, 128), 2)
    assert abs(ps.s[1]) < 1e-10
    assert abs(ps.s[2] - 2.0) < 1e-10

    g = poly_fn([2.0, -3.0, 1.0])  # (z - 1)(z - 2)
    ps = power_sums(g, 0.0, Circle(0j, 3.0, 128), 2)
    assert abs(ps.s[1] - 3.0) < 1e-9
    assert abs(ps.s[2] - 5.0) < 1e-9

    h = f_of("pow(z, 3)")
    ps = power_sums(h, 0.0, Circle(0j, 1.0, 128), 3)
    assert abs(ps.s[1]) < 1e-10 and abs(ps.s[2]) < 1e-10 and abs(ps.s[3]) < 1e-10


def test_power_sums_about_center():
    # shifting the reference point shifts the sums consistently
    g = poly_fn([2.0, -3.0, 1.0])
    ps = power_sums(g, 0.0, Circle(1.5 + 0j, 1.0, 128), 2, about=1.5 + 0j)
    # roots 1, 2 relative to 1.5: -0.5 and 0.5
    assert abs(ps.s[1]) < 1e-10
    assert abs(ps.s[2] - 0.5) < 1e-10


def test_newton_identities_examples():
    p = newton_to_coeffs(PowerSums(np.array([2.0, 3.0, 5.0], dtype=complex), 0j))
    assert np.allclose(p.coeffs, [1.0, -3.0, 2.0], atol=1e-12)

    for n in (1, 2, 5):
        s = np.zeros(n + 1, dtype=complex)
        s[0] = n
        p = newton_to_coeffs(PowerSums(s, 0j))
        expect = np.zeros(n + 1)
        expect[0] = 1.0
        assert np.allclose(p.coeffs, expect, atol=1e-12)

    w = 0.3 - 0.7j
    p = newton_to_coeffs(PowerSums(np.array([1.0, w], dtype=complex), 0j))
    assert np.allclose(p.coeffs, [1.0, -w], atol=1e-14)


def test_newton_round_trip_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        deg = int(rng.integers(1, 9))
        roots = rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg)
        s = np.array(
            [deg] + [np.sum(roots**k) for k in range(1, deg + 1)], dtype=complex
        )
        p = newton_to_coeffs(PowerSums(s, 0j))
        expect = np.poly(roots)
        assert np.max(np.abs(np.array(p.coeffs) - expect)) < 1e-10


def test_poly_roots_quadratic_and_polish():
    p = MonicPoly((1.0, -3.0, 2.0), 0j)
    r = poly_roots(p)
    assert np.allclose(sorted(r.real), [1.0, 2.0], atol=1e-12)
    assert np.allclose(r.imag, 0.0, atol=1e-12)

    # about-shift is folded back into z-plane roots
    p = MonicPoly((1.0, 0.0, -0.25), 1.0 + 1.0j)
    r = poly_roots(p)
    expect = np.array([1.0 + 1.0j - 0.5, 1.0 + 1.0j + 0.5])
    assert np.allclose(np.sort_complex(r), np.sort_complex(expect), atol=1e-12)


def test_poly_roots_ordering_deterministic():
    p = MonicPoly((1.0, 0.0, 0.0, -1.0), 0j)  # cube roots of unity
    r1 = poly_roots(p)
    r2 = poly_roots(p)
    assert np.array_equal(r1, r2)
    keys = np.lexsort((r1.imag, r1.real))
    assert np.array_equal(keys, np.arange(len(r1)))


def test_local_monic_factor_recovers_quadratic():
    f = f_of("pow(z, 2) - 1.0")
    loc = local_monic_factor(f, 0.0, Circle(0j, 2.0, 128))
    assert loc.degree == 2
    assert np.allclose(loc.coeffs, [1.0, 0.0, -1.0], atol=1e-10)


def test_local_monic_factor_ignores_far_zeros():
    # factor out only what the circle encloses
    f = poly_fn(np.poly([0.2, 0.3, 5.0])[::-1])
    loc = local_monic_factor(f, 0.0, Circle(0j, 1.0, 128))
    assert loc.degree == 2
    expect = np.poly([0.2, 0.3])
    assert np.max(np.abs(np.array(loc.coeffs) - expect)) < 1e-9


def test_local_monic_factor_about_center():
    f = f_of("pow(z, 2) - x")
    loc = local_monic_factor(f, 0.25, Circle(0.5 + 0j, 0.2, 128))
    assert loc.degree == 1
    r = poly_roots(loc)
    assert abs(r[0] - 0.5) < 1e-10


def test_local_monic_factor_transcendental():
    f = f_of("exp(x*z) - 1")
    loc = local_monic_factor(f, 1.0, Circle(0j, 1.0, 256))
    assert loc.degree == 1
    assert abs(poly_roots(loc)[0]) < 1e-10


def test_local_monic_factor_multiplicity_cluster():
    f = poly_fn(np.poly([0.4, 0.4])[::-1])
    loc = local_monic_factor(f, 0.0, Circle(0.4 + 0j, 0.3, 128))
    assert loc.degree == 2
    r = poly_roots(loc, tol=1e-5)
    assert np.allclose(r, 0.4, atol=1e-6)


def test_winding_guard_scales_with_local_derivative():
    # clustered zeros leave tiny |F| near them while |F'| explodes at the
    # far rim; the clearance test must stay local or this throws
    f = poly_fn(np.poly([0.99] * 8)[::-1])
    assert count_zeros(f, 0.0, Circle(0j, 2.0, 256)) == 8
