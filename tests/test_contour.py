import numpy as np
import pytest
from hypothesis import example, given, settings
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
from rootbranch.contour import (
    DENORMAL_FLOOR,
    FLOOR_REL,
    GUARD,
    ContourData,
    _cofactor_range,
    _count_zeros_data,
    _horner,
    _power_sums_from,
    _unit_nodes,
    check_contour_clear,
    sample_contour,
    sample_nested,
)
from rootbranch.errors import (
    CofactorVanishesError,
    NonFiniteError,
    NonIntegerWindingError,
)
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


def test_count_reads_only_the_m_and_2m_levels(monkeypatch):
    # pow(z, 4) - 2 on the unit circle: the winding is -0.267 at 16 nodes,
    # -0.016 at 32 and -0.0001 at 64.  The M and 2M levels do not settle on
    # one integer, which says the circle passes close to a zero: the count
    # refuses the circle from one kernel call at 2M nodes, and does not go
    # on to 4M nodes, where it would read 0
    f = f_of("pow(z, 4) - 2")
    circle = Circle(0j, 1.0, 16)
    sizes = []
    kernel = f.kernel

    def counting(x, z, **kw):
        sizes.append(np.size(z))
        return kernel(x, z, **kw)

    monkeypatch.setattr(f, "kernel", counting)
    with pytest.raises(NonIntegerWindingError, match="did not settle"):
        count_zeros(f, 0.0, circle)
    assert sizes == [32]
    with pytest.raises(NonIntegerWindingError, match="did not settle"):
        local_monic_factor(f, 0.0, circle)
    assert sizes == [32, 32]


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


# The certificate arithmetic as it was before it reused each level's
# integrand and reductions; the rewrite must give the same bits.


def _old_winding(z, c, f, fz):
    return complex(np.mean((z - c) * fz / f))


def _old_power_sums(z, c, f, fz, n, about):
    g = (z - c) * fz / f
    u = z - about
    s = np.empty(n + 1, dtype=np.complex128)
    uk = np.ones_like(u)
    for k in range(n + 1):
        s[k] = np.mean(uk * g)
        uk = uk * u
    return s


def _old_newton(s, n):
    a = np.zeros(n + 1, dtype=np.complex128)
    a[0] = 1.0
    for k in range(1, n + 1):
        acc = s[k]
        for i in range(1, k):
            acc += a[i] * s[k - i]
        a[k] = -acc / k
    return tuple(a)


def _old_cofactor_range(fv, coeffs, about, zs):
    g = fv / np.polyval(np.asarray(coeffs), zs - about)
    ok = np.isfinite(g)
    if not ok.any():
        return None
    ga = np.abs(g[ok])
    return float(ga.min()), float(ga.max())


def _old_contour_check(level, margin):
    """check_contour_clear's verdict, as its message, or None."""
    absf = np.abs(level.f)
    minf, maxf = float(absf.min()), float(absf.max())
    floor = margin * max(FLOOR_REL * maxf, DENORMAL_FLOOR)
    if minf < floor:
        return f"min node |F| = {minf:.3e} below floor {floor:.3e}"
    spacing = 2.0 * np.pi * level.circle.radius / level.circle.samples
    bound = (margin * GUARD * spacing) * np.abs(level.fz)
    slack = absf - bound
    j = int(np.argmin(slack))
    if slack[j] < 0.0:
        return f"node |F| = {absf[j]:.3e} below derivative guard {bound[j]:.3e}"
    return None


def _bits(values):
    """The bytes of complex or float values; every NaN counts as one."""
    a = np.array(values, dtype=np.complex128).ravel()
    nan = np.isnan(a.real) | np.isnan(a.imag)
    return a[~nan].tobytes(), np.flatnonzero(nan).tolist()


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]


@st.composite
def _level_data(draw):
    m = draw(st.sampled_from([16, 32, 64, 128, 256]))
    n = draw(st.integers(1, 6))

    def scaled(lo, hi):
        sign = draw(st.sampled_from([1.0, -1.0]))
        return sign * 10.0 ** draw(st.floats(lo, hi))

    parts = st.sampled_from(["scaled", 0.0, -0.0])

    def coordinate():
        p = draw(parts)
        return scaled(-150, 150) if p == "scaled" else p

    center = complex(coordinate(), coordinate())
    circle = Circle(center, 10.0 ** draw(st.floats(-150, 150)), m)
    about = center if draw(st.booleans()) else complex(coordinate(), coordinate())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sample(kind):
        if kind == "signed zeros":
            return rng.choice([0.0, -0.0], m) + 1j * rng.choice([0.0, -0.0], m)
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        return v * 10.0 ** draw(st.floats(-100, 100))

    f = sample("random")
    fz = sample(draw(st.sampled_from(["random", "signed zeros"])))
    for name, j, value, real in draw(
        st.lists(
            st.tuples(
                st.sampled_from(["f", "fz"]),
                st.integers(0, m - 1),
                st.sampled_from(_SPECIAL),
                st.booleans(),
            ),
            max_size=3,
        )
    ):
        a = f if name == "f" else fz
        a[j] = complex(value, a[j].imag) if real else complex(a[j].real, value)
    return circle, n, about, f, fz


@settings(max_examples=300, deadline=None)
@given(data=_level_data(), lead=st.sampled_from([1 + 0j, complex(1.0, -0.0)]))
def test_certificate_arithmetic_keeps_its_bits(data, lead):
    circle, n, about, f, fz = data
    z = circle.nodes()
    level = ContourData(circle, z, f, fz)
    with np.errstate(all="ignore"):
        assert _bits(level.winding) == _bits(_old_winding(z, circle.center, f, fz))

        for margin in (1.0, 2.0):
            try:
                check_contour_clear(level, margin)
                verdict = None
            except ZeroOnContourError as e:
                verdict = str(e)
            assert verdict == _old_contour_check(level, margin)

        old_s = _old_power_sums(z, circle.center, f, fz, n, about)
        raised = abs(old_s[0] - n) > 0.5
        try:
            s = _power_sums_from(level, n, about)
        except NonIntegerWindingError:
            assert raised
        else:
            assert not raised
            assert _bits(s) == _bits(old_s)

        # Newton's identities on these sums, with s_0 the count itself
        s = [complex(n)] + [complex(v) for v in old_s[1:]]
        poly = newton_to_coeffs(PowerSums(tuple(s), about))
        assert _bits(poly.coeffs) == _bits(_old_newton(np.array(s), n))

        # the cofactor probe with that factor, led by 1 + 0j or 1 - 0j
        poly = MonicPoly((lead, *poly.coeffs[1:]), about)
        unit = _unit_nodes(circle.samples)
        c, r = circle.center, circle.radius
        zs = np.concatenate([c + (r / 3.0) * unit, c + (2.0 * r / 3.0) * unit])
        fv = np.concatenate([f, fz])
        old = _old_cofactor_range(fv, poly.coeffs, about, zs)
        try:
            new = _cofactor_range(fv, poly, zs)
        except CofactorVanishesError:
            assert old is None
        else:
            assert old is not None and _bits(new) == _bits(old)


@settings(max_examples=300, deadline=None)
@example(coeffs=[complex(0.3, -0.0)], lead=complex(1.0, -0.0), parts=[-2.25, -0.0])
@given(
    coeffs=st.lists(
        st.complex_numbers(allow_nan=True, allow_infinity=True), min_size=1, max_size=6
    ),
    lead=st.sampled_from([1 + 0j, complex(1.0, -0.0)]),
    parts=st.lists(
        st.sampled_from(_SPECIAL + [0.5, -3.0, 1e-310, -1e300]), min_size=2, max_size=64
    ),
)
def test_horner_is_polyval_bit_for_bit(coeffs, lead, parts):
    # any u, including signed zeros; where u is not finite both values
    # have a NaN part, and F/P is NaN either way
    u = np.array([complex(a, b) for a, b in zip(parts[0::2], parts[1::2])])
    c = (lead, *coeffs)
    with np.errstate(all="ignore"):
        got, want = _horner(c, u), np.polyval(np.asarray(c), u)
    finite = np.isfinite(u)
    assert got[finite].tobytes() == want[finite].tobytes()
    for v in (got[~finite], want[~finite]):
        assert (np.isnan(v.real) | np.isnan(v.imag)).all()


@pytest.mark.parametrize("name", ["f", "fz"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_nonfinite_level_fails_the_count_as_nonfinite(name, value):
    # checked before the contour checks, which would call it a zero instead
    f = f_of("pow(z, 2) - 0.25")
    coarse, fine = sample_nested(f, 0.0, Circle(0.5 + 0j, 0.25, 16))
    arrays = {"z": fine.z, "f": fine.f.copy(), "fz": fine.fz.copy()}
    arrays[name][3] = complex(arrays[name][3].real, value)
    bad = ContourData(fine.circle, **arrays)
    with pytest.raises(NonFiniteError, match=r"z=\(0\.7"):
        _count_zeros_data(0.0, coarse, bad)
