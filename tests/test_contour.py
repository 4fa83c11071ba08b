import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootbranch import (
    Circle,
    EntireFunction,
    MonicPoly,
    ZeroOnContourError,
    build,
    count_zeros,
    local_monic_factor,
    newton_to_coeffs,
    parse_expression,
    parse_problem,
    poly_roots,
)
from rootbranch.contour import (
    DENORMAL_FLOOR,
    FLOOR_REL,
    GUARD,
    CircleSample,
    ContourData,
    _cofactor_range,
    _count_zeros_data,
    _horner,
    _power_sums_from,
    _unit_nodes,
    check_contour_clear,
    check_cofactor,
    sample_contour,
)
from rootbranch.errors import (
    CofactorVanishesError,
    NoConvergenceError,
    NonFiniteError,
    NonIntegerWindingError,
)
from rootbranch.expressions import Const, series


def f_of(text):
    return EntireFunction(parse_expression(text))


def poly_fn(coeffs):
    """EntireFunction for a fixed polynomial, coeffs ascending."""
    return EntireFunction(series(Const(complex(c)) for c in coeffs))


def test_circle_validation():
    c = Circle(0j, 1.0, 64)
    assert len(c.nodes()) == 64
    with pytest.raises(ValueError):
        Circle(0j, 1.0, 48)
    with pytest.raises(ValueError):
        Circle(0j, 1.0, 8)
    with pytest.raises(ValueError):
        Circle(0j, -1.0, 64)


def _assert_sample_is_the_separate_calls(f, x, circle):
    """sample_contour on circle equals, bit for bit, f.kernel on each
    level's own nodes and f.eval_many on the probe rings, with every array
    read-only and contiguous."""
    sample = sample_contour(f, x, circle)
    assert sample.circle is circle
    fine = Circle(circle.center, circle.radius, 2 * circle.samples)
    for got, z in ((sample.coarse, circle.nodes()), (sample.fine, fine.nodes())):
        want = dict(zip(("f", "fz"), f.kernel(x, z)), z=z)
        assert got.circle is circle
        for name in ("z", "f", "fz"):
            a = getattr(got, name)
            assert a.flags.c_contiguous and not a.flags.writeable
            assert a.tobytes() == want[name].tobytes(), name
    rings = sample.rings
    assert rings.size == circle.probe_rings.size == 2 * circle.samples
    assert rings.flags.c_contiguous and not rings.flags.writeable
    (want,) = f.kernel(x, circle.probe_rings, dz=False)
    if np.isfinite(want).all():
        assert rings.tobytes() == f.eval_many(x, circle.probe_rings).tobytes()
    assert rings.tobytes() == want.tobytes()


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
    # the M level cut from one 2M-node call is the M-node sample, bit for bit
    circle = Circle(complex(re, im), 10.0**log_r, samples)
    _assert_sample_is_the_separate_calls(f_of(text), x, circle)


# a monic quintic whose coefficients move with x, as a poly-dense series
_QUINTIC = (
    "(0.3 + 0.1*i) - 0.2*x", "(-0.5 + 0.2*i) + 0.4*x", "(0.7 - 0.3*i)*x",
    "1.1 - 0.6*x", "(-0.2 + 0.9*i) + 0.3*x", "1.0",
)
_FUSED_FUNCTIONS = {
    name: build(parse_problem({"fixture": name}))[0]
    for name in ("example2-phi", "remark-exp-asymptotic", "example1-sin")
}
_FUSED_FUNCTIONS["quintic"] = EntireFunction(series(map(parse_expression, _QUINTIC)))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_FUSED_FUNCTIONS)),
    x=st.floats(0.05, 0.95),
    re=st.floats(-3.0, 3.0),
    im=st.floats(-3.0, 3.0),
    log_r=st.floats(-6.0, 0.4),
    samples=st.sampled_from([16, 32, 64, 128]),
)
def test_fused_sample_is_the_separate_calls_bit_for_bit(name, x, re, im, log_r, samples):
    # the probe rings sampled in the 2M-node call change no bit of either
    # level, and give the values the cofactor probe's own call would give
    circle = Circle(complex(re, im), 10.0**log_r, samples)
    _assert_sample_is_the_separate_calls(_FUSED_FUNCTIONS[name], x, circle)


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
    # refuses the circle from one kernel call, at the 2M nodes and then the
    # 2M probe-ring points (the sampler's one record), and does not go on
    # to 4M nodes, where it would read 0
    f = f_of("pow(z, 4) - 2")
    circle = Circle(0j, 1.0, 16)
    calls = []
    kernel = f.kernel

    def counting(x, z, **kw):
        calls.append(np.array(z))
        return kernel(x, z, **kw)

    monkeypatch.setattr(f, "kernel", counting)
    with pytest.raises(NonIntegerWindingError, match="did not settle"):
        count_zeros(f, 0.0, circle)
    with pytest.raises(NonIntegerWindingError, match="did not settle"):
        local_monic_factor(0.0, sample_contour(f, 0.0, circle))
    fine = Circle(circle.center, circle.radius, 2 * circle.samples)
    points = np.concatenate((fine.nodes(), circle.probe_rings))
    assert [z.size for z in calls] == [64, 64]
    assert all(z.tobytes() == points.tobytes() for z in calls)


def _power_sums(f, circle, n, about=0j):
    """s_0..s_n about the given shift, from the circle's M nodes at x = 0."""
    return _power_sums_from(sample_contour(f, 0.0, circle).coarse, n, about)


def test_power_sums_examples():
    f = f_of("pow(z, 2) - 1.0")
    s = _power_sums(f, Circle(0j, 2.0, 128), 2)
    assert abs(s[1]) < 1e-10
    assert abs(s[2] - 2.0) < 1e-10

    g = poly_fn([2.0, -3.0, 1.0])  # (z - 1)(z - 2)
    s = _power_sums(g, Circle(0j, 3.0, 128), 2)
    assert abs(s[1] - 3.0) < 1e-9
    assert abs(s[2] - 5.0) < 1e-9

    h = f_of("pow(z, 3)")
    s = _power_sums(h, Circle(0j, 1.0, 128), 3)
    assert abs(s[1]) < 1e-10 and abs(s[2]) < 1e-10 and abs(s[3]) < 1e-10


def test_power_sums_about_center():
    # shifting the reference point shifts the sums consistently
    g = poly_fn([2.0, -3.0, 1.0])
    s = _power_sums(g, Circle(1.5 + 0j, 1.0, 128), 2, about=1.5 + 0j)
    # roots 1, 2 relative to 1.5: -0.5 and 0.5
    assert abs(s[1]) < 1e-10
    assert abs(s[2] - 0.5) < 1e-10


def test_newton_identities_examples():
    p = newton_to_coeffs(np.array([2.0, 3.0, 5.0], dtype=complex))
    assert np.allclose(p.coeffs, [1.0, -3.0, 2.0], atol=1e-12)

    for n in (1, 2, 5):
        s = np.zeros(n + 1, dtype=complex)
        s[0] = n
        p = newton_to_coeffs(s)
        expect = np.zeros(n + 1)
        expect[0] = 1.0
        assert np.allclose(p.coeffs, expect, atol=1e-12)

    w = 0.3 - 0.7j
    p = newton_to_coeffs(np.array([1.0, w], dtype=complex))
    assert np.allclose(p.coeffs, [1.0, -w], atol=1e-14)


def test_newton_round_trip_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        deg = int(rng.integers(1, 9))
        roots = rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg)
        s = np.array(
            [deg] + [np.sum(roots**k) for k in range(1, deg + 1)], dtype=complex
        )
        p = newton_to_coeffs(s)
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


def _general_roots(p, tol):
    """poly_roots' path for degree 2 and up (sort, then the residual
    test), run on a degree-1 factor."""
    c = np.asarray(p.coeffs, dtype=np.complex128)
    u = np.array([-c[1]])
    u = u[np.lexsort((u.imag, u.real))]
    bound = tol * (1.0 + float(np.abs(c).max())) ** p.degree
    res = float(np.abs(np.polyval(c, u)).max())
    if res > bound:
        raise NoConvergenceError(f"root residual {res:.3e} exceeds contract {bound:.3e}")
    return u + p.about


_PARTS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]
)


@settings(max_examples=300, deadline=None)
@given(
    re=_PARTS,
    im=_PARTS,
    about=st.sampled_from([0j, complex(-0.0, -0.0), 1 + 1j, -2.5e-8 + 3j, 1e300 - 1e300j]),
    tol=st.sampled_from([1e-8, 0.0, 1.0, 1e-300]),
)
def test_poly_roots_degree_one_matches_the_general_path(re, im, about, tol):
    # degree 1 returns -a1 without the residual test, which cannot fail
    # there: P(-a1) is 0 for a finite a1 and NaN otherwise
    p = MonicPoly((1.0, complex(re, im)), about)
    with np.errstate(all="ignore"):
        want = _general_roots(p, tol)
        got = poly_roots(p, tol=tol)
    assert got.dtype == want.dtype and got.shape == want.shape == (1,)
    assert got.tobytes() == want.tobytes()


def test_poly_roots_ordering_deterministic():
    p = MonicPoly((1.0, 0.0, 0.0, -1.0), 0j)  # cube roots of unity
    r1 = poly_roots(p)
    r2 = poly_roots(p)
    assert np.array_equal(r1, r2)
    keys = np.lexsort((r1.imag, r1.real))
    assert np.array_equal(keys, np.arange(len(r1)))


def test_local_monic_factor_recovers_quadratic():
    f = f_of("pow(z, 2) - 1.0")
    loc = local_monic_factor(0.0, sample_contour(f, 0.0, Circle(0j, 2.0, 128)))
    assert loc.degree == 2
    assert np.allclose(loc.coeffs, [1.0, 0.0, -1.0], atol=1e-10)


def test_local_monic_factor_ignores_far_zeros():
    # factor out only what the circle encloses
    f = poly_fn(np.poly([0.2, 0.3, 5.0])[::-1])
    loc = local_monic_factor(0.0, sample_contour(f, 0.0, Circle(0j, 1.0, 128)))
    assert loc.degree == 2
    expect = np.poly([0.2, 0.3])
    assert np.max(np.abs(np.array(loc.coeffs) - expect)) < 1e-9


def test_local_monic_factor_about_center():
    f = f_of("pow(z, 2) - x")
    loc = local_monic_factor(0.25, sample_contour(f, 0.25, Circle(0.5 + 0j, 0.2, 128)))
    assert loc.degree == 1
    r = poly_roots(loc)
    assert abs(r[0] - 0.5) < 1e-10


def test_local_monic_factor_transcendental():
    f = f_of("exp(x*z) - 1")
    loc = local_monic_factor(1.0, sample_contour(f, 1.0, Circle(0j, 1.0, 256)))
    assert loc.degree == 1
    assert abs(poly_roots(loc)[0]) < 1e-10


def test_local_monic_factor_multiplicity_cluster():
    f = poly_fn(np.poly([0.4, 0.4])[::-1])
    loc = local_monic_factor(0.0, sample_contour(f, 0.0, Circle(0.4 + 0j, 0.3, 128)))
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

        # s_0 is the count itself; s_1..s_n keep their bits
        old_s = _old_power_sums(z, circle.center, f, fz, n, about)
        s = _power_sums_from(level, n, about)
        assert len(s) == n + 1 and s[0] == n
        assert _bits(s[1:]) == _bits(old_s[1:])

        # Newton's identities on these sums, with s_0 the count itself
        s = [complex(n)] + [complex(v) for v in old_s[1:]]
        poly = newton_to_coeffs(s, about)
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
    sample = sample_contour(f, 0.0, Circle(0.5 + 0j, 0.25, 16))
    coarse, fine = sample.coarse, sample.fine
    arrays = {"z": fine.z, "f": fine.f.copy(), "fz": fine.fz.copy()}
    arrays[name][3] = complex(arrays[name][3].real, value)
    bad = ContourData(fine.circle, **arrays)
    with pytest.raises(NonFiniteError, match=r"z=\(0\.7"):
        _count_zeros_data(0.0, CircleSample(coarse, bad, sample.rings))


def test_cofactor_probe_names_a_nonfinite_ring_point():
    f = f_of("pow(z, 2) - 0.25")
    sample = sample_contour(f, 0.0, Circle(0.5 + 0j, 0.3, 16))
    poly = local_monic_factor(0.0, sample)  # passes the probe on the clean rings
    rings = sample.rings.copy()
    rings[21] = complex(np.nan, 0.0)
    bad = CircleSample(sample.coarse, sample.fine, rings)
    with pytest.raises(NonFiniteError) as err:
        check_cofactor(0.0, poly, bad)
    assert f"z={sample.circle.probe_rings[21]})" in str(err.value)


def test_cofactor_probe_refuses_a_factor_missing_an_enclosed_zero():
    # z*(z - 0.5) on |z| = 1.5: the zero 0.5 is the first point of the
    # r/3 ring.  For the factor u, which carries only the zero 0, F/P is
    # exactly 0 there; for u**2 - 0.5*u, which carries both, F/P is 0/0
    # there (a point the probe skips) and 1 everywhere else
    f = f_of("z*(z - 0.5)")
    circle = Circle(0j, 1.5, 64)
    assert circle.probe_rings[0] == 0.5
    sample = sample_contour(f, 0.0, circle)
    # the factor read from the sample, before the cofactor probe that
    # local_monic_factor would end with
    n = _count_zeros_data(0.0, sample)
    both = newton_to_coeffs(_power_sums_from(sample.coarse, n, 0j))
    assert np.allclose(both.coeffs, [1.0, -0.5, 0.0], atol=1e-12)
    check_cofactor(0.0, MonicPoly((1.0, -0.5, 0j)), sample)
    with pytest.raises(CofactorVanishesError, match="min"):
        check_cofactor(0.0, MonicPoly((1.0, 0j)), sample)
