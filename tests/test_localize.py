import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rootbranch import (
    CertificateError,
    CofactorVanishesError,
    EntireFunction,
    NoConvergenceError,
    NonFiniteError,
    NonIntegerWindingError,
    NoRadiusFoundError,
    NoZerosInDiskError,
    ParamDomain,
    ZeroOnContourError,
    continue_branch,
    count_zeros,
    local_monic_factor,
    parse_expression,
    poly_roots,
    select_radius,
    validate_step,
)
from rootbranch.contour import Circle, CircleSample, MonicPoly, sample_contour
from rootbranch import contour, engine, expressions, localize
from rootbranch.localize import (
    CENTER_FRAC,
    SAFETY,
    LocalFactorization,
    _hugs_center,
    _try_radius,
    admits,
    ladder_radius,
)


def f_of(text):
    return EntireFunction(parse_expression(text))


def _same_certificate(got, want):
    """got and want agree bit for bit: x0, poly and every sample array."""
    assert (got.x0.hex(), got.circle) == (want.x0.hex(), want.circle)
    assert got.poly.about == want.poly.about
    assert np.array(got.poly.coeffs).tobytes() == np.array(want.poly.coeffs).tobytes()
    assert got.sample.rings.tobytes() == want.sample.rings.tobytes()
    for a, b in [(got.sample.coarse, want.sample.coarse), (got.sample.fine, want.sample.fine)]:
        assert a.circle == b.circle
        for name in ("z", "f", "fz"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_select_radius_simple_root():
    f = f_of("pow(z, 2) - x")
    loc = select_radius(f, 0.25, 0.5, r_max=0.4)
    assert loc.n == 1
    assert 0 < loc.r <= 0.4
    assert loc.sample.coarse.min_abs_f > 0
    r = poly_roots(loc.poly)
    assert abs(r[0] - 0.5) < 1e-10


def test_certificate_reads_circle_z0_r_n_from_what_it_stores():
    # a certificate stores x0, poly and the one sample poly was read from;
    # the rest is read from those, so the search and the step cannot build
    # one that disagrees with itself
    f = f_of("pow(z, 2) - x")
    loc = select_radius(f, 0.25, 0.5, r_max=0.4)
    assert loc._fields == ("x0", "poly", "sample")
    assert loc.circle is loc.sample.circle
    assert (loc.z0, loc.r) == (loc.circle.center, loc.circle.radius) == (0.5, 0.4)
    assert loc.n == loc.poly.degree == 1
    # both levels belong to the one circle, at its M and 2M nodes
    m = loc.circle.samples
    levels = (loc.sample.coarse, loc.sample.fine)
    assert all(d.circle is loc.circle for d in levels)
    assert [d.z.size for d in levels] == [m, 2 * m]
    assert all(d.min_abs_f > 0 for d in levels)


def test_select_radius_double_root():
    f = f_of("pow(z, 2) - x")
    loc = select_radius(f, 0.0, 0.0, r_max=0.5)
    assert loc.n == 2
    assert np.allclose(loc.poly.coeffs, [1.0, 0.0, 0.0], atol=1e-10)


def test_select_radius_transcendental():
    f = f_of("exp(x*z) - 1")
    loc = select_radius(f, 1.0, 0.0, r_max=1.0)
    assert loc.n == 1
    assert abs(poly_roots(loc.poly)[0]) < 1e-10


def test_select_radius_certificate_is_consistent():
    # the kept circle re-counts to the same n and keeps the roots well inside
    rng = np.random.default_rng(29)
    f = f_of("pow(z, 3) - x*z - 0.25")
    for _ in range(10):
        x0 = float(rng.uniform(0.0, 1.0))
        roots = np.roots([1.0, 0.0, -x0, -0.25])
        z0 = complex(roots[int(rng.integers(0, 3))])
        loc = select_radius(f, x0, z0, r_max=1.0)
        assert count_zeros(f, x0, loc.circle) == loc.n
        rs = poly_roots(loc.poly)
        assert np.all(np.abs(rs - loc.z0) < 0.5 * loc.r)


def test_select_radius_no_root_nearby():
    f = f_of("pow(z, 2) - 1.0")
    with pytest.raises(NoRadiusFoundError):
        select_radius(f, 0.0, 10.0j, r_max=0.5)


def test_select_radius_degenerate_point(monkeypatch):
    # z -> F(0, z) is identically zero: no circle is clear of zeros, and
    # whether the point is degenerate is left to the engine's stall block
    f = f_of("x*x*z - x")
    calls = []
    for module in (expressions, localize):
        monkeypatch.setattr(module, "degeneracy_probe", lambda *args: calls.append(args))
    with pytest.raises(NoRadiusFoundError):
        select_radius(f, 0.0, 1.0, r_max=1.0)
    assert calls == []


@pytest.mark.parametrize(
    "error",
    [
        ZeroOnContourError,
        NonIntegerWindingError,
        NoZerosInDiskError,
        NoConvergenceError,
        CofactorVanishesError,
    ],
)
def test_a_certificate_failure_makes_the_radius_search_try_another(monkeypatch, error):
    assert issubclass(error, CertificateError)
    f = f_of("pow(z, 2) - x")
    assert _try_radius(f, 0.25, 0.5, 0.2) is not None

    def fail(*args, **kwargs):
        raise error("this circle does not certify")

    monkeypatch.setattr(localize, "local_monic_factor", fail)
    assert _try_radius(f, 0.25, 0.5, 0.2) is None


@pytest.mark.parametrize("fault", ["nonfinite ring", "missed zero"])
def test_a_failed_cofactor_probe_makes_the_radius_search_try_another(monkeypatch, fault):
    # _try_radius reads the circle's one sample; a NaN on its probe rings
    # fails the probe with NonFiniteError, and a factor that carries only
    # the zero 0 of z*(z - 0.5) (whose zero 0.5 is a ring point of the
    # circle |z| = 1.5) with CofactorVanishesError: either way no certificate
    raised = []
    probe = contour.check_cofactor

    def recording(*args):
        try:
            probe(*args)
        except Exception as e:
            raised.append(type(e))
            raise

    monkeypatch.setattr(contour, "check_cofactor", recording)
    if fault == "nonfinite ring":
        f, args, error = f_of("pow(z, 2) - x"), (0.25, 0.5, 0.2), NonFiniteError
        assert _try_radius(f, *args) is not None and raised == []
        sample = contour.sample_contour

        def doctored(*a):
            s = sample(*a)
            rings = s.rings.copy()
            rings[5] = complex(0.0, np.inf)
            return CircleSample(s.coarse, s.fine, rings)

        monkeypatch.setattr(contour, "sample_contour", doctored)
    else:
        f, args, error = f_of("z*(z - 0.5)"), (0.0, 0j, 1.5), CofactorVanishesError
        monkeypatch.setattr(
            contour, "newton_to_coeffs", lambda s, about: MonicPoly((1.0, 0j))
        )
    assert _try_radius(f, *args) is None
    assert raised == [error]


def test_validate_step_examples():
    f = f_of("pow(z, 2) - x")
    loc = select_radius(f, 0.25, 0.5, r_max=0.2)
    v = validate_step(f, loc, 0.26)
    assert v.accepted
    assert v.excess < 1.0

    v0 = validate_step(f, loc, 0.25)
    assert v0.accepted and v0.excess == 0.0


def test_validate_step_rejects_large_move():
    f = f_of("x*x*z - x")
    loc = select_radius(f, 1.0, 1.0, r_max=0.5)
    v = validate_step(f, loc, 0.5)
    assert not v.accepted
    assert v.excess > 1.0


def test_validate_step_excess_monotone_in_step():
    # |F(x1) - F(x0)| = |x1 - x0| here, so excess grows with the step
    f = f_of("pow(z, 2) - x")
    loc = select_radius(f, 0.25, 0.5, r_max=0.2)
    steps = [0.251, 0.255, 0.26, 0.28]
    ex = [validate_step(f, loc, x1).excess for x1 in steps]
    assert all(a < b for a, b in zip(ex, ex[1:]))


def test_accepted_step_preserves_count():
    # Rouche: accepted parameter moves cannot change the enclosed zero count
    rng = np.random.default_rng(31)
    f = f_of("pow(z, 3) - x*z - 0.25")
    x0 = 0.3
    roots = np.roots([1.0, 0.0, -x0, -0.25])
    for seed_root in roots:
        loc = select_radius(f, x0, complex(seed_root), r_max=1.0)
        for _ in range(20):
            x1 = x0 + float(rng.uniform(0, 0.05))
            v = validate_step(f, loc, x1)
            if v.accepted:
                assert count_zeros(f, x1, loc.circle) == loc.n


def test_validate_step_nonfinite_is_rejected():
    # F = z away from x = 0.5 and NaN at every node there, since
    # (x - x) * pow(x - 0.5, -1) is 0 * inf; the parser does not fold x - x.
    # A NaN difference would pass the excess test (NaN > 1 is false), so
    # only the finiteness check rejects the step
    f = f_of("z - (x - x)*pow(x - 0.5, -1)")
    loc = select_radius(f, 0.25, 0.0, r_max=0.5)
    assert np.isnan(sample_contour(f, 0.5, loc.circle).fine.f).all()
    v = validate_step(f, loc, 0.5)
    assert v.accepted is False
    assert v.excess == math.inf
    assert v.sample is None
    assert v.resolution == 2 * loc.circle.samples


def test_select_radius_halving_budget():
    # very tight r_max still converges within the halving budget
    f = f_of("pow(z, 2) - x")
    loc = select_radius(f, 0.25, 0.5, r_max=0.4)
    assert loc.r > 0.4 * 0.5**40


def test_accepted_step_reuses_the_check_samples(monkeypatch):
    # the check samples F(x1) once, in one kernel call at the 2M nodes and
    # the circle's two probe rings, and compares it on the 2M nodes with
    # F(x0) from the certificate; the factor at x1 takes the check's one
    # sample: it makes no kernel call, and no node set is evaluated twice
    f = f_of("pow(z, 2) - x")
    loc = select_radius(f, 0.25, 0.5, r_max=0.2)
    m = loc.circle.samples
    calls = []
    kernel = f.kernel

    def counting(x, z, **kw):
        calls.append((x, np.array(z)))
        return kernel(x, z, **kw)

    monkeypatch.setattr(f, "kernel", counting)
    x1 = 0.26
    v = validate_step(f, loc, x1)
    assert v.accepted and v.resolution == 2 * m
    assert [(x, z.size) for x, z in calls] == [(x1, 2 * m + 2 * m)]
    (_, z), = calls
    c, r = loc.circle.center, loc.circle.radius
    nodes, rings = Circle(c, r, 2 * m).nodes(), loc.circle.probe_rings
    assert z.tobytes() == np.concatenate((nodes, rings)).tobytes()
    assert len(set(z.tolist())) == z.size
    levels = (v.sample.coarse, v.sample.fine)
    assert [d.z.size for d in levels] == [m, 2 * m] and v.sample.rings.size == 2 * m

    calls.clear()
    poly = local_monic_factor(x1, v.sample)
    assert calls == []
    monkeypatch.undo()
    assert poly == local_monic_factor(x1, sample_contour(f, x1, loc.circle))

    kept = [loc.sample.coarse.f, loc.sample.fine.f]
    kept += [a for d in levels for a in (d.z, d.f, d.fz)]
    assert not any(a.flags.writeable for a in kept + [v.sample.rings])


def test_step_check_reads_every_2m_node():
    # x*(z**128 - 1) vanishes on the unit circle's 128 nodes, so F(x1)
    # equals F(x0) there for every x1; between them |z**128 - 1| = 2, and
    # the 2M nodes see a change of 2 * x1 against m = 1
    f = f_of("z + x*(pow(z, 128) - 1)")
    loc = select_radius(f, 0.0, 0j, 1.0)
    assert (loc.r, loc.n, loc.circle.samples) == (1.0, 1, 128)
    v = validate_step(f, loc, 0.3)
    assert not v.accepted
    assert v.excess == pytest.approx(1.2)
    assert v.resolution == 256
    for x1 in (0.05, 0.1, 0.15, 0.2):
        v = validate_step(f, loc, x1)
        assert v.accepted
        assert v.excess == pytest.approx(4 * x1)


def test_circle_is_carried_exactly_where_the_radius_search_admits_it():
    # the second zero 1.06 - x nears the unit circle from outside: from
    # about x = 0.013 the circle is still clear enough for the step's checks
    # but not for CLEAR_MARGIN, and neither the carry nor the search keeps it
    f = f_of("z * (z - 1.06 + x)")
    loc = select_radius(f, 0.0, 0j, r_max=1.0)
    assert loc.r == 1.0
    kept_at = []
    for x1 in np.linspace(0.002, 0.028, 14).tolist():
        v = validate_step(f, loc, x1)
        assert v.accepted
        cert = LocalFactorization(x1, local_monic_factor(x1, v.sample), v.sample)
        fresh = _try_radius(f, x1, loc.z0, loc.r)
        assert admits(cert) == (fresh is not None), x1
        if fresh is not None:
            kept_at.append(x1)
            _same_certificate(cert, fresh)
    assert kept_at and max(kept_at) < 0.014 and len(kept_at) < 14


def test_a_simple_root_hugs_the_center_by_its_exact_distance():
    # u + a_1 has its root exactly |a_1| from the center; the Cauchy bound
    # 2|a_1| would refuse a root at 0.07 r
    r = 2.0
    assert _hugs_center(MonicPoly((1.0, -0.07 * r)), r)
    assert _hugs_center(MonicPoly((1.0, 0.1j * r)), r)
    assert not _hugs_center(MonicPoly((1.0, -0.11 * r)), r)
    assert _try_radius(f_of("z - 0.07"), 0.0, 0j, 1.0) is not None
    assert _try_radius(f_of("z - 0.11"), 0.0, 0j, 1.0) is None


def test_a_cluster_hugs_the_center_by_the_cauchy_bound():
    # u**2 - d**2 has its roots +-d, exactly d from the center; its Cauchy
    # bound is 2d, so d = 0.06 r is refused although 0.06 < CENTER_FRAC
    r = 2.0
    for d, admitted in [(0.04, True), (0.06, False)]:
        assert d < CENTER_FRAC
        assert _hugs_center(MonicPoly((1.0, 0.0, -((d * r) ** 2))), r) is admitted


def _segment_distance(c, a, b):
    """Distance from c to the root curve a + b*x at 257 points of [0, 1]."""
    return float(np.abs(c - a - b * np.linspace(0.0, 1.0, 257)).min())


_coords = st.floats(-1.5, 1.5)


@settings(max_examples=50, deadline=None)
@given(
    a=st.builds(complex, _coords, _coords),
    b=st.builds(complex, _coords, _coords),
    c=st.builds(complex, _coords, _coords),
)
def test_a_carried_circle_equals_a_fresh_search_on_it(a, b, c):
    # along the run, every certificate at x1 the engine asks admits of, on
    # a simple root, agrees with _try_radius at that circle: refused by
    # both, or the same x0, poly and samples bit for bit
    assume(_segment_distance(c, a, b) >= 0.3)
    a_, b_, c_ = (f"({v.real!r} + {v.imag!r}*i)" for v in (a, b, c))
    f = f_of(f"(z - {a_} - {b_}*x)*(z - {c_})")
    tried = []

    def carry(cert):
        kept = admits(cert)
        fresh = _try_radius(f, cert.x0, cert.z0, cert.r)
        tried.append(cert.x0)
        assert cert.n == 1
        assert kept == (fresh is not None), cert.x0
        if kept:
            _same_certificate(cert, fresh)
        return kept

    dom = ParamDomain.interval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "admits", carry)
        br = continue_branch(f, dom, dom.interval_point(0.0), a)
    assert br.completed and tried


def test_ladder_moves_toward_the_best_rouche_ratio():
    # exp(x*z) - 1 about 2*pi*i at x = 1: the ratio goes like
    # (1 - e^-r)*e^-r, so from r = pi the ladder halves, from pi/4 it stays
    # and from pi/8 it doubles
    f = f_of("exp(x*z) - 1")
    z0 = 2j * math.pi
    for r, best in [(math.pi, math.pi / 2), (math.pi / 4, math.pi / 4),
                    (math.pi / 8, math.pi / 4)]:
        loc = select_radius(f, 1.0, z0, r_max=r)
        assert loc.r == r
        x1 = 1.0 - 1e-3
        (f1,) = f.kernel(x1, loc.circle.nodes(), dz=False)
        assert ladder_radius(f, loc, x1, f1) == best


def test_ladder_drops_nonfinite_rungs_and_keeps_ties():
    # z - x: the ratio grows with the radius, so 2r wins while it is finite
    x1 = 1e-3
    for text, best in [("z - x", 8.0), ("z - x + 1e-300*exp(exp(z))", 4.0)]:
        f = f_of(text)
        loc = select_radius(f, 0.0, 0.0, r_max=4.0)
        assert loc.r == 4.0
        (f1,) = f.kernel(x1, loc.circle.nodes(), dz=False)
        # exp(exp(z)) overflows on the 2r circle (Re z up to 8) only
        assert np.isfinite(f1).all()
        assert ladder_radius(f, loc, x1, f1) == best
    # F that does not move with x: every rung's ratio is infinite, r stays
    f = f_of("pow(z, 2) - 0.25 + 0*x")
    loc = select_radius(f, 0.0, 0.5, r_max=0.2)
    (f1,) = f.kernel(0.5, loc.circle.nodes(), dz=False)
    assert ladder_radius(f, loc, 0.5, f1) == loc.r


def test_refined_check_uses_the_2m_level_minimum():
    # the step check divides by min |F(x0)| over the 2M nodes, the
    # certificate's own sample.fine, for a searched and for a carried
    # circle; the far zero sits off a node of M, so that minimum is not the
    # M one
    f = f_of("z * (z - 1.06*exp(0.02*i) + x)")
    searched = select_radius(f, 0.0, 0j, r_max=1.0)
    v = validate_step(f, searched, 0.002)
    carried = LocalFactorization(0.002, local_monic_factor(0.002, v.sample), v.sample)
    assert admits(carried)
    for loc in (searched, carried):
        coarse, fine = loc.sample.coarse, loc.sample.fine
        m2 = float(np.abs(fine.f).min())
        assert m2 < coarse.min_abs_f == float(np.abs(coarse.f).min())
        x1 = loc.x0 + 0.01
        v = validate_step(f, loc, x1)
        f1 = sample_contour(f, x1, loc.circle).fine.f
        want = float(np.abs(f1 - fine.f).max()) / (SAFETY * m2)
        assert v.excess.hex() == want.hex()
