import math
from dataclasses import fields

import numpy as np
import pytest

from rootbranch import (
    DegenerateAtPointError,
    EntireFunction,
    NoRadiusFoundError,
    count_zeros,
    local_monic_factor,
    parse_expression,
    poly_roots,
    select_radius,
    validate_step,
)
from rootbranch.contour import sample_nested
from rootbranch.localize import SAFETY, _try_radius, carry_certificate, ladder_radius


def f_of(text):
    return EntireFunction(parse_expression(text))


def test_select_radius_simple_root():
    f = f_of("pow(z, 2) - x")
    loc = select_radius(f, 0.25, 0.5, r_max=0.4)
    assert loc.n == 1
    assert 0 < loc.r <= 0.4
    assert loc.m > 0
    r = poly_roots(loc.poly)
    assert abs(r[0] - 0.5) < 1e-10


def test_certificate_reads_z0_r_m_n_from_what_it_stores():
    # a certificate stores x0, poly, circle and levels; the rest is read
    # from those, so the search and the carry cannot build one that
    # disagrees with itself
    f = f_of("pow(z, 2) - x")
    loc = select_radius(f, 0.25, 0.5, r_max=0.4)
    assert [fl.name for fl in fields(loc)] == ["x0", "poly", "circle", "levels"]
    assert (loc.z0, loc.r) == (loc.circle.center, loc.circle.radius) == (0.5, 0.4)
    assert loc.m == loc.levels[0].min_abs_f == float(np.abs(loc.levels[0].f).min())
    assert loc.n == loc.poly.degree == 1
    assert [d.circle for d in loc.levels] == [loc.circle, loc.circle.doubled()]


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


def test_select_radius_degenerate_point():
    # z -> F(0, z) is identically zero
    f = f_of("x*x*z - x")
    with pytest.raises(DegenerateAtPointError) as ei:
        select_radius(f, 0.0, 1.0, r_max=1.0)
    assert ei.value.constant == 0.0


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
    f = f_of("exp(pow(z, 2))*x - 1.0")
    loc = select_radius(f, 1.0, 0.0, r_max=0.5)
    # push the parameter somewhere F overflows on the circle: not possible
    # for this f, so instead check the reported resolution is the node count
    v = validate_step(f, loc, 0.9)
    assert v.resolution >= loc.circle.samples


def test_select_radius_halving_budget():
    # very tight r_max still converges within the halving budget
    f = f_of("pow(z, 2) - x")
    loc = select_radius(f, 0.25, 0.5, r_max=0.4)
    assert loc.r > 0.4 * 0.5**40


def test_accepted_step_reuses_the_check_samples(monkeypatch):
    # the check samples F(x1) once, at 2M nodes, and the thin-margin
    # comparison takes F(x0) there from the certificate; the factor at x1
    # takes F(x1) on the M- and 2M-node circles from the check: none of
    # those node sets is evaluated again
    f = f_of("pow(z, 2) - x")
    loc = select_radius(f, 0.25, 0.5, r_max=0.2)
    m = loc.circle.samples
    calls = []
    kernel = f.kernel

    def counting(x, z, **kw):
        calls.append((x, np.array(z)))
        return kernel(x, z, **kw)

    monkeypatch.setattr(f, "kernel", counting)
    for x1 in 0.25 + np.geomspace(1e-4, 0.2, 80):
        calls.clear()
        v = validate_step(f, loc, float(x1))
        if v.accepted and v.resolution == 2 * m:
            break
    else:
        pytest.fail("no step was decided at doubled resolution")
    assert [(x, z.size) for x, z in calls] == [(x1, 2 * m)]
    reused = (loc.circle.nodes(), loc.circle.doubled().nodes())
    assert [d.z.size for d in v.samples] == [m, 2 * m]

    calls.clear()
    poly = local_monic_factor(f, x1, loc.circle, levels=v.samples)
    assert calls  # the cofactor probe inside the disk still samples
    assert not any(np.array_equal(z, nodes) for _, z in calls for nodes in reused)
    monkeypatch.undo()
    assert poly == local_monic_factor(f, x1, loc.circle)

    kept = [d.f for d in loc.levels]
    kept += [a for d in v.samples for a in (d.z, d.f, d.fz)]
    assert not any(a.flags.writeable for a in kept)


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
        poly = local_monic_factor(f, x1, loc.circle, levels=v.samples)
        kept = carry_certificate(loc, x1, poly, v.samples)
        fresh = _try_radius(f, x1, loc.z0, loc.r)
        assert (kept is None) == (fresh is None), x1
        if kept is not None:
            kept_at.append(x1)
            assert (kept.x0, kept.n, kept.m) == (fresh.x0, fresh.n, fresh.m)
            assert kept.poly == fresh.poly
    assert kept_at and max(kept_at) < 0.014 and len(kept_at) < 14


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


def _decided_at_2m(f, loc, xs):
    """validate_step at the first x1 in xs whose check reaches the 2M nodes,
    with the F(x1) it compared there."""
    for x1 in xs:
        v = validate_step(f, loc, x1)
        if v.resolution == 2 * loc.circle.samples:
            return v, sample_nested(f, x1, loc.circle)[1].f
    pytest.fail("no step reached the 2M nodes")


def test_refined_check_uses_the_2m_level_minimum():
    # the 2M comparison divides by min |F(x0)| over the 2M nodes, the
    # certificate's own levels[1], for a searched and for a carried circle;
    # the far zero sits off a node of M, so that minimum is not the M one
    f = f_of("z * (z - 1.06*exp(0.02*i) + x)")
    searched = select_radius(f, 0.0, 0j, r_max=1.0)
    v = validate_step(f, searched, 0.002)
    poly = local_monic_factor(f, 0.002, searched.circle, levels=v.samples)
    carried = carry_certificate(searched, 0.002, poly, v.samples)
    assert carried is not None
    for loc in (searched, carried):
        coarse, fine = loc.levels
        m2 = float(np.abs(fine.f).min())
        assert m2 < loc.m == float(np.abs(coarse.f).min())
        v, f1 = _decided_at_2m(f, loc, (loc.x0 + np.geomspace(1e-4, 0.05, 60)).tolist())
        want = float(np.abs(f1 - fine.f).max()) / (SAFETY * m2)
        assert v.excess.hex() == want.hex()
