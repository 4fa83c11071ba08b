"""Microbenchmarks of one certificate step, on fixed fixture points.

Run with::

    python -m pytest tests/bench_certificate.py --benchmark-only

The file name does not match ``test_*.py``, so the default test run
(tier 1) does not collect it.  Each benchmark times one call of a layer
the solver makes per step: the radius search at a new frontier, the
Rouche check with the factor at x1 that reuses its samples, and the
Newton polish of the root taken from that factor.  Every call is checked
to give the result the solver would keep, so a benchmark of a failing
path cannot pass for a fast one.
"""

import pytest

from rootbranch import build, local_monic_factor, parse_problem, poly_roots
from rootbranch.expressions import polish_root
from rootbranch.localize import select_radius, validate_step

# fixture, the seed's coordinate and root, and a step length it certifies
POINTS = {
    "remark-exp-asymptotic": (1.0, 6.283185307179586j, -1e-3),
    "monic-cubic-interval": (0.0, 1.0 + 0j, 1e-3),
}


def _certificate(name):
    f, _dom, _pt, _z0, _cfg = build(parse_problem({"fixture": name}))
    x0, z0, h = POINTS[name]
    # the engine's start radius at the seed: max(1, |w| / 2)
    loc = select_radius(f, x0, z0, max(1.0, 0.5 * abs(z0)))
    return f, loc, x0 + h


@pytest.mark.parametrize("name", sorted(POINTS))
def test_select_radius(benchmark, name):
    f, _loc, _x1 = _certificate(name)
    x0, z0, _h = POINTS[name]
    loc = benchmark(select_radius, f, x0, z0, max(1.0, 0.5 * abs(z0)))
    assert loc.n == 1


@pytest.mark.parametrize("name", sorted(POINTS))
def test_validate_step_and_factor(benchmark, name):
    f, loc, x1 = _certificate(name)

    def step():
        check = validate_step(f, loc, x1)
        return check, local_monic_factor(f, x1, loc.circle, levels=check.samples)

    check, poly = benchmark(step)
    assert check.accepted and poly.degree == loc.n


@pytest.mark.parametrize("name", sorted(POINTS))
def test_polish_root(benchmark, name):
    f, loc, x1 = _certificate(name)
    check = validate_step(f, loc, x1)
    (w1,) = poly_roots(local_monic_factor(f, x1, loc.circle, levels=check.samples))
    _w, residual = benchmark(polish_root, f, x1, complex(w1))
    assert residual <= 1e-10
