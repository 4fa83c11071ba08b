"""Microbenchmarks of one certificate step, on fixed fixture points.

Run with::

    python -m pytest tests/bench_certificate.py --benchmark-only

The file name does not match ``test_*.py``, so the default test run
(tier 1) does not collect it.  Each benchmark times one call of a layer
the solver makes per step: the radius search at a new frontier, the
Rouche check with the factor at x1 that reuses its samples, and the
Newton polish of the root taken from that factor.  Every call is checked
to give the result the solver would keep, so a benchmark of a failing
path cannot pass for a fast one.  One more benchmark times the
evaluation each Newton iterate makes, (F, dF/dz) at one point, through
the one-point evaluator f.at and through f.kernel on a 1-element array.
The last times a degree-5 series, which the kernel evaluates by Horner's
rule: one kernel call on a contour's 256 nodes, with dF/dz and without,
and one f.at call.
"""

import numpy as np
import pytest

from rootbranch import EntireFunction, build, local_monic_factor, series
from rootbranch import parse_expression, parse_problem, poly_roots
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
        poly = local_monic_factor(x1, check.sample)
        return check, poly

    check, poly = benchmark(step)
    assert check.accepted and poly.degree == loc.n


@pytest.mark.parametrize("name", sorted(POINTS))
def test_polish_root(benchmark, name):
    f, loc, x1 = _certificate(name)
    check = validate_step(f, loc, x1)
    (w1,) = poly_roots(local_monic_factor(x1, check.sample))
    _w, residual = benchmark(polish_root, f, x1, complex(w1))
    assert residual <= 1e-10


# a monic quintic whose coefficients move with x, given as a series like
# the benchmark's poly-dense families
QUINTIC = (
    "(0.3 + 0.1*i) - 0.2*x", "(-0.5 + 0.2*i) + 0.4*x", "(0.7 - 0.3*i)*x",
    "1.1 - 0.6*x", "(-0.2 + 0.9*i) + 0.3*x", "1.0",
)


def _one_point(name):
    """A function and a point (x, z) near a root, where polish runs."""
    if name == "quintic-series":
        f = EntireFunction(series(map(parse_expression, QUINTIC)))
        return f, 0.3, 0.5 + 0.5j
    f, *_ = build(parse_problem({"fixture": name}))
    x0, z0, h = POINTS[name]
    return f, x0 + h, z0


@pytest.mark.parametrize("path", ["at", "kernel"])
@pytest.mark.parametrize("name", ["remark-exp-asymptotic", "quintic-series"])
def test_one_point_pair(benchmark, name, path):
    f, x, z = _one_point(name)
    zs = np.array([z])
    if path == "at":
        fv, dv = benchmark(f.at, x, z)
    else:
        fv, dv = (complex(v[0]) for v in benchmark(f.kernel, x, zs))
    # both paths give the same pair up to numpy's last-bit rounding
    for got, want in zip((fv, dv), f.kernel(x, zs)):
        assert abs(got - want[0]) <= 1e-14 * abs(want[0])


SERIES_NODES = 256


@pytest.mark.parametrize("call", ["kernel-dz", "kernel", "at"])
def test_series_evaluation(benchmark, call):
    f = EntireFunction(series(map(parse_expression, QUINTIC)))
    x = 0.3
    z = 0.5 + 1.2 * np.exp(2j * np.pi * np.arange(SERIES_NODES) / SERIES_NODES)
    if call == "at":
        got = [np.array([v]) for v in benchmark(f.at, x, complex(z[0]))]
        z = z[:1]
    else:
        got = benchmark(f.kernel, x, z, dz=call == "kernel-dz")
    # against Horner's rule on the coefficients at x
    c = [EntireFunction(parse_expression(t)).eval(x, 0j) for t in QUINTIC]
    scale = np.polyval(np.abs(c[::-1]), np.abs(z))
    for v, p in zip(got, (np.poly1d(c[::-1]), np.poly1d(c[::-1]).deriv())):
        assert np.all(np.abs(v - p(z)) <= 1e-14 * len(c) ** 2 * scale)
