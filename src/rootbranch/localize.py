"""Certified local factorizations and parameter-step validation.

A LocalFactorization is the working certificate of the continuation: a
circle Gamma about the tracked root on which |F(x0, .)| >= m > 0, the zero
count n inside, and the monic factor P carrying exactly those zeros.  A
parameter step x0 -> x1 keeps the count (and hence the tracked root inside
Gamma) whenever max over Gamma of |F(x1, z) - F(x0, z)| < m: that is
Rouche's theorem applied to the pair (F(x0, .), F(x1, .)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import Circle, MonicPoly, check_cofactor, local_factor_data
from .errors import (
    CofactorVanishesError,
    DegenerateAtPointError,
    NonFiniteError,
    NonIntegerWindingError,
    NoRadiusFoundError,
    NoZerosInDiskError,
    ZeroOnContourError,
)
from .expressions import EntireFunction, degeneracy_probe


@dataclass(frozen=True, eq=False)
class LocalFactorization:
    """Zero-free circle, enclosed count, and local monic factor at x0.

    Fields
    ------
    x0 : parameter coordinate the certificate was built at
    z0 : circle center (the tracked root)
    r  : circle radius
    m  : min node |F(x0, z)| on the circle (> 0)
    n  : zero count inside, multiplicity included
    poly : MonicPoly about z0 with the enclosed zeros; at a fresh
        localization its non-leading coefficients are numerically tiny,
        i.e. P is (z - z0)**n to quadrature accuracy.
    circle : the contour itself (center z0, radius r)
    f_nodes : cached F(x0, .) on the circle nodes, reused by validate_step
    """

    x0: float
    z0: complex
    r: float
    m: float
    n: int
    poly: MonicPoly
    circle: Circle
    f_nodes: np.ndarray


@dataclass(frozen=True)
class StepValidation:
    """Outcome of a Rouche step check.

    excess is max |F(x1) - F(x0)| over the contour nodes divided by
    safety * m; values <= 1 are accepted.  resolution records the node
    count of the deciding comparison (doubled when the margin was thin).
    """

    accepted: bool
    excess: float
    resolution: int


def select_radius(
    f: EntireFunction,
    x0: float,
    z0: complex,
    r_max: float,
    samples: int = 128,
    halvings: int = 40,
    center_frac: float = 0.1,
    m_floor_rel: float = 1e-13,
    guard: float = 0.5,
    floor_rel: float = 1e-12,
    probe_radii=(1.0, 10.0),
    probe_samples: int = 64,
    probe_tol: float = 1e-10,
    clear_margin: float = 2.0,
) -> LocalFactorization:
    """Find a certified circle about z0 by halving from r_max.

    A radius is accepted when the contour is clear of zeros with a stable
    integer count n >= 1, min node |F| clears the relative floor, the
    factor's roots hug the center (within center_frac * r, by the Cauchy
    bound 2 * max |a_k|**(1/k)), and the cofactor F/P stays bounded away
    from zero inside.  After ``halvings`` failures the point is probed for
    degeneracy: DegenerateAtPointError if z -> F(x0, z) is constant, else
    NoRadiusFoundError.

    clear_margin > 1 makes the zero-on-contour checks stricter here than
    at step time, so a kept certificate never sits on the exact threshold
    that nearby parameter values are tested against.
    """
    if not (np.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    z0 = complex(z0)
    r = float(r_max)
    for _ in range(halvings + 1):
        loc = _try_radius(
            f, x0, z0, r, samples, center_frac, m_floor_rel, guard, floor_rel,
            clear_margin,
        )
        if loc is not None:
            return loc
        r *= 0.5
    pr = degeneracy_probe(f, x0, probe_radii, probe_samples, probe_tol)
    if pr.degenerate:
        err = DegenerateAtPointError(f"z -> F({x0}, z) is constant ({pr.constant})")
        err.constant = pr.constant
        raise err
    raise NoRadiusFoundError(
        f"no admissible radius in [{r_max * 0.5 ** halvings:.3e}, {r_max:.3e}] at x={x0}"
    )


def _try_radius(f, x0, z0, r, samples, center_frac, m_floor_rel, guard, floor_rel, margin):
    try:
        circle = Circle(z0, r, samples)
        poly, data = local_factor_data(f, x0, circle, z0, guard, floor_rel, margin)
    except (
        ZeroOnContourError,
        NonIntegerWindingError,
        NoZerosInDiskError,
        NonFiniteError,
        ValueError,
    ):
        return None
    absf = np.abs(data.f)
    m = float(absf.min())
    maxf = float(absf.max())
    if m < max(m_floor_rel * maxf, 1e-300):
        return None
    # containment: every root of the factor must hug the center
    bound = 2.0 * max(
        abs(poly.coeffs[k]) ** (1.0 / k) for k in range(1, poly.degree + 1)
    )
    if bound > center_frac * r:
        return None
    try:
        check_cofactor(f, x0, circle, poly, m_floor_rel)
    except (CofactorVanishesError, NonFiniteError):
        return None
    return LocalFactorization(
        x0=float(x0),
        z0=z0,
        r=r,
        m=m,
        n=poly.degree,
        poly=poly,
        circle=circle,
        f_nodes=data.f,
    )


def validate_step(
    f: EntireFunction,
    loc: LocalFactorization,
    x1: float,
    safety: float = 0.5,
    margin_band: float = 2.0,
) -> StepValidation:
    """Check the Rouche condition for moving the parameter from loc.x0 to x1.

    Accepted iff max node |F(x1, z) - F(x0, z)| <= safety * m on the
    certificate circle.  When the margin lands within ``margin_band`` of
    the threshold on the accept side, both functions are resampled at twice
    the node count and the refined comparison decides (node sets nest, so
    refinement can only tighten).
    """
    try:
        f1 = f.eval_many(x1, loc.circle.nodes())
    except NonFiniteError:
        return StepValidation(False, float("inf"), loc.circle.samples)
    diff = float(np.abs(f1 - loc.f_nodes).max())
    thr = safety * loc.m
    if thr <= 0:
        return StepValidation(False, float("inf"), loc.circle.samples)
    excess = diff / thr
    if excess > 1.0:
        return StepValidation(False, excess, loc.circle.samples)
    if excess < 1.0 / margin_band:
        return StepValidation(True, excess, loc.circle.samples)
    # thin margin: double the nodes and re-decide
    dbl = loc.circle.doubled()
    try:
        f0d = f.eval_many(loc.x0, dbl.nodes())
        f1d = f.eval_many(x1, dbl.nodes())
    except NonFiniteError:
        return StepValidation(False, float("inf"), dbl.samples)
    m2 = float(np.abs(f0d).min())
    thr2 = safety * m2
    if thr2 <= 0:
        return StepValidation(False, float("inf"), dbl.samples)
    excess2 = float(np.abs(f1d - f0d).max()) / thr2
    return StepValidation(excess2 <= 1.0, excess2, dbl.samples)
