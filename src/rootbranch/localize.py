"""Certified local factorizations and parameter-step validation.

A LocalFactorization is the working certificate of the continuation: a
circle Gamma about the tracked root on which |F(x0, .)| >= m > 0, the zero
count n inside, and the monic factor P carrying exactly those zeros.  A
parameter step x0 -> x1 keeps the count (and hence the tracked root inside
Gamma) whenever max over Gamma of |F(x1, z) - F(x0, z)| < m: that is
Rouche's theorem applied to the pair (F(x0, .), F(x1, .)).

The step a circle certifies grows with its Rouche ratio
min |F(x0)| / max |F(x1) - F(x0)|, which peaks at an interior radius:
ladder_radius compares a short ladder of radii at an accepted step, and
the engine starts the next select_radius calls from the winner.

An accepted step already holds F(x1) on the circle and the factor at x1:
carry_certificate keeps the circle as the next certificate when it passes
select_radius's own tests there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .contour import (
    Circle,
    ContourData,
    MonicPoly,
    check_contour_clear,
    check_cofactor,
    local_factor_data,
    sample_nested,
)
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

RADIUS_HALVINGS = 40  # select_radius: halvings of the start radius before giving up
CENTER_FRAC = 0.1  # the factor's roots must lie within CENTER_FRAC * r of the center
CLEAR_MARGIN = 2.0  # check_contour_clear's margin on an admitted certificate
SAFETY = 0.5  # validate_step accepts max |F(x1) - F(x0)| <= SAFETY * m
MARGIN_BAND = 2.0  # excess above 1 / MARGIN_BAND is rechecked at 2M nodes


@dataclass(frozen=True, eq=False)
class LocalFactorization:
    """Zero-free circle, enclosed count, and local monic factor at x0.

    Fields
    ------
    x0 : parameter coordinate the certificate was built at
    poly : MonicPoly about the circle center with the enclosed zeros; at a
        fresh localization P is (z - z0)**n to quadrature accuracy.
    circle : the contour itself
    levels : F(x0, .) and F' on the circle's M nodes, then on its 2M
        nodes: the two levels the count read.  validate_step compares F(x1)
        with them level by level, against each level's own min |F(x0)|.
        Both passed check_contour_clear at CLEAR_MARGIN, so min |F| > 0.

    z0, r, m and n are read from those: the circle's center (the tracked
    root) and radius, levels[0]'s min |F(x0)|, and poly's degree (the
    zero count, multiplicity included).
    """

    x0: float
    poly: MonicPoly
    circle: Circle
    levels: tuple[ContourData, ContourData]

    @property
    def z0(self) -> complex:
        return self.circle.center

    @property
    def r(self) -> float:
        return self.circle.radius

    @property
    def m(self) -> float:
        return self.levels[0].min_abs_f

    @property
    def n(self) -> int:
        return self.poly.degree


@dataclass(frozen=True)
class StepValidation:
    """Outcome of a Rouche step check.

    excess is max |F(x1) - F(x0)| over the contour nodes divided by
    SAFETY * m; values <= 1 are accepted.  resolution records the node
    count of the deciding comparison (doubled when the margin was thin).
    samples (on acceptance) are F and F' at x1 on the M nodes and then on
    the 2M nodes, both levels whichever of them decided: the factor at x1
    takes them as its levels.
    """

    accepted: bool
    excess: float
    resolution: int
    samples: tuple[ContourData, ...] = ()


def select_radius(
    f: EntireFunction,
    x0: float,
    z0: complex,
    r_max: float,
) -> LocalFactorization:
    """Find a certified circle about z0 by halving from r_max.

    r_max is the start radius the caller gives (the engine passes a
    fraction of its cap, set by ladder_radius), not a fixed cap: the
    first k with an admissible r_max * 2**-k wins, after k + 1 tries.
    A radius is accepted when the contour is clear of zeros with a stable
    integer count n >= 1, the factor's roots hug the center (within
    CENTER_FRAC * r, by the Cauchy bound 2 * max |a_k|**(1/k)), and the
    cofactor F/P stays bounded away from zero inside.  After RADIUS_HALVINGS failures the
    point is probed for degeneracy: DegenerateAtPointError if
    z -> F(x0, z) is constant, else NoRadiusFoundError.

    CLEAR_MARGIN > 1 makes the zero-on-contour checks stricter here than
    at step time, so a kept certificate never sits on the exact threshold
    that nearby parameter values are tested against.
    """
    if not (np.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    z0 = complex(z0)
    r = float(r_max)
    for _ in range(RADIUS_HALVINGS + 1):
        loc = _try_radius(f, x0, z0, r)
        if loc is not None:
            return loc
        r *= 0.5
    pr = degeneracy_probe(f, x0)
    if pr.degenerate:
        err = DegenerateAtPointError(f"z -> F({x0}, z) is constant ({pr.constant})")
        err.constant = pr.constant
        raise err
    raise NoRadiusFoundError(
        f"no admissible radius in [{r_max * 0.5 ** RADIUS_HALVINGS:.3e}, {r_max:.3e}] at x={x0}"
    )


def _try_radius(f, x0, z0, r):
    try:
        circle = Circle(z0, r)
        poly, levels = local_factor_data(f, x0, circle)
    except (
        ZeroOnContourError,
        NonIntegerWindingError,
        NoZerosInDiskError,
        NonFiniteError,
        ValueError,
    ):
        return None
    loc = _admit(x0, poly, circle, levels)
    if loc is None:
        return None
    try:
        check_cofactor(f, x0, circle, poly)
    except (CofactorVanishesError, NonFiniteError):
        return None
    return loc


def _admit(x0, poly, circle, levels) -> Optional[LocalFactorization]:
    """The certificate (x0, poly, circle, levels) if it passes the radius
    search's tests past the count and before the cofactor probe, else
    None: poly's roots lie within CENTER_FRAC * r of the center, and both
    levels are clear of zeros at CLEAR_MARGIN."""
    if not _hugs_center(poly, circle.radius):
        return None
    try:
        for level in levels:
            check_contour_clear(level, CLEAR_MARGIN)
    except ZeroOnContourError:
        return None
    return LocalFactorization(float(x0), poly, circle, levels)


def carry_certificate(
    loc: LocalFactorization,
    x1: float,
    poly: MonicPoly,
    samples: tuple[ContourData, ContourData],
) -> Optional[LocalFactorization]:
    """loc's circle as the certificate at x1, or None where select_radius
    would not admit it there.

    samples are validate_step's F(x1) on loc.circle's M and 2M nodes, and
    poly the factor local_monic_factor found from them, its count read
    from exactly these two levels and its cofactor probe passed; the rest
    of the radius search is _admit.  So what passes equals
    _try_radius(f, x1, loc.z0, loc.r) bit for bit, without a kernel call.
    """
    return _admit(x1, poly, loc.circle, samples)


def _hugs_center(poly: MonicPoly, r: float) -> bool:
    """Every root of poly lies within CENTER_FRAC * r of its center, by the
    Cauchy bound 2 * max |a_k|**(1/k)."""
    bound = 2.0 * max(
        abs(poly.coeffs[k]) ** (1.0 / k) for k in range(1, poly.degree + 1)
    )
    return bound <= CENTER_FRAC * r


def validate_step(
    f: EntireFunction, loc: LocalFactorization, x1: float
) -> StepValidation:
    """Check the Rouche condition for moving the parameter from loc.x0 to x1.

    Accepted iff max node |F(x1, z) - F(x0, z)| <= SAFETY * m on the
    certificate circle.  F(x1) is sampled once, at 2M nodes
    (sample_nested), and compared on the M nodes first.  When the margin
    lands within a factor MARGIN_BAND of the threshold on the accept side,
    the comparison is made again on all 2M nodes, against the
    certificate's F(x0) there and that level's own min |F(x0)| (node sets
    nest, so refinement can only tighten).  The threshold is positive at
    both levels: every LocalFactorization passed select_radius's contour
    checks, which demand min |F| > 0 on each.  A non-finite F(x1) on the
    compared nodes rejects the step; F'(x1) is sampled along, unchecked,
    for the factor at x1.
    """
    taken = sample_nested(f, x1, loc.circle)
    for k, (level, d) in enumerate(zip(loc.levels, taken)):
        resolution = level.circle.samples
        if not np.isfinite(d.f).all():
            return StepValidation(False, float("inf"), resolution)
        diff = float(np.maximum.reduce(np.abs(d.f - level.f)))
        excess = diff / (SAFETY * level.min_abs_f)
        if excess > 1.0:
            return StepValidation(False, excess, resolution)
        # a thin margin on the M nodes is decided again at 2M
        if excess < 1.0 / MARGIN_BAND or k == len(loc.levels) - 1:
            return StepValidation(True, excess, resolution, taken)


def ladder_radius(
    f: EntireFunction, loc: LocalFactorization, x1: float, f1: np.ndarray
) -> float:
    """The radius among loc.r / 2, loc.r and 2 * loc.r that certifies the
    step loc.x0 -> x1 with the most headroom.

    Each rung is a circle about loc.z0 with loc.circle.samples nodes,
    scored by its Rouche ratio min |F(x0)| / max |F(x1) - F(x0)|: the step
    a circle certifies scales with it.  The loc.r rung reuses loc.levels[0]
    and f1, F(x1) on loc.circle's nodes; the other two cost one F-only
    kernel call each at x0 and at x1.  A rung with a non-finite sample
    drops out, and loc.r stays unless another rung beats it strictly.
    """
    best_r, best = loc.r, _rouche_ratio(loc.levels[0].f, f1)
    for r in (0.5 * loc.r, 2.0 * loc.r):
        z = Circle(loc.z0, r, loc.circle.samples).nodes()
        (g0,) = f.kernel(loc.x0, z, dz=False)
        (g1,) = f.kernel(x1, z, dz=False)
        ratio = _rouche_ratio(g0, g1)
        if ratio > best:
            best_r, best = r, ratio
    return best_r


def _rouche_ratio(g0: np.ndarray, g1: np.ndarray) -> float:
    """min |g0| / max |g1 - g0|; -inf (never chosen) unless every sample is
    finite and the ratio is defined."""
    if not (np.isfinite(g0).all() and np.isfinite(g1).all()):
        return -np.inf
    m = float(np.abs(g0).min())
    d = float(np.abs(g1 - g0).max())
    if d == 0.0:
        return np.inf if m > 0.0 else -np.inf
    return m / d
