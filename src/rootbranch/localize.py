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

A certificate is one record, made one way: the CircleSample of F(x0, .)
on its circle and the factor local_monic_factor reads from it, kept when
admits passes it.  The radius search makes each try so, and an accepted
step's check samples F(x1) on the same circle, so the step's certificate
at x1 is that sample with local_monic_factor's factor at x1; the engine
asks admits whether it stands as the next certificate.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

# sample_contour is called as contour.sample_contour, so that a wrapper put
# on the module's binding (perfbench/tracer.py) sees every circle sampled
from . import contour
from .contour import (
    Circle,
    CircleSample,
    MonicPoly,
    check_contour_clear,
    local_monic_factor,
)
from .errors import (
    CertificateError,
    NonFiniteError,
    NoRadiusFoundError,
    ZeroOnContourError,
)
# degeneracy_probe is not called here: perfbench/tracer.py wraps this binding
from .expressions import EntireFunction, degeneracy_probe  # noqa: F401

RADIUS_HALVINGS = 40  # select_radius: halvings of the start radius before giving up
CENTER_FRAC = 0.1  # the factor's roots must lie within CENTER_FRAC * r of the center
CLEAR_MARGIN = 2.0  # check_contour_clear's margin on an admitted certificate
SAFETY = 0.5  # validate_step accepts max |F(x1) - F(x0)| <= SAFETY * m


class _FactorizationFields(NamedTuple):
    x0: float
    poly: MonicPoly
    sample: CircleSample


class LocalFactorization(_FactorizationFields):
    """Zero-free circle, enclosed count, and local monic factor at x0.

    Fields
    ------
    x0 : parameter coordinate the certificate was built at
    poly : MonicPoly about the circle center with the enclosed zeros; at a
        fresh localization P is (z - z0)**n to quadrature accuracy.
    sample : the CircleSample of F(x0, .) that poly was read from: F and F'
        on the circle's M nodes (coarse), where the count and the factor
        read them and ladder_radius compares, and on its 2M nodes (fine),
        which validate_step compares F(x1) with, against their own
        min |F(x0)|.  Both levels belong to the one circle.  A certificate
        that admits passes both levels clear at CLEAR_MARGIN, so
        min |F| > 0 on each.

    circle, z0, r and n are read from those: the sample's circle, its
    center (the tracked root) and radius, and poly's degree (the zero
    count, multiplicity included).

    A named tuple that, unlike one, equals only itself and hashes by
    identity: two certificates are never compared by their arrays.
    """

    __slots__ = ()
    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    @property
    def circle(self) -> Circle:
        return self.sample.circle

    @property
    def z0(self) -> complex:
        return self.circle.center

    @property
    def r(self) -> float:
        return self.circle.radius

    @property
    def n(self) -> int:
        return self.poly.degree


class StepValidation(NamedTuple):
    """Outcome of a Rouche step check.

    excess is max |F(x1) - F(x0)| over the 2M contour nodes divided by
    SAFETY times min |F(x0)| there; values <= 1 are accepted.  resolution
    is the node count compared, 2M.  sample (on acceptance) is the
    check's one CircleSample of F(x1) on the certificate circle: the
    factor at x1 reads it in place of sampling again.
    """

    accepted: bool
    excess: float
    resolution: int
    sample: Optional[CircleSample] = None


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
    CENTER_FRAC * r: exactly for a simple root, whose distance is |a_1|,
    by the Cauchy bound 2 * max |a_k|**(1/k) otherwise), and the
    cofactor F/P stays bounded away from zero inside.  After
    RADIUS_HALVINGS halvings it raises NoRadiusFoundError; whether
    z -> F(x0, z) is constant there is the caller's question (the engine
    asks it where the frontier stalls).

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
    raise NoRadiusFoundError(
        f"no admissible radius in [{r_max * 0.5 ** RADIUS_HALVINGS:.3e}, {r_max:.3e}] at x={x0}"
    )


def _try_radius(f, x0, z0, r):
    """The certificate select_radius admits at radius r, or None: the
    circle sampled once (sample_contour), the factor made from that sample
    by local_monic_factor, as an accepted step makes it, and the
    certificate kept if admits passes it.  The ValueError is Circle's, at
    a radius that underflowed to 0."""
    try:
        sample = contour.sample_contour(f, x0, Circle(z0, r))
        poly = local_monic_factor(x0, sample)
    except (CertificateError, NonFiniteError, ValueError):
        return None
    loc = LocalFactorization(float(x0), poly, sample)
    return loc if admits(loc) else None


def admits(loc: LocalFactorization) -> bool:
    """Whether loc passes the radius search's tests past the factor: its
    factor's roots lie within CENTER_FRAC * r of the center, and both node
    levels of its sample are clear of zeros at CLEAR_MARGIN.

    The radius search asks it of each circle whose factor
    local_monic_factor made, and the engine of an accepted step's
    certificate at x1, whose factor the step made the same way on that
    sample; so a certificate at x1 that admits equals
    _try_radius(f, x1, loc.z0, loc.r) bit for bit, without a kernel call.
    """
    if not _hugs_center(loc.poly, loc.r):
        return False
    try:
        for level in (loc.sample.coarse, loc.sample.fine):
            check_contour_clear(level, CLEAR_MARGIN)
    except ZeroOnContourError:
        return False
    return True


def _hugs_center(poly: MonicPoly, r: float) -> bool:
    """Every root of poly lies within CENTER_FRAC * r of its center: for a
    simple root (u + a_1) exactly, by its distance |a_1|; for degree >= 2
    by the Cauchy bound 2 * max |a_k|**(1/k)."""
    if poly.degree == 1:
        return abs(poly.coeffs[1]) <= CENTER_FRAC * r
    bound = 2.0 * max(
        abs(poly.coeffs[k]) ** (1.0 / k) for k in range(1, poly.degree + 1)
    )
    return bound <= CENTER_FRAC * r


def validate_step(
    f: EntireFunction, loc: LocalFactorization, x1: float
) -> StepValidation:
    """Check the Rouche condition for moving the parameter from loc.x0 to x1.

    Accepted iff max node |F(x1, z) - F(x0, z)| <= SAFETY * m2 on the
    certificate circle's 2M nodes, where m2 is min |F(x0)| on those nodes
    (loc.sample.fine).  F(x1) is sampled once, at 2M nodes, and compared
    once.  The 2M nodes contain the M nodes, so no step passes that a
    comparison on the M nodes alone would reject.  The threshold is
    positive: the engine checks steps only from certificates that admit,
    which demands min |F| > 0 on each level.  A non-finite F(x1)
    on the nodes rejects the step.  The rest of the one sample_contour
    call (F'(x1) on the nodes, F(x1) on the probe rings) is unchecked, for
    the factor at x1 and its cofactor probe.
    """
    taken = contour.sample_contour(f, x1, loc.circle)
    fine, f1 = loc.sample.fine, taken.fine.f
    resolution = fine.z.size
    if not np.isfinite(f1).all():
        return StepValidation(False, float("inf"), resolution)
    diff = float(np.maximum.reduce(np.abs(f1 - fine.f)))
    excess = diff / (SAFETY * fine.min_abs_f)
    if excess > 1.0:
        return StepValidation(False, excess, resolution)
    return StepValidation(True, excess, resolution, taken)


def ladder_radius(
    f: EntireFunction, loc: LocalFactorization, x1: float, f1: np.ndarray
) -> float:
    """The radius among loc.r / 2, loc.r and 2 * loc.r that certifies the
    step loc.x0 -> x1 with the most headroom.

    Each rung is a circle about loc.z0 with loc.circle.samples nodes,
    scored by its Rouche ratio min |F(x0)| / max |F(x1) - F(x0)|: the step
    a circle certifies scales with it.  The loc.r rung reuses
    loc.sample.coarse and f1, F(x1) on loc.circle's nodes; the other two
    rungs' nodes are evaluated together, in one F-only kernel call at x0
    and one at x1.  A rung with a non-finite sample drops out, and loc.r
    stays unless another rung beats it strictly.
    """
    best_r, best = loc.r, _rouche_ratio(loc.sample.coarse.f, f1)
    rungs = (0.5 * loc.r, 2.0 * loc.r)
    z = np.concatenate([Circle(loc.z0, r, loc.circle.samples).nodes() for r in rungs])
    (g0,) = f.kernel(loc.x0, z, dz=False)
    (g1,) = f.kernel(x1, z, dz=False)
    for r, a, b in zip(rungs, g0.reshape(2, -1), g1.reshape(2, -1)):
        ratio = _rouche_ratio(a, b)
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
