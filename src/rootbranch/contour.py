"""Contour-integral zero counting and local monic factors.

Everything here rides on the argument principle: for F analytic and free of
zeros on a circle Gamma, (1/2*pi*i) * integral of z**k * F'/F over Gamma is
the k-th power sum of the zeros enclosed (k = 0 gives the count).  The
trapezoid rule on a circle converges spectrally, so modest node counts give
near machine accuracy once the contour is comfortably clear of zeros.

Power sums are taken about a shift point (usually the circle center) so that
large |z| branches never difference huge quantities: the Newton-identity
coefficients are then for the polynomial in u = z - about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    CofactorVanishesError,
    NoConvergenceError,
    NonIntegerWindingError,
    NoZerosInDiskError,
    ZeroOnContourError,
)
from .expressions import EntireFunction, require_finite

WINDING_SLACK = 0.25  # max distance of a trapezoid winding from its integer


@lru_cache(maxsize=32)
def _unit_nodes(m: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(m) / m)


def _is_pow2(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


class _kept:
    """A value computed from its instance on first use and stored in the
    instance's __dict__, where later reads find it first: a
    functools.cached_property without the lock that one takes on every
    first use before Python 3.12, which costs more here than the value."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Circle:
    """Integration circle with equispaced trapezoid nodes.

    samples must be a power of two (>= 16) so node sets nest under doubling.
    A circle builds its doubling once, on first use, and keeps it: a
    certificate's circle serves every step checked on it.
    """

    center: complex
    radius: float
    samples: int = 128  # M, the node count of every localization circle

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.samples < 16 or not _is_pow2(self.samples):
            raise ValueError(f"samples must be a power of two >= 16, got {self.samples}")

    def nodes(self) -> np.ndarray:
        return self.center + self.radius * _unit_nodes(self.samples)

    def doubled(self) -> "Circle":
        return self._doubled

    @_kept
    def _doubled(self) -> "Circle":
        return Circle(self.center, self.radius, 2 * self.samples)


@dataclass(frozen=True)
class ContourData:
    """F and dF/dz sampled on a circle's nodes.

    The arrays are made read-only: certificates and step checks keep them
    and hand them on instead of sampling the same nodes again.  What the
    checks read off them (|F|, |F'| and their extremes, the winding
    integrand and its mean) is computed on first use and kept, so a level
    that the count, the radius search, the carry and the Rouche check all
    read is reduced once.
    """

    circle: Circle
    z: np.ndarray
    f: np.ndarray
    fz: np.ndarray

    def __post_init__(self):
        for a in (self.z, self.f, self.fz):
            a.flags.writeable = False

    @_kept
    def abs_f(self) -> np.ndarray:
        return np.abs(self.f)

    @_kept
    def min_abs_f(self) -> float:
        return float(np.minimum.reduce(self.abs_f))

    @_kept
    def max_abs_f(self) -> float:
        return float(np.maximum.reduce(self.abs_f))

    @_kept
    def abs_fz(self) -> np.ndarray:
        return np.abs(self.fz)

    @_kept
    def max_abs_fz(self) -> float:
        return float(np.maximum.reduce(self.abs_fz))

    @_kept
    def integrand(self) -> np.ndarray:
        """(z - c) F'/F: dz = i (z - c) dtheta turns the trapezoid rule
        for the zero count into a plain mean of it."""
        return (self.z - self.circle.center) * self.fz / self.f

    @_kept
    def winding(self) -> complex:
        # add.reduce / size is np.mean's own sum and division, bit for bit
        g = self.integrand
        return complex(np.add.reduce(g) / g.size)


def sample_contour(f: EntireFunction, x: float, circle: Circle) -> ContourData:
    """F(x, .) and dF/dz on the circle's nodes from one kernel call; values
    may be non-finite (callers check with require_finite)."""
    z = circle.nodes()
    fv, fz = f.kernel(x, z)
    return ContourData(circle, z, fv, fz)


def sample_nested(
    f: EntireFunction, x: float, circle: Circle
) -> tuple[ContourData, ContourData]:
    """sample_contour on the circle and on its doubling, from one kernel
    call at 2M nodes: the even ones are the circle's own nodes, bit for
    bit, so the M level is every other sample, copied contiguous."""
    fine = sample_contour(f, x, circle.doubled())
    coarse = (np.ascontiguousarray(a[::2]) for a in (fine.z, fine.f, fine.fz))
    return ContourData(circle, *coarse), fine


DENORMAL_FLOOR = 1e-300  # below this, double precision carries no structure
GUARD = 0.5  # derivative guard: |F_j| >= GUARD * |F'_j| * node spacing
FLOOR_REL = 1e-12  # min node |F| relative to max node |F|
M_FLOOR_REL = 1e-13  # min |F/P| inside the disk relative to its max


def check_contour_clear(data: ContourData, margin: float = 1.0) -> None:
    """Raise ZeroOnContourError unless the circle is safely clear of zeros.

    Two guards: a floor FLOOR_REL relative to the sampled scale (a deep dip
    of |F| means a zero sits on or between nodes), and a derivative one
    applied node by node: a zero within half a spacing of node j would
    force |F(z_j)| <= |F'| * spacing there, so any node with
    |F_j| < GUARD * |F'_j| * spacing is suspect.  The derivative is the
    local one because |F| and |F'| can differ by orders of magnitude
    across the circle; the far-side maximum says nothing about a dip here.
    Both checks are scale-relative, so rescaling F changes nothing; only
    the denormal floor is absolute.  margin > 1 demands extra headroom
    (used when selecting a radius to keep, so later checks at 1x do not
    sit on a knife edge).
    """
    minf, maxf = data.min_abs_f, data.max_abs_f
    floor = margin * max(FLOOR_REL * maxf, DENORMAL_FLOOR)
    if minf < floor:
        raise ZeroOnContourError(
            f"min node |F| = {minf:.3e} below floor {floor:.3e}"
        )
    spacing = 2.0 * np.pi * data.circle.radius / data.circle.samples
    scale = margin * GUARD * spacing
    # every node passes when the smallest |F| passes the largest |F'|
    if minf >= scale * data.max_abs_fz:
        return
    bound = scale * data.abs_fz
    slack = data.abs_f - bound
    # the minimum is NaN exactly where argmin names a NaN node: both pass
    if np.minimum.reduce(slack) < 0.0:
        j = int(np.argmin(slack))
        raise ZeroOnContourError(
            f"node |F| = {data.abs_f[j]:.3e} below derivative guard {bound[j]:.3e}"
        )


def _power_sums_from(data: ContourData, n: int, about: complex) -> list[complex]:
    """s_0..s_n from one node set, each the mean of (z - about)**k times
    the winding integrand the count already built; NonIntegerWindingError
    unless s_0 is within 0.5 of the expected count n."""
    g = data.integrand
    u = data.z - about
    s = []
    uk = np.ones_like(u)
    for k in range(n + 1):
        s.append(complex(np.add.reduce(uk * g) / g.size))
        if k < n:
            uk = uk * u
    if abs(s[0] - n) > 0.5:
        raise NonIntegerWindingError(
            f"s_0 = {s[0]:.6f} inconsistent with count {n}"
        )
    return s


@dataclass(frozen=True)
class PowerSums:
    """Power sums s[k] = sum of (zero - about)**k over zeros in the disk."""

    s: tuple[complex, ...]
    about: complex = 0j


@dataclass(frozen=True)
class MonicPoly:
    """Monic polynomial in u = z - about, coefficients descending.

    coeffs[0] is always 1.
    """

    coeffs: tuple[complex, ...]
    about: complex = 0j

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("monic factor must have degree >= 1")
        if self.coeffs[0] != 1:
            raise ValueError("leading coefficient must be 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def count_zeros(f: EntireFunction, x: float, circle: Circle) -> int:
    """Count zeros of z -> F(x, .) inside the circle, multiplicity included.

    The trapezoid windings on the circle's M nodes and on its doubling's
    2M nodes, from one sample_nested call, must land within WINDING_SLACK
    of the same integer; otherwise NonIntegerWindingError (the circle
    passes too close to a zero for the count to be read).
    ZeroOnContourError fires when either node set comes too close to a
    zero.
    """
    return _count_zeros_data(x, *sample_nested(f, x, circle))


def _count_zeros_data(x: float, coarse: ContourData, fine: ContourData) -> int:
    """The zero count that F sampled at x on a circle's M nodes (coarse)
    and on its doubling's 2M nodes (fine) settles on; see count_zeros."""
    for data in (coarse, fine):
        # finite extremes of |F| and |F'| clear every node at once
        if not (math.isfinite(data.max_abs_f) and math.isfinite(data.max_abs_fz)):
            require_finite(x, data.z, data.f, data.fz)
        check_contour_clear(data)
    n = int(round(fine.winding.real))
    if abs(coarse.winding - n) > WINDING_SLACK or abs(fine.winding - n) > WINDING_SLACK:
        raise NonIntegerWindingError(
            "winding did not settle: estimates at M and 2M nodes "
            f"{coarse.winding:.6f}, {fine.winding:.6f}"
        )
    if n < 0:
        raise NonIntegerWindingError(f"winding settled on negative count {n}")
    return n


def power_sums(
    f: EntireFunction,
    x: float,
    circle: Circle,
    n: int,
    about: complex = 0j,
) -> PowerSums:
    """Power sums s_0..s_n of the enclosed zeros about the given shift."""
    data = sample_contour(f, x, circle)
    require_finite(x, data.z, data.f, data.fz)
    check_contour_clear(data)
    return PowerSums(tuple(_power_sums_from(data, n, about)), about=about)


def newton_to_coeffs(ps: PowerSums) -> MonicPoly:
    """Newton's identities: power sums -> monic coefficients.

    For P(u) = u**n + a_1 u**(n-1) + ... + a_n with power sums s_k,
    a_k = -(s_k + a_1 s_{k-1} + ... + a_{k-1} s_1) / k.
    """
    s = ps.s
    n = int(round(s[0].real))
    if abs(s[0] - n) > 0.5:
        raise NonIntegerWindingError(f"s_0 = {s[0]:.6f} is not close to an integer")
    if n < 1:
        raise NoZerosInDiskError("no zeros enclosed, no monic factor")
    if len(s) < n + 1:
        raise ValueError(f"need power sums up to k={n}, got {len(s) - 1}")
    s = [complex(v) for v in s[: n + 1]]
    a = [1 + 0j]
    for k in range(1, n + 1):
        acc = s[k]
        for i in range(1, k):
            acc += a[i] * s[k - i]
        # -acc / k as numpy divides a complex scalar: times 1 / k, after
        # its ratio 0 / k has met both parts
        re, im, q = -acc.real, -acc.imag, 1.0 / k
        a.append(complex((re + im * 0.0) * q, (im - re * 0.0) * q))
    return MonicPoly(tuple(a), about=ps.about)


POLY_POLISH_ROUNDS = 6  # poly_roots: Newton rounds per companion-matrix root


def poly_roots(p: MonicPoly, tol: float = 1e-8) -> np.ndarray:
    """All roots of a monic polynomial, in the z plane, sorted by (re, im).

    Degrees 1 and 2 use closed forms; higher degrees use the companion
    matrix (numpy.roots) followed by at most POLY_POLISH_ROUNDS Newton
    steps per root.  Every returned root satisfies
    |P(root)| <= tol * (1 + max |coeff|) ** degree, else NoConvergenceError.
    """
    c = np.asarray(p.coeffs, dtype=np.complex128)
    deg = p.degree
    if deg == 1:
        u = np.array([-c[1]])
    elif deg == 2:
        u = _quadratic(c[1], c[2])
    else:
        u = np.roots(c)
        dc = np.polyder(c)
        for i in range(len(u)):
            u[i] = _polish_poly_root(c, dc, u[i])
    order = np.lexsort((u.imag, u.real))
    u = u[order]
    bound = tol * (1.0 + float(np.abs(c).max())) ** deg
    res = float(np.abs(np.polyval(c, u)).max())
    if res > bound:
        raise NoConvergenceError(
            f"root residual {res:.3e} exceeds contract {bound:.3e}"
        )
    return u + p.about


def _quadratic(b: complex, c: complex) -> np.ndarray:
    disc = b * b - 4.0 * c
    sq = np.sqrt(complex(disc))
    if abs(b - sq) > abs(b + sq):
        sq = -sq
    q = -(b + sq) / 2.0
    if q == 0:
        return np.array([0j, -b])
    return np.array([q, c / q])


def _polish_poly_root(c, dc, u):
    best, best_r = u, abs(np.polyval(c, u))
    for _ in range(POLY_POLISH_ROUNDS):
        if best_r == 0.0:
            break
        d = np.polyval(dc, u)
        if d == 0 or not np.isfinite(abs(d)):
            break
        u = u - np.polyval(c, u) / d
        r = abs(np.polyval(c, u))
        if r < best_r:
            best, best_r = u, r
        else:
            break
    return best


def local_factor_data(
    f: EntireFunction,
    x: float,
    circle: Circle,
    levels: Sequence[ContourData] = (),
) -> tuple[MonicPoly, tuple[ContourData, ContourData]]:
    """The monic factor of the enclosed zeros, plus the samples used.

    Composition count_zeros -> power_sums -> newton_to_coeffs, with the sums
    taken about the circle center.  The count reads exactly two levels, F
    and F' on the circle's M nodes and on its doubling's 2M nodes, and
    those are returned for callers that also need |F| there.  ``levels``
    are that pair already taken at this x (validate_step's samples);
    without them the pair comes from one sample_nested call.

    Raises NoZerosInDiskError when the disk holds no zeros.
    """
    coarse, fine = levels or sample_nested(f, x, circle)
    n = _count_zeros_data(x, coarse, fine)
    if n == 0:
        raise NoZerosInDiskError(f"no zeros of F({x}, .) inside {circle}")
    about = circle.center
    s = _power_sums_from(coarse, n, about)
    return newton_to_coeffs(PowerSums(tuple(s), about=about)), (coarse, fine)


def local_monic_factor(
    f: EntireFunction,
    x: float,
    circle: Circle,
    levels: Sequence[ContourData] = (),
) -> MonicPoly:
    """Monic polynomial carrying exactly the zeros of F(x, .) in the disk.

    local_factor_data followed by check_cofactor, so F/P is also certified
    free of zeros inside the disk.  ``levels`` are passed on to
    local_factor_data.

    Raises NoZerosInDiskError when the disk holds no zeros.
    """
    poly, _ = local_factor_data(f, x, circle, levels=levels)
    check_cofactor(f, x, circle, poly)
    return poly


def check_cofactor(
    f: EntireFunction, x: float, circle: Circle, poly: MonicPoly
) -> None:
    """Raise CofactorVanishesError unless F/P stays clear of zero in the disk.

    F/P is probed on two interior circles (radii r/3 and 2r/3) and must stay
    above M_FLOOR_REL * max |F/P| there.  Points where P underflows carry
    no information.
    """
    unit = _unit_nodes(circle.samples)
    zs = np.concatenate(
        [
            circle.center + (circle.radius / 3.0) * unit,
            circle.center + (2.0 * circle.radius / 3.0) * unit,
        ]
    )
    gmin, gmax = _cofactor_range(f.eval_many(x, zs), poly, zs)
    floor = max(M_FLOOR_REL * gmax, DENORMAL_FLOOR)
    if gmin <= floor:
        raise CofactorVanishesError(
            f"min |F/P| = {gmin:.3e} at probe points, floor {floor:.3e}"
        )


def _cofactor_range(
    fv: np.ndarray, poly: MonicPoly, zs: np.ndarray
) -> tuple[float, float]:
    """min and max of |F/P| over the points zs where F/P is finite; fv is
    F there.  CofactorVanishesError where it is finite nowhere."""
    with np.errstate(all="ignore"):
        g = fv / _horner(poly.coeffs, zs - poly.about)
    ok = np.isfinite(g)
    if ok.all():
        ga = np.abs(g)
    elif ok.any():
        ga = np.abs(g[ok])
    else:
        raise CofactorVanishesError("cofactor undefined at every probe point")
    return float(np.minimum.reduce(ga)), float(np.maximum.reduce(ga))


def _horner(coeffs: Sequence[complex], u: np.ndarray) -> np.ndarray:
    """np.polyval(coeffs, u) for a monic coeffs without its set-up: the
    same products and sums in the same order, so the same bits wherever u
    is finite, and a NaN part wherever u is not (polyval's value is NaN
    there; either way F/P is NaN, and the cofactor probe skips the point).

    polyval starts from zeros and takes y * u + c per coefficient.  With a
    leading 1 + 0j its first step, 0 * u + 1, is exactly 1 + 0j where u is
    finite, so the first two steps are one product with 1 + 0j and one
    sum.  A leading 1 - 0j can leave a -0 in that first step, and goes
    through polyval.
    """
    if math.copysign(1.0, complex(coeffs[0]).imag) < 0.0:
        return np.polyval(np.asarray(coeffs), u)
    y = u * (1 + 0j) + coeffs[1]
    for c in coeffs[2:]:
        y = y * u + c
    return y
