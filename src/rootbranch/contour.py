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

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

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


@dataclass(frozen=True)
class Circle:
    """Integration circle with equispaced trapezoid nodes.

    samples must be a power of two (>= 16) so node sets nest under doubling.
    """

    center: complex
    radius: float
    samples: int = 128  # M, the node count of every localization circle

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.samples < 16 or not _is_pow2(self.samples):
            raise ValueError(f"samples must be a power of two >= 16, got {self.samples}")

    def nodes(self) -> np.ndarray:
        return self.center + self.radius * _unit_nodes(self.samples)

    def doubled(self) -> "Circle":
        return Circle(self.center, self.radius, 2 * self.samples)


@dataclass(frozen=True)
class ContourData:
    """F and dF/dz sampled on a circle's nodes.

    The arrays are made read-only: certificates and step checks keep them
    and hand them on instead of sampling the same nodes again.
    """

    circle: Circle
    z: np.ndarray
    f: np.ndarray
    fz: np.ndarray

    def __post_init__(self):
        for a in (self.z, self.f, self.fz):
            a.flags.writeable = False


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
    absf = np.abs(data.f)
    minf = float(absf.min())
    maxf = float(absf.max())
    floor = margin * max(FLOOR_REL * maxf, DENORMAL_FLOOR)
    if minf < floor:
        raise ZeroOnContourError(
            f"min node |F| = {minf:.3e} below floor {floor:.3e}"
        )
    spacing = 2.0 * np.pi * data.circle.radius / data.circle.samples
    bound = (margin * GUARD * spacing) * np.abs(data.fz)
    slack = absf - bound
    j = int(np.argmin(slack))
    if slack[j] < 0.0:
        raise ZeroOnContourError(
            f"node |F| = {absf[j]:.3e} below derivative guard {bound[j]:.3e}"
        )


def _winding(data: ContourData) -> complex:
    # dz = i (z - c) dtheta turns the trapezoid rule into a plain mean
    return complex(np.mean((data.z - data.circle.center) * data.fz / data.f))


def _power_sums_from(data: ContourData, n: int, about: complex) -> np.ndarray:
    """s_0..s_n from one node set; NonIntegerWindingError unless s_0 is
    within 0.5 of the expected count n."""
    g = (data.z - data.circle.center) * data.fz / data.f
    u = data.z - about
    s = np.empty(n + 1, dtype=np.complex128)
    uk = np.ones_like(u)
    for k in range(n + 1):
        s[k] = np.mean(uk * g)
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

    coeffs[0] is always 1.  eval() takes z-plane arguments.
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

    def eval(self, z) -> np.ndarray:
        return np.polyval(np.asarray(self.coeffs), np.asarray(z) - self.about)


def count_zeros(f: EntireFunction, x: float, circle: Circle) -> int:
    """Count zeros of z -> F(x, z) inside the circle, multiplicity included.

    The trapezoid winding is accepted only when two consecutive node counts
    (M and 2M, else 2M and 4M) land within 0.25 of the same integer;
    otherwise NonIntegerWindingError.  ZeroOnContourError fires when either
    node set comes too close to a zero.
    """
    return _count_zeros_data(f, x, circle)[0]


def _count_zeros_data(
    f: EntireFunction,
    x: float,
    circle: Circle,
    margin: float = 1.0,
    levels: Sequence[ContourData] = (),
) -> tuple[int, tuple[ContourData, ...]]:
    """count_zeros plus the samples it used (M nodes, 2M, maybe 4M), for
    reuse downstream.  ``levels`` are samples already taken at this x on
    the circle and then its doublings, in that order: level k is used as
    the 2**k * M node set, and only the levels past its end are sampled.
    Without levels the M and 2M levels come from one sample_nested call.
    margin is check_contour_clear's."""
    if not levels:
        levels = sample_nested(f, x, circle)
    used: list[ContourData] = []
    w: list[complex] = []
    for k in range(3):
        data = levels[k] if k < len(levels) else sample_contour(f, x, circle)
        require_finite(x, data.z, data.f, data.fz)
        check_contour_clear(data, margin)
        used.append(data)
        w.append(_winding(data))
        circle = circle.doubled()
        if k == 0:
            continue
        n = _settled(w[-2], w[-1])
        if n is not None:
            if n < 0:
                raise NonIntegerWindingError(
                    f"winding settled on negative count {n}"
                )
            return n, tuple(used)
    raise NonIntegerWindingError(
        f"winding did not settle: last two estimates {w[-2]:.6f}, {w[-1]:.6f}"
    )


def _settled(w_coarse: complex, w_fine: complex) -> Optional[int]:
    """The integer nearest w_fine if both windings lie within WINDING_SLACK
    of it, else None."""
    n = int(round(w_fine.real))
    if abs(w_coarse - n) <= WINDING_SLACK and abs(w_fine - n) <= WINDING_SLACK:
        return n
    return None


def settled_count(coarse: ContourData, fine: ContourData) -> Optional[int]:
    """The zero count that samples on a circle and on its doubling agree
    on, as _count_zeros_data settles it at those two levels; None if they
    do not (the count would need the next level)."""
    return _settled(_winding(coarse), _winding(fine))


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
    a = np.zeros(n + 1, dtype=np.complex128)
    a[0] = 1.0
    for k in range(1, n + 1):
        acc = s[k]
        for i in range(1, k):
            acc += a[i] * s[k - i]
        a[k] = -acc / k
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
    margin: float = 1.0,
    levels: Sequence[ContourData] = (),
) -> tuple[MonicPoly, tuple[ContourData, ...]]:
    """The monic factor of the enclosed zeros, plus the samples used.

    Composition count_zeros -> power_sums -> newton_to_coeffs, with the sums
    taken about the circle center; margin is check_contour_clear's (1 at
    step time, 2 when selecting a radius).  The returned samples are F and
    F' at the circle's own node count, then at 2M (and 4M if the count
    needed it), for callers that also need |F| there.  ``levels`` are F
    and F' already taken at this x on the circle and its doublings, in
    that order (validate_step's); only the node sets past them are sampled.

    Raises NoZerosInDiskError when the disk holds no zeros.
    """
    n, levels = _count_zeros_data(f, x, circle, margin, levels)
    if n == 0:
        raise NoZerosInDiskError(f"no zeros of F({x}, .) inside {circle}")
    about = circle.center
    s = _power_sums_from(levels[0], n, about)
    return newton_to_coeffs(PowerSums(tuple(s), about=about)), levels


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
    fv = f.eval_many(x, zs)
    with np.errstate(all="ignore"):
        g = fv / poly.eval(zs)
    ok = np.isfinite(g)
    if not ok.any():
        raise CofactorVanishesError("cofactor undefined at every probe point")
    ga = np.abs(g[ok])
    gmin, gmax = float(ga.min()), float(ga.max())
    floor = max(M_FLOOR_REL * gmax, DENORMAL_FLOOR)
    if gmin <= floor:
        raise CofactorVanishesError(
            f"min |F/P| = {gmin:.3e} at probe points, floor {floor:.3e}"
        )
