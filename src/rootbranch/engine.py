"""Continuation engine: extend a root branch across the parameter domain.

The loop alternates certified localization (select_radius at the current
(x, w)) with Rouche-validated parameter steps.  Each accepted step
refactors F at the new parameter, re-roots the local monic factor, matches
the nearest root to the incoming value, and Newton-polishes it; its circle
stays the certificate at the new parameter while it passes the radius
search's tests there (carry_certificate).  Step size halves on rejection
or ambiguity and grows after a run of clean accepts.
Every LADDER_EVERY accepted steps a radius ladder (ladder_radius) sets
where the following localizations start halving, and the endgame record
(Endgame) checks whether the branch oscillates without a limit at the
segment end.

Termination is classified, never silent: Completed, AsymptoticBlowup,
DegenerateBarrier, NonConvergent, or SeedInvalid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .contour import ContourData, MonicPoly, count_zeros, local_monic_factor, poly_roots
from .domain import DomainPoint, ParamDomain, PathSegment, SweepSegment
from .errors import (
    CofactorVanishesError,
    DegenerateAtPointError,
    NoConvergenceError,
    NonFiniteError,
    NonIntegerWindingError,
    NoRadiusFoundError,
    NoZerosInDiskError,
    OutOfDomainError,
    SolverError,
    ZeroOnContourError,
)
from .expressions import EntireFunction, degeneracy_probe, polish_root, polish_roots
from .localize import (
    RADIUS_HALVINGS,
    LocalFactorization,
    carry_certificate,
    ladder_radius,
    select_radius,
    validate_step,
)

_STEP_ERRORS = (
    ZeroOnContourError,
    NonIntegerWindingError,
    NoZerosInDiskError,
    CofactorVanishesError,
    NoConvergenceError,
    NonFiniteError,
)


class Status(str, enum.Enum):
    COMPLETED = "Completed"
    ASYMPTOTIC_BLOWUP = "AsymptoticBlowup"
    DEGENERATE_BARRIER = "DegenerateBarrier"
    NON_CONVERGENT = "NonConvergent"
    SEED_INVALID = "SeedInvalid"


@dataclass(frozen=True)
class TerminationStatus:
    kind: Status
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BranchSample:
    """One point of the tracked branch: w(point) with its residual |F|."""

    segment: int
    arc: float
    point: DomainPoint
    w: complex
    residual: float


@dataclass(frozen=True)
class RootBranch:
    """Continuation result: samples, classified termination, and location."""

    samples: tuple[BranchSample, ...]
    status: TerminationStatus
    status_location: Optional[DomainPoint]
    sweeps: tuple[SweepSegment, ...]
    domain: ParamDomain

    @property
    def completed(self) -> bool:
        return self.status.kind is Status.COMPLETED

    def max_residual(self) -> Optional[float]:
        """Largest sample residual; None for a branch without samples."""
        return max((s.residual for s in self.samples), default=None)


@dataclass(frozen=True)
class RootMatch:
    value: Optional[complex]
    ambiguous: bool


# Fixed tuning of the step loop (not configurable).
H0_FRAC = 1.0 / 64.0  # first step, as a fraction of the segment length
H_MAX_FRAC = 0.125  # largest step, as a fraction of the segment length
H_MIN = 1e-12  # a step halved below this stalls the frontier
GROW_AFTER = 3  # clean accepts in a row before the step grows
GROW_FACTOR = 1.5
TIE_BREAK_AFTER = 12  # ambiguous matches in a row before the tie-break
SEED_TOL = 1e-9  # seed residual bound, relative to 1 + the |F| scale near the seed
WINDOW = 16  # recent samples the stall classifier looks at
BLOWUP_SOFT = 500.0  # |w| floor of the soft blowup test of a stalled window
SNAP_EPS = 1e-9  # a stall this close to the segment end may snap onto it
R_MAX_BASE = 1.0  # certificate radii never start above max(R_MAX_BASE, R_MAX_REL * |w|)
R_MAX_REL = 0.5
LADDER_EVERY = 8  # accepted steps between radius-ladder and oscillation checks
STALL_RETRIES = 2  # fresh-step retries of a converged, nondegenerate stall
ENDGAME_SHELLS = 3  # consecutive completed shells the endgame rules read
# smallest move that counts as a reversal, and smallest shell diameter, in
# the endgame; a stalled window wider than this reads as oscillation
OSC_TOL = 1e-6
# an oscillating shell keeps more than this share of the previous shell's
# diameter; a branch converging like |x - x*|**a keeps about 2**-a, so this
# passes no convergence with a >= 0.42 (x*sin(1/x) keeps just over 1/2)
AMPLITUDE_KEEP = 0.75
# smallest fitted pole order read as blowup when the step budget runs out:
# |w| must grow by at least 2**(3 * 0.25) over the fitted shells, so a
# branch that merely drifts upward toward a finite limit stays unresolved
POLE_ORDER_MIN = 0.25
BUDGET_EXHAUSTED = "step budget exhausted"


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs of the continuation. Defaults suit well-scaled problems.

    max_steps bounds ACCEPTED steps per segment; rejected proposals are
    separately bounded by h halving down to H_MIN.  Every other tolerance
    is a module constant, here or beside the code that reads it in contour,
    localize and expressions.
    """

    residual_tol: float = 1e-8
    blowup_threshold: float = 1e8
    max_steps: int = 8000
    certify_steps: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


AMBIGUITY_RATIO = 0.5  # match_root: nearest / runner-up distance must not exceed this
CLUSTER_TOL = 1e-4  # match_root: relative spread below which candidates are one zero


def match_root(candidates: Sequence[complex], w_prev: complex) -> RootMatch:
    """Pick the continuation of w_prev among the factor's roots.

    Singleton lists match trivially.  If all candidates coincide within
    CLUSTER_TOL * (1 + max |c|) they are one numerically-split zero: the
    centroid matches.  Otherwise the nearest candidate must beat the
    runner-up by AMBIGUITY_RATIO, else the step is Ambiguous and the
    caller halves.
    """
    cs = np.asarray(list(candidates), dtype=np.complex128)
    if cs.size == 0:
        raise ValueError("no candidates to match")
    if cs.size == 1:
        return RootMatch(complex(cs[0]), False)
    scale = 1.0 + float(np.abs(cs).max())
    spread = float(np.abs(cs[:, None] - cs[None, :]).max())
    if spread <= CLUSTER_TOL * scale:
        return RootMatch(complex(cs.mean()), False)
    d = np.abs(cs - w_prev)
    i0 = int(np.argmin(d))
    d0 = float(d[i0])
    d1 = float(np.min(np.delete(d, i0)))
    if d0 <= AMBIGUITY_RATIO * d1:
        return RootMatch(complex(cs[i0]), False)
    return RootMatch(None, True)


def classify_termination(
    f: EntireFunction,
    window: Sequence[BranchSample],
    x_limit: float,
    cfg: EngineConfig,
) -> Optional[TerminationStatus]:
    """Classify a stalled continuation from its recent sample window.

    Order: blowup by threshold, then degeneracy of z -> F(x_limit, z), then
    oscillation (window diameter above OSC_TOL).  None means the window is
    converged and nondegenerate: the caller may retry with fresh steps.
    """
    ws = [s.w for s in window]
    if ws:
        peak = max(abs(w) for w in ws)
        if peak > cfg.blowup_threshold and window[-1].residual <= cfg.residual_tol:
            return TerminationStatus(
                Status.ASYMPTOTIC_BLOWUP,
                {"max_abs_w": peak, "last_residual": window[-1].residual},
            )
    try:
        probe = degeneracy_probe(f, x_limit)
    except (OutOfDomainError, NonFiniteError):
        probe = None
    if probe is not None and probe.degenerate:
        return TerminationStatus(
            Status.DEGENERATE_BARRIER,
            {
                "constant": probe.constant,
                "x_limit": x_limit,
                "window_diameter": _window_diameter(ws),
            },
        )
    diam = _window_diameter(ws)
    if diam > OSC_TOL:
        return TerminationStatus(
            Status.NON_CONVERGENT,
            {"window_diameter": diam, "x_limit": x_limit},
        )
    return None


def _window_diameter(ws: Sequence[complex]) -> float:
    if len(ws) < 2:
        return 0.0
    arr = np.asarray(list(ws), dtype=np.complex128)
    return float(np.abs(arr[:, None] - arr[None, :]).max())


def _blowup_evidence(window: Sequence[BranchSample], length: float) -> bool:
    """Soft asymptote test of a stalled window: |w| above BLOWUP_SOFT,
    monotone growth, and 1/|w| heading linearly to zero at (or just past)
    the segment end."""
    if len(window) < 8:
        return False
    mags = np.array([abs(s.w) for s in window])
    arcs = np.array([s.arc for s in window])
    if mags[-1] < BLOWUP_SOFT:
        return False
    if np.any(np.diff(mags) < -1e-12 * mags[-1]):
        return False
    if mags[-1] <= mags[0] * (1.0 + 1e-9):
        return False
    rem = length - float(arcs[-1])
    y = 1.0 / mags
    sb = arcs - arcs.mean()
    denom = float(np.dot(sb, sb))
    if denom == 0.0:
        return False
    beta = float(np.dot(sb, y - y.mean())) / denom
    if beta >= 0.0:
        return False
    alpha = float(y.mean()) - beta * float(arcs.mean())
    s_star = -alpha / beta
    lo = float(arcs[-1]) - 0.25 * rem
    hi = length + 0.75 * rem + 1e-12 * max(length, 1.0)
    return lo <= s_star <= hi


class _Shell:
    """Running summary of the samples of one endgame shell."""

    __slots__ = ("lo", "hi", "extrema", "n", "su", "sv", "suu", "suv")

    def __init__(self) -> None:
        self.lo = [math.inf, math.inf]  # per coordinate (Re w, Im w)
        self.hi = [-math.inf, -math.inf]
        self.extrema = [0, 0]
        # least-squares sums of u = log(length - s), v = log|w| (w != 0)
        self.n = 0
        self.su = self.sv = self.suu = self.suv = 0.0

    def diameter(self) -> float:
        return math.hypot(self.hi[0] - self.lo[0], self.hi[1] - self.lo[1])


class Endgame:
    """How w behaves on geometric shells of the distance to the segment end.

    Shell k holds the accepted samples with length / (length - s) in
    [2**k, 2**(k+1)).  Each shell keeps the range of Re w and Im w, the
    extrema (direction reversals by more than OSC_TOL) of each coordinate,
    attributed to the shell of the extreme sample, and the sums of a
    least-squares fit of log|w| against log(length - s).  add() is O(1)
    and the state is O(number of shells); no per-sample history is kept.
    The rules read the last ENDGAME_SHELLS completed shells, those below
    the shell of the latest sample.  The record starts from the sample
    (s, w), which must lie before the segment end.
    """

    def __init__(self, length: float, s: float, w: complex) -> None:
        self.length = length
        self.shells: dict[int, _Shell] = {}
        self.k = 0  # shell of the latest sample
        # per coordinate: the running extreme since the last reversal, the
        # direction of travel (0 before the first move) and the extreme's shell
        self._extreme = [w.real, w.imag]
        self._dir = [0, 0]
        self._at = [0, 0]
        self.add(s, w)

    def add(self, s: float, w: complex) -> None:
        rem = self.length - s
        if rem <= 0.0:
            return
        k = math.floor(math.log2(self.length / rem))
        sh = self.shells.get(k)
        if sh is None:
            sh = self.shells[k] = _Shell()
        self.k = k
        for c, v in enumerate((w.real, w.imag)):
            sh.lo[c] = min(sh.lo[c], v)
            sh.hi[c] = max(sh.hi[c], v)
            move = v - self._extreme[c]
            if self._dir[c] * move > 0.0:
                self._extreme[c], self._at[c] = v, k
            elif abs(move) > OSC_TOL:
                if self._dir[c]:
                    self.shells[self._at[c]].extrema[c] += 1
                self._dir[c] = 1 if move > 0.0 else -1
                self._extreme[c], self._at[c] = v, k
        if w != 0:
            u, v = math.log(rem), math.log(abs(w))
            sh.n += 1
            sh.su += u
            sh.sv += v
            sh.suu += u * u
            sh.suv += u * v

    def _completed(self) -> Optional[list[_Shell]]:
        ks = range(self.k - ENDGAME_SHELLS, self.k)
        got = [self.shells.get(k) for k in ks]
        return None if None in got else got

    def oscillation(self) -> Optional[dict]:
        """Diagnostics when the completed shells show no limit, else None.

        Each of them must hold a full turn (two extrema of Re w or of
        Im w), the extrema count must not fall from shell to shell, and
        each diameter must exceed OSC_TOL and AMPLITUDE_KEEP times the
        previous shell's.
        """
        got = self._completed()
        if got is None:
            return None
        ext = [max(sh.extrema) for sh in got]
        if min(ext) < 2 or any(b < a for a, b in zip(ext, ext[1:])):
            return None
        diam = [sh.diameter() for sh in got]
        if min(diam) <= OSC_TOL:
            return None
        ratio = min(b / a for a, b in zip(diam, diam[1:]))
        if ratio <= AMPLITUDE_KEEP:
            return None
        return {
            "reason": "oscillation",
            "shells": list(range(self.k - ENDGAME_SHELLS, self.k)),
            "turns": [e / 2 for e in ext],
            "amplitude_ratio": ratio,
        }

    def pole_order(self) -> Optional[float]:
        """Least-squares p in |w| ~ (length - s)**-p over the completed
        shells, or None without them or without spread in length - s."""
        got = self._completed()
        if got is None:
            return None
        n = sum(sh.n for sh in got)
        su = sum(sh.su for sh in got)
        den = n * sum(sh.suu for sh in got) - su * su
        if den <= 0.0:
            return None
        num = n * sum(sh.suv for sh in got) - su * sum(sh.sv for sh in got)
        return -num / den


@dataclass
class SegmentRun:
    """extend_segment outcome: samples plus the termination if not completed.

    accepted counts the certified steps taken; certify_failures counts the
    ones whose audit recount (certify_steps) disagreed with the certificate;
    localizations counts the select_radius calls and radius_tries the radii
    they tried; carried counts the accepted steps whose circle was kept as
    the next certificate.
    """

    samples: list[BranchSample]
    status: TerminationStatus
    location: Optional[DomainPoint]
    accepted: int = 0
    certify_failures: int = 0
    localizations: int = 0
    radius_tries: int = 0
    carried: int = 0

    @property
    def completed(self) -> bool:
        return self.status.kind is Status.COMPLETED


def extend_segment(
    f: EntireFunction,
    sweep: SweepSegment,
    w_start: complex,
    cfg: Optional[EngineConfig] = None,
    seg_index: int = 0,
    junction: Optional[dict] = None,
) -> SegmentRun:
    """Continue the branch along one sweep segment from its resume point.

    Steps land exactly on the sweep's stops (where later segments resume);
    the branch value there and at the end is recorded into ``junction``
    keyed by the domain point, write-once.

    One loop over explicit state: the frontier (s, pt, cx, w), the step h,
    the certificate loc at the frontier (None: localize first), the reason
    the frontier stalled (if it did) and the counters; a stall is
    classified from the last WINDOW samples.  A pass either resolves a
    stall (snap onto the end, classify, or retry with fresh steps), or
    proposes one step from the certificate.  A rejection halves h and
    keeps loc, unless loc was kept from the step before: then the same h
    is proposed again from a fresh localization.  An acceptance moves the
    frontier and keeps loc's circle as the certificate there when
    carry_certificate admits it, else drops loc.

    Localization halves from r_max * scale, where r_max =
    max(R_MAX_BASE, R_MAX_REL * |w|) and scale (1 at the start) is reset
    every LADDER_EVERY accepted steps to the ladder_radius winner at the
    step just taken, as a fraction of the r_max its circle was localized
    with, at most 1.  On those steps the circle is kept only if the winner
    is its own radius.

    Every accepted sample goes into an Endgame record.  Every LADDER_EVERY
    accepted steps the segment ends NonConvergent when the record shows
    oscillation.  When the step budget runs out the record decides:
    oscillation gives NonConvergent, a fitted pole order of at least
    POLE_ORDER_MIN a soft AsymptoticBlowup, anything else NonConvergent
    with unresolved: true.
    """
    cfg = cfg or EngineConfig()
    if junction is None:
        junction = {}
    seg, s, stops = sweep.segment, sweep.resume_arc, sweep.stops
    dom = seg.domain
    length = seg.length

    pt = seg.point_at(s)
    cx = dom.coordinate(pt)
    w, res = polish_root(f, cx, complex(w_start))
    samples: list[BranchSample] = [BranchSample(seg_index, s, pt, w, res)]
    if s >= length:
        junction.setdefault(pt, w)
        return SegmentRun(samples, TerminationStatus(Status.COMPLETED, {}), None)

    endgame = Endgame(length, s, w)
    h = min(H0_FRAC * length, length - s)
    h_max = H_MAX_FRAC * length
    loc = None
    stalled: Optional[str] = None
    grow_run = ambiguous_streak = accepted = certify_failures = 0
    localizations = radius_tries = carried = 0
    kept = False  # loc is a circle kept from the step before
    scale = 1.0
    retries_left = STALL_RETRIES
    while True:
        if stalled is not None:
            rem = length - s
            end = None
            if rem <= SNAP_EPS:
                end = _snap_to_end(f, seg, seg_index, w, cfg.residual_tol, endgame)
            if end is not None:
                samples.append(end)
                junction.setdefault(end.point, end.w)
                kind, diag = Status.COMPLETED, {"snapped": True, "snap_gap": rem}
                break
            if stalled == BUDGET_EXHAUSTED:
                kind, diag = _budget_verdict(endgame, w)
                break
            window = samples[-WINDOW:]
            if _blowup_evidence(window, length):
                kind = Status.ASYMPTOTIC_BLOWUP
                diag = {"max_abs_w": abs(w), "reason": stalled, "soft": True}
                break
            ts = classify_termination(f, window, cx, cfg)
            # a converged, nondegenerate window retries with fresh steps
            if ts is None and retries_left > 0:
                retries_left -= 1
                h = max(1000.0 * H_MIN, min(H0_FRAC * rem, h_max))
                loc = stalled = None
                continue
            if ts is None:
                ts = TerminationStatus(
                    Status.NON_CONVERGENT,
                    {
                        "window_diameter": _window_diameter([sm.w for sm in window]),
                        "converged_window": True,
                    },
                )
            kind, diag = ts.kind, {**ts.diagnostics, "reason": stalled}
            break

        if loc is None:
            r_max = max(R_MAX_BASE, R_MAX_REL * abs(w))
            start = r_max * scale
            localizations += 1
            kept = False
            try:
                loc = select_radius(f, cx, w, start)
            except DegenerateAtPointError as e:
                radius_tries += RADIUS_HALVINGS + 1
                kind = Status.DEGENERATE_BARRIER
                diag = {"constant": getattr(e, "constant", None), "at_frontier": True}
                break
            except (NoRadiusFoundError, NonFiniteError, OutOfDomainError):
                # select_radius raises only after trying every halving
                radius_tries += RADIUS_HALVINGS + 1
                stalled = "no admissible radius at frontier"
                continue
            # the kept radius is start * 2**-k, found on try k + 1
            radius_tries += 1 + round(math.log2(start / loc.r))

        target = min(s + h, next((a for a in stops if a > s), length))
        pt1 = seg.point_at(target)
        cx1 = dom.coordinate(pt1)
        w1, res1, streak, factor = _step_root(
            f, loc, cx1, w, ambiguous_streak, cfg.residual_tol
        )
        if w1 is None and kept:
            # a kept circle gives way to a fresh search, at the same h
            loc = None
            continue
        ambiguous_streak = streak
        if w1 is None:
            h *= 0.5
            grow_run = 0
            if h < H_MIN:
                stalled = "step size underflow"
            continue

        s, pt, cx, w = target, pt1, cx1, w1
        smp = BranchSample(seg_index, s, pt, w, res1)
        samples.append(smp)
        endgame.add(s, w)
        accepted += 1
        if cfg.certify_steps:
            try:
                n_after = count_zeros(f, cx, loc.circle)
            except _STEP_ERRORS:
                n_after = -1
            if n_after != loc.n:
                certify_failures += 1
        if s in stops:
            junction.setdefault(pt, w)
        if abs(w) > cfg.blowup_threshold:
            kind = Status.ASYMPTOTIC_BLOWUP
            diag = {"max_abs_w": abs(w), "last_residual": res1}
            break
        if s >= length:
            junction.setdefault(pt, w)
            kind, diag = Status.COMPLETED, {}
            break
        if accepted % LADDER_EVERY == 0:
            osc = endgame.oscillation()
            if osc is not None:
                kind, diag = Status.NON_CONVERGENT, osc
                break
        if accepted >= cfg.max_steps:
            stalled = BUDGET_EXHAUSTED
            continue
        grow_run += 1
        if grow_run >= GROW_AFTER:
            h = min(h * GROW_FACTOR, h_max)
            grow_run = 0
        poly1, levels1 = factor
        r_keep = loc.r
        if accepted % LADDER_EVERY == 0:
            r_keep = ladder_radius(f, loc, cx, levels1[0].f)
            scale = min(1.0, r_keep / r_max)
        loc = carry_certificate(loc, cx, poly1, levels1) if r_keep == loc.r else None
        kept = loc is not None
        carried += kept

    if kind in (Status.NON_CONVERGENT, Status.DEGENERATE_BARRIER):
        diag = {**diag, **_endpoint_diagnostics(f, seg)}
    where = None if kind is Status.COMPLETED else pt
    return SegmentRun(
        samples,
        TerminationStatus(kind, diag),
        where,
        accepted,
        certify_failures,
        localizations,
        radius_tries,
        carried,
    )


def _budget_verdict(endgame: Endgame, w: complex) -> tuple[Status, dict]:
    """Classify a segment whose step budget ran out from its endgame record."""
    osc = endgame.oscillation()
    if osc is not None:
        return Status.NON_CONVERGENT, osc
    order = endgame.pole_order()
    if order is not None and order >= POLE_ORDER_MIN:
        return Status.ASYMPTOTIC_BLOWUP, {
            "max_abs_w": abs(w),
            "pole_order": order,
            "reason": BUDGET_EXHAUSTED,
            "soft": True,
        }
    return Status.NON_CONVERGENT, {"reason": BUDGET_EXHAUSTED, "unresolved": True}


def _step_root(
    f: EntireFunction,
    loc: LocalFactorization,
    x1: float,
    w: complex,
    ambiguous_streak: int,
    residual_tol: float,
) -> tuple[
    Optional[complex],
    float,
    int,
    Optional[tuple[MonicPoly, tuple[ContourData, ...]]],
]:
    """Propose the step from loc.x0 to x1; return (w1, residual, streak,
    factor).

    w1 is None when the step is rejected: the Rouche check fails, the factor
    at x1 does not carry the certified count or its roots fail, the match
    is ambiguous, or the polished root misses residual_tol or jumps out of
    the certificate.  streak counts the ambiguous matches in a row.  factor
    (on acceptance) is the factor at x1 and the F(x1) samples on
    loc.circle's node levels it came from, the Rouche check's.
    """
    check = validate_step(f, loc, x1)
    if not check.accepted:
        return None, 0.0, ambiguous_streak, None
    try:
        # the factor at x1 reuses the F(x1) samples the Rouche check took
        poly1 = local_monic_factor(f, x1, loc.circle, levels=check.samples)
        if poly1.degree != loc.n:
            raise NonIntegerWindingError(
                f"count changed {loc.n} -> {poly1.degree} despite certificate"
            )
        roots = poly_roots(poly1, tol=residual_tol)
    except _STEP_ERRORS:
        return None, 0.0, ambiguous_streak, None

    m = match_root(roots, w)
    if not m.ambiguous:
        w1 = m.value
    elif ambiguous_streak + 1 < TIE_BREAK_AFTER:
        return None, 0.0, ambiguous_streak + 1, None
    else:
        # persistent symmetric tie (e.g. stepping off a multiple root):
        # deterministic lexicographic escape
        d = np.abs(roots - w)
        w1 = complex(roots[d <= d.min() * (1.0 + 1e-12)][0])

    w1, res1 = polish_root(f, x1, w1)
    # if the incumbent is still a bit-exact root (F flushed to zero,
    # e.g. exp(u)-1 with u below cancellation scale) the matched
    # candidate only adds quadrature noise; keep the incumbent
    try:
        if abs(f.eval(x1, w)) == 0.0:
            w1, res1 = w, 0.0
    except NonFiniteError:
        pass
    if res1 > residual_tol or abs(w1 - w) > 2.0 * loc.r:
        return None, 0.0, 0, None
    return w1, res1, 0, (poly1, check.samples)


def _snap_to_end(
    f: EntireFunction,
    seg: PathSegment,
    seg_index: int,
    w: complex,
    residual_tol: float,
    endgame: Endgame,
) -> Optional[BranchSample]:
    """The segment end as a sample, if the branch value still solves there
    (used when stalled within SNAP_EPS of it).

    Where z -> F(x_end, z) is constant every w solves, so there a branch
    whose shell fit shows a pole (order >= POLE_ORDER_MIN) is not snapped.
    """
    end = seg.point_at(seg.length)
    cx_end = seg.domain.coordinate(end)
    order = endgame.pole_order()
    pole = order is not None and order >= POLE_ORDER_MIN
    try:
        if pole and degeneracy_probe(f, cx_end).degenerate:
            return None
        wb, resb = polish_root(f, cx_end, w)
    except OutOfDomainError:
        return None
    if resb <= residual_tol and abs(wb - w) <= max(1.0, abs(w)):
        return BranchSample(seg_index, seg.length, end, wb, resb)
    return None


def _endpoint_diagnostics(f: EntireFunction, seg: PathSegment) -> dict:
    """Probe the unreached segment end for degeneracy (diagnostic only)."""
    end = seg.point_at(seg.length)
    cx = seg.domain.coordinate(end)
    try:
        pr = degeneracy_probe(f, cx)
    except (OutOfDomainError, NonFiniteError):
        return {}
    out = {"endpoint_degenerate": pr.degenerate, "endpoint_coordinate": cx}
    if pr.degenerate:
        out["endpoint_constant"] = pr.constant
    return out


_NO_STEPS = {"accepted_steps": 0, "localizations": 0, "radius_tries": 0, "carried": 0}


def continue_branch(
    f: EntireFunction,
    domain: ParamDomain,
    x0: DomainPoint,
    z0: complex,
    cfg: Optional[EngineConfig] = None,
) -> RootBranch:
    """Track the root branch through (x0, z0) over the whole domain.

    The seed is Newton-polished and must satisfy |F(x0, w0)| within
    SEED_TOL of zero (relative to the local function scale), else
    SeedInvalid.  A degenerate seed point (z -> F(x0, z) constant) is a
    DegenerateBarrier at x0.  The domain is covered by leaf-directed sweep
    segments from x0 with shared prefixes deduplicated; junction values are
    recorded once and reused, so the branch is single-valued at junctions
    by construction.
    """
    cfg = cfg or EngineConfig()
    cx0 = domain.coordinate(x0)
    w0, res0 = polish_root(f, cx0, complex(z0))
    tol0 = SEED_TOL * (1.0 + _seed_scale(f, cx0, w0))
    if not np.isfinite(res0) or res0 > tol0:
        return RootBranch(
            (),
            TerminationStatus(
                Status.SEED_INVALID,
                {"seed_residual": res0, "seed_tolerance": tol0, **_NO_STEPS},
            ),
            x0,
            (),
            domain,
        )
    probe = degeneracy_probe(f, cx0)
    if probe.degenerate:
        return RootBranch(
            (BranchSample(0, 0.0, x0, w0, res0),),
            TerminationStatus(
                Status.DEGENERATE_BARRIER,
                {"constant": probe.constant, "at_seed": True, **_NO_STEPS},
            ),
            x0,
            (),
            domain,
        )

    sweeps = tuple(domain.sweep_targets(x0))
    if not sweeps:
        return RootBranch(
            (BranchSample(0, 0.0, x0, w0, res0),),
            TerminationStatus(
                Status.COMPLETED, {"trivial_domain": True, **_NO_STEPS}
            ),
            None,
            (),
            domain,
        )

    junction: dict[DomainPoint, complex] = {x0: w0}
    all_samples: list[BranchSample] = []
    runs: list[SegmentRun] = []
    status = TerminationStatus(Status.COMPLETED, {})
    where: Optional[DomainPoint] = None
    for i, sw in enumerate(sweeps):
        start = sw.segment.point_at(sw.resume_arc)
        if start not in junction:
            raise SolverError(
                f"internal: no junction value at resume point of sweep {i}"
            )
        run = extend_segment(
            f, sw, junction[start], cfg, seg_index=i, junction=junction
        )
        runs.append(run)
        all_samples.extend(run.samples)
        if not run.completed:
            status, where = run.status, run.location
            break

    # roll the step tallies of every segment that ran up to the branch status
    diag = {
        **status.diagnostics,
        "accepted_steps": sum(r.accepted for r in runs),
        "localizations": sum(r.localizations for r in runs),
        "radius_tries": sum(r.radius_tries for r in runs),
        "carried": sum(r.carried for r in runs),
    }
    snaps = [r.status.diagnostics for r in runs if r.status.diagnostics.get("snapped")]
    if status.kind is Status.COMPLETED and snaps:
        diag["snapped"] = True
        diag["snap_gap"] = max(d["snap_gap"] for d in snaps)
    if cfg.certify_steps:
        diag["certify_checked"] = diag["accepted_steps"]
        diag["certify_failures"] = sum(r.certify_failures for r in runs)
    status = TerminationStatus(status.kind, diag)
    return RootBranch(tuple(all_samples), status, where, sweeps, domain)


def _seed_scale(f: EntireFunction, cx: float, w: complex) -> float:
    """Typical |F| magnitude near the seed, for a relative seed tolerance."""
    r = 0.5 * (1.0 + abs(w))
    for _ in range(3):
        zs = w + r * np.exp(2j * np.pi * np.arange(8) / 8)
        try:
            return float(np.abs(f.eval_many(cx, zs)).max())
        except NonFiniteError:
            r *= 0.25
    return 0.0


def resample_branch(
    f: EntireFunction,
    branch: RootBranch,
    total: int,
    cfg: Optional[EngineConfig] = None,
    arcs_by_segment: Optional[dict[int, Sequence[float]]] = None,
) -> list[BranchSample]:
    """Evenly spaced output samples along the covered part of the branch.

    Raw adaptive samples are linearly interpolated at the target arcs and
    Newton-polished, all rows in one polish_roots call; residuals are
    reported honestly (no filtering).  When arcs_by_segment is given those
    arcs are used, clipped to each segment's covered span (oracle tests;
    a NaN arc raises OutOfDomainError); otherwise ``total`` samples are distributed across segments
    proportionally to covered length, at least two per segment.  cfg is
    accepted for symmetry with continue_branch; resampling has no knobs.
    """
    by_seg: dict[int, list[BranchSample]] = {}
    for smp in branch.samples:
        by_seg.setdefault(smp.segment, []).append(smp)
    spans = {
        i: (raws[0].arc, raws[-1].arc, raws[-1].arc - raws[0].arc)
        for i, raws in by_seg.items()
    }
    total_len = sum(sp[2] for sp in spans.values())
    # largest-remainder apportionment: exactly `total` rows unless the
    # two-per-segment minimum forces more
    live = [i for i in sorted(by_seg) if spans[i][2] > 0.0]
    quota: dict[int, int] = {}
    if total_len > 0.0 and live:
        raw = {i: total * spans[i][2] / total_len for i in live}
        quota = {i: max(2, int(raw[i])) for i in live}
        short = total - sum(quota.values())
        if short > 0:
            order = sorted(live, key=lambda i: raw[i] - int(raw[i]), reverse=True)
            for j in range(short):
                quota[order[j % len(order)]] += 1
    rows: list[tuple[int, float, DomainPoint]] = []
    xs: list[np.ndarray] = []
    guesses: list[np.ndarray] = []
    for i in sorted(by_seg):
        raws = by_seg[i]
        lo, hi, span = spans[i]
        seg = branch.sweeps[i].segment if i < len(branch.sweeps) else None
        if arcs_by_segment is not None:
            targets = np.asarray(arcs_by_segment.get(i, ()), dtype=np.float64)
            # also on a branch without sweeps, whose rows take no path
            if np.isnan(targets).any():
                raise OutOfDomainError(f"arc is NaN on segment {i}")
        elif span == 0.0 or total_len == 0.0:
            targets = np.array([lo])
        else:
            targets = np.linspace(lo, hi, quota[i])
        targets = np.clip(targets, lo, hi)
        # interpolate between the raw samples around each target
        arcs = np.array([r.arc for r in raws])
        ws = np.array([r.w for r in raws], dtype=np.complex128)
        j = np.clip(np.searchsorted(arcs, targets, side="right") - 1, 0, len(raws) - 1)
        k = np.minimum(j + 1, len(raws) - 1)
        inside = (arcs[k] > arcs[j]) & (targets > arcs[j])
        t = (targets - arcs[j]) / np.where(inside, arcs[k] - arcs[j], 1.0)
        guesses.append(np.where(inside, ws[j] * (1.0 - t) + ws[k] * t, ws[j]))
        if seg is not None:
            points, x = seg.points_at(targets)
        else:
            points = [raws[jn].point for jn in j.tolist()]
            x = np.array([branch.domain.coordinate(p) for p in points])
        rows.extend(zip([i] * len(points), targets.tolist(), points))
        xs.append(x)
    if not rows:
        return []
    w, res = polish_roots(f, np.concatenate(xs), np.concatenate(guesses))
    return [
        BranchSample(i, arc, point, wn, rn)
        for (i, arc, point), wn, rn in zip(rows, w.tolist(), res.tolist())
    ]
