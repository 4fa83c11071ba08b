"""Continuation engine: extend a root branch across the parameter domain.

The loop alternates certified localization (select_radius at the current
(x, w)) with Rouche-validated parameter steps.  Each accepted step
refactors F at the new parameter, re-roots the local monic factor, matches
the nearest root to the incoming value, and Newton-polishes it; the step
returns its certificate at the new parameter (same circle, the step's
sample of F there), kept while the radius search's test admits it.  Step
size halves on rejection or ambiguity; after an accepted step it is scaled
by STEP_AIM over that step's Rouche excess, clamped to [1, 2].
Every LADDER_EVERY accepted steps a radius ladder (ladder_radius) sets
where the following localizations start halving, and the endgame record
(Endgame) checks whether the branch oscillates without a limit at the
segment end.

A sweep that repeats an earlier one coordinate for coordinate, from the
same start value, is that sweep's twin and is not run (continue_branch).

Termination is classified, never silent: Completed, AsymptoticBlowup,
DegenerateBarrier, NonConvergent, or SeedInvalid.  How a stalled frontier
ends is decided in one place, the stall block of extend_segment.
"""

from __future__ import annotations

import enum
import math
from functools import partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .contour import Circle, count_zeros, local_monic_factor, poly_roots
from .domain import DomainPoint, ParamDomain, PathSegment, SweepSegment
from .errors import (
    CertificateError,
    NonFiniteError,
    NonIntegerWindingError,
    NoRadiusFoundError,
    OutOfDomainError,
    SolverError,
)
from .expressions import EntireFunction, degeneracy_probe, modulus, polish_root, polish_roots
from .localize import (
    RADIUS_HALVINGS,
    LocalFactorization,
    admits,
    ladder_radius,
    select_radius,
    validate_step,
)

class Status(str, enum.Enum):
    COMPLETED = "Completed"
    ASYMPTOTIC_BLOWUP = "AsymptoticBlowup"
    DEGENERATE_BARRIER = "DegenerateBarrier"
    NON_CONVERGENT = "NonConvergent"
    SEED_INVALID = "SeedInvalid"


class _StatusFields(NamedTuple):
    kind: Status
    diagnostics: Optional[dict] = None


class TerminationStatus(_StatusFields):
    """A verdict and its diagnostics (a new empty dict by default)."""

    __slots__ = ()

    def __new__(cls, kind: Status, diagnostics: Optional[dict] = None):
        return tuple.__new__(cls, (kind, {} if diagnostics is None else diagnostics))


class BranchSample(NamedTuple):
    """One point of the tracked branch: w(point) with its residual |F|.

    A named tuple, so resample_branch builds its rows at tuple cost.
    """

    segment: int
    arc: float
    point: DomainPoint
    w: complex
    residual: float


class RootBranch(NamedTuple):
    """Continuation result: samples, classified termination, and location.

    samples holds the raw samples of the segments that ran.  twins holds a
    (twin, source) pair of sweep indices for each sweep that was not run
    because an earlier sweep had its key (see continue_branch): its raw
    samples are the source's, with the twin's own points.
    """

    samples: tuple[BranchSample, ...]
    status: TerminationStatus
    status_location: Optional[DomainPoint]
    sweeps: tuple[SweepSegment, ...]
    domain: ParamDomain
    twins: tuple[tuple[int, int], ...] = ()

    @property
    def completed(self) -> bool:
        return self.status.kind is Status.COMPLETED

    def max_residual(self) -> Optional[float]:
        """Largest sample residual; None for a branch without samples."""
        return max((s.residual for s in self.samples), default=None)


class RootMatch(NamedTuple):
    value: Optional[complex]
    ambiguous: bool


# Fixed tuning of the step loop (not configurable).
H0_FRAC = 1.0 / 64.0  # first step, as a fraction of the segment length
H_MAX_FRAC = 0.125  # largest step, as a fraction of the segment length
H_MIN = 1e-12  # a step halved below this stalls the frontier
# Rouche excess the step after an accepted one aims at: the excess grows
# about linearly in h, so h is scaled by STEP_AIM / excess, clamped to
# [1, 2] (2 undoes one rejection's halving)
STEP_AIM = 0.7
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


class EngineConfig(NamedTuple):
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
        return self._asdict()


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


def _window_diameter(window: Sequence[BranchSample]) -> float:
    if len(window) < 2:
        return 0.0
    arr = np.array([s.w for s in window], dtype=np.complex128)
    return float(np.abs(arr[:, None] - arr[None, :]).max())


def _blowup_evidence(window: Sequence[BranchSample], length: float) -> bool:
    """Soft asymptote test of a stalled window: |w| above BLOWUP_SOFT,
    monotone growth, and a least-squares line through 1/|w| against arc
    whose zero lies in [s - rem/4, length + 3*rem/4], where s is the
    window's last arc and rem = length - s.

    That interval holds all of the segment past s - rem/4, so a pole
    inside the segment counts as well as one at or just past its end."""
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

    __slots__ = ("lo", "hi", "extrema", "max_abs", "n", "su", "sv", "suu", "suv")

    def __init__(self) -> None:
        self.lo = [math.inf, math.inf]  # per coordinate (Re w, Im w)
        self.hi = [-math.inf, -math.inf]
        self.extrema = [0, 0]
        self.max_abs = 0.0  # largest |w|
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
    attributed to the shell of the extreme sample, the largest |w|, and
    the sums of a least-squares fit of log|w| against log(length - s).
    add() is O(1) and the state is O(number of shells); no per-sample
    history is kept.
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
        a = abs(w)
        sh.max_abs = max(sh.max_abs, a)
        if a != 0:
            u, v = math.log(rem), math.log(a)
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

    def grows(self, order: float) -> bool:
        """Whether each completed shell's largest |w| is at least
        2**(order / 2) times the previous shell's.

        A pole of order p multiplies the largest |w| by about 2**p from one
        shell to the next; a bounded branch, whose fit is noise, does not.
        """
        got = self._completed()
        if got is None:
            return False
        grow = 2.0 ** (0.5 * order)
        return all(b.max_abs >= grow * a.max_abs for a, b in zip(got, got[1:]))


def _zero_counts() -> dict:
    return dict.fromkeys(
        ("accepted_steps", "localizations", "radius_tries", "carried", "certify_failures"),
        0,
    )


class SegmentRun(NamedTuple):
    """extend_segment outcome: samples plus the termination if not completed.

    counts holds the segment's step counts: accepted_steps, the certified
    steps taken; localizations, the select_radius calls, and radius_tries,
    the radii they tried; carried, the accepted steps whose circle was kept
    as the next certificate; certify_failures, the accepted steps whose
    audit recount (certify_steps: the zeros in the certificate's circle at
    the step's arc midpoint) disagreed with the certificate.
    """

    samples: list[BranchSample]
    status: TerminationStatus
    location: Optional[DomainPoint]
    counts: dict

    @property
    def completed(self) -> bool:
        return self.status.kind is Status.COMPLETED


def extend_segment(
    f: EntireFunction,
    sweep: SweepSegment,
    w_start: complex,
    cfg: Optional[EngineConfig] = None,
    seg_index: int = 0,
) -> SegmentRun:
    """Continue the branch along one sweep segment from its resume point.

    w_start is the branch value at the resume point: the polished seed, or
    the value an earlier segment recorded there.  It is the first sample
    as it is, with its residual from one evaluation, not polished again,
    so the branch keeps one value at a junction.

    Steps land exactly on the sweep's stops, where later segments resume
    from the samples there.

    One loop over explicit state: the frontier (s, pt, cx, w), the step h,
    the certificate loc at the frontier (None: localize first), the reason
    the frontier stalled (if it did) and the counters.  A pass either
    resolves a stall or proposes one step from the certificate.  A stall
    (the step underflowed H_MIN or moves the frontier not at all, no
    radius was admissible, or the step budget ran out) ends, in this
    order: Completed when _snap_to_end snaps it onto the segment end; the
    budget verdict (below); a soft AsymptoticBlowup when _blowup_evidence
    reads the last WINDOW samples as a pole; DegenerateBarrier when
    degeneracy_probe finds z -> F(x, z) constant at the frontier;
    NonConvergent when those samples are wider than OSC_TOL.  Otherwise
    the window has converged and the frontier is retried with fresh steps,
    STALL_RETRIES times, before it ends NonConvergent with converged_window.

    A rejection halves h and keeps loc, unless loc was kept from the step
    before: then the same h is proposed again from a fresh localization.
    An acceptance moves the frontier and keeps the step's certificate at
    the new frontier (loc's circle) when it admits, else drops loc.
    It scales h by STEP_AIM / excess, its Rouche excess, clamped to
    [1, 2], so an excess at or below STEP_AIM / 2 (0 included) doubles h;
    h never exceeds h_max.

    Localization halves from r_max * scale, where r_max =
    max(R_MAX_BASE, R_MAX_REL * |w|) and scale (1 at the start) is reset
    every LADDER_EVERY accepted steps to the ladder_radius winner at the
    step just taken, as a fraction of the r_max its circle was localized
    with, at most 1.  On those steps the circle is kept only if the winner
    is its own radius.

    Every accepted sample goes into an Endgame record.  Every LADDER_EVERY
    accepted steps the segment ends NonConvergent when the record shows
    oscillation.  When the step budget runs out the record decides:
    oscillation gives NonConvergent, a fitted pole order p of at least
    POLE_ORDER_MIN a soft AsymptoticBlowup when the largest |w| of each
    completed shell is at least 2**(p / 2) times the previous shell's,
    anything else NonConvergent with unresolved: true.
    """
    cfg = cfg or EngineConfig()
    seg, s, stops = sweep.segment, sweep.resume_arc, sweep.stops
    dom = seg.domain
    length = seg.length

    pt = seg.point_at(s)
    cx = dom.coordinate(pt)
    w = complex(w_start)
    res = modulus(f.eval(cx, w))
    samples: list[BranchSample] = [BranchSample(seg_index, s, pt, w, res)]
    if s >= length:
        return SegmentRun(samples, TerminationStatus(Status.COMPLETED, {}), None, _zero_counts())

    endgame = Endgame(length, s, w)
    h = min(H0_FRAC * length, length - s)
    h_max = H_MAX_FRAC * length
    loc = None
    stalled: Optional[str] = None
    ambiguous_streak = 0
    counts = _zero_counts()
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
            diam = _window_diameter(window)
            constant = degeneracy_probe(f, cx)
            if constant is not None:
                kind = Status.DEGENERATE_BARRIER
                diag = {"constant": constant, "x_limit": cx, "window_diameter": diam}
            elif diam > OSC_TOL:
                kind = Status.NON_CONVERGENT
                diag = {"window_diameter": diam, "x_limit": cx}
            elif retries_left > 0:
                # a converged, nondegenerate window retries with fresh steps
                retries_left -= 1
                h = max(1000.0 * H_MIN, min(H0_FRAC * rem, h_max))
                loc = stalled = None
                continue
            else:
                kind = Status.NON_CONVERGENT
                diag = {"window_diameter": diam, "converged_window": True}
            diag["reason"] = stalled
            break

        if loc is None:
            r_max = _r_max(w)
            start = r_max * scale
            counts["localizations"] += 1
            kept = False
            try:
                loc = select_radius(f, cx, w, start)
            except NoRadiusFoundError:
                # select_radius raises only after trying every halving
                counts["radius_tries"] += RADIUS_HALVINGS + 1
                stalled = "no admissible radius at frontier"
                continue
            # the kept radius is start * 2**-k, found on try k + 1
            counts["radius_tries"] += 1 + round(math.log2(start / loc.r))

        target = min(s + h, next((a for a in stops if a > s), length))
        if target <= s:
            # s + h rounds to s (h_max is 0.0 on a subnormal segment): a stall
            stalled = "step size underflow"
            continue
        pt1 = seg.point_at(target)
        cx1 = dom.coordinate(pt1)
        step = _step_root(f, loc, cx1, w, ambiguous_streak, cfg.residual_tol)
        if step.cert is None and kept:
            # a kept circle gives way to a fresh search, at the same h
            loc = None
            continue
        ambiguous_streak = step.streak
        if step.cert is None:
            h *= 0.5
            if h < H_MIN:
                stalled = "step size underflow"
            continue

        s_prev, s, pt, cx, w = s, target, pt1, cx1, step.w
        smp = BranchSample(seg_index, s, pt, w, step.residual)
        samples.append(smp)
        endgame.add(s, w)
        counts["accepted_steps"] += 1
        accepted = counts["accepted_steps"]
        if cfg.certify_steps:
            try:
                cx_mid = dom.coordinate(seg.point_at(0.5 * (s_prev + s)))
                n_mid = count_zeros(f, cx_mid, loc.circle)
            except (CertificateError, NonFiniteError):
                n_mid = -1
            if n_mid != loc.n:
                counts["certify_failures"] += 1
        if abs(w) > cfg.blowup_threshold:
            kind = Status.ASYMPTOTIC_BLOWUP
            diag = {"max_abs_w": abs(w), "last_residual": step.residual}
            break
        if s >= length:
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
        e = step.excess
        h = min(h * (2.0 if e <= 0.5 * STEP_AIM else max(1.0, STEP_AIM / e)), h_max)
        r_keep = loc.r
        if accepted % LADDER_EVERY == 0:
            r_keep = ladder_radius(f, loc, cx, step.cert.sample.coarse.f)
            scale = min(1.0, r_keep / r_max)
        kept = r_keep == loc.r and admits(step.cert)
        loc = step.cert if kept else None
        counts["carried"] += kept

    if kind in (Status.NON_CONVERGENT, Status.DEGENERATE_BARRIER):
        diag = {**diag, **_endpoint_diagnostics(f, seg)}
    where = None if kind is Status.COMPLETED else pt
    return SegmentRun(samples, TerminationStatus(kind, diag), where, counts)


def _budget_verdict(endgame: Endgame, w: complex) -> tuple[Status, dict]:
    """Classify a segment whose step budget ran out from its endgame record."""
    osc = endgame.oscillation()
    if osc is not None:
        return Status.NON_CONVERGENT, osc
    order = endgame.pole_order()
    if order is not None and order >= POLE_ORDER_MIN and endgame.grows(order):
        return Status.ASYMPTOTIC_BLOWUP, {
            "max_abs_w": abs(w),
            "pole_order": order,
            "reason": BUDGET_EXHAUSTED,
            "soft": True,
        }
    return Status.NON_CONVERGENT, {"reason": BUDGET_EXHAUSTED, "unresolved": True}


class Step(NamedTuple):
    """A step proposal's outcome: the ambiguity streak, and on acceptance
    the polished root w at x1, its residual |F|, the Rouche check's excess
    and cert, the certificate at x1 (the factor at x1 with the check's
    sample of F(x1), on the same circle).  A rejection has no cert."""

    w: Optional[complex]
    streak: int
    residual: float = 0.0
    excess: float = 0.0
    cert: Optional[LocalFactorization] = None


def _step_root(
    f: EntireFunction,
    loc: LocalFactorization,
    x1: float,
    w: complex,
    ambiguous_streak: int,
    residual_tol: float,
) -> Step:
    """Propose the step from loc.x0 to x1.

    It is rejected when the Rouche check fails, the factor at x1 does not
    carry the certified count or its roots fail, the match is ambiguous,
    or the polished root misses residual_tol or jumps out of the
    certificate.  A simple root (loc.n == 1) must land inside the
    certificate's disk, |w1 - loc.z0| < loc.r, where Rouche keeps its one
    zero; a cluster's root must stay within 2 * loc.r of w.
    """
    check = validate_step(f, loc, x1)
    if not check.accepted:
        return Step(None, ambiguous_streak)
    try:
        # the factor at x1 reuses the F(x1) samples the Rouche check took
        poly1 = local_monic_factor(x1, check.sample)
        if poly1.degree != loc.n:
            raise NonIntegerWindingError(
                f"count changed {loc.n} -> {poly1.degree} despite certificate"
            )
        roots = poly_roots(poly1, tol=residual_tol)
    except (CertificateError, NonFiniteError):
        return Step(None, ambiguous_streak)

    m = match_root(roots, w)
    if not m.ambiguous:
        w1 = m.value
    elif ambiguous_streak + 1 < TIE_BREAK_AFTER:
        return Step(None, ambiguous_streak + 1)
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
        if f.eval(x1, w) == 0:
            w1, res1 = w, 0.0
    except NonFiniteError:
        pass
    if loc.n == 1:
        # the one zero the certificate counts lies inside its open disk
        jumped = abs(w1 - loc.z0) >= loc.r
    else:
        jumped = abs(w1 - w) > 2.0 * loc.r
    if res1 > residual_tol or jumped:
        return Step(None, 0)
    return Step(w1, 0, res1, check.excess, LocalFactorization(x1, poly1, check.sample))


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
    if pole and degeneracy_probe(f, cx_end) is not None:
        return None
    wb, resb = polish_root(f, cx_end, w)
    if resb <= residual_tol and abs(wb - w) <= max(1.0, abs(w)):
        return BranchSample(seg_index, seg.length, end, wb, resb)
    return None


def _endpoint_diagnostics(f: EntireFunction, seg: PathSegment) -> dict:
    """Probe the unreached segment end for degeneracy (diagnostic only)."""
    end = seg.point_at(seg.length)
    cx = seg.domain.coordinate(end)
    constant = degeneracy_probe(f, cx)
    out = {"endpoint_degenerate": constant is not None, "endpoint_coordinate": cx}
    if constant is not None:
        out["endpoint_constant"] = constant
    return out


def _branch(cfg, domain, kind, diag, samples, where, runs=(), sweeps=(), twins=()):
    """The RootBranch that ends with kind and diag.  Its diagnostics add
    the step counts of the segments that ran (runs; none for a branch that
    ends before its first segment) rolled up, twin_segments, snapped and
    the largest snap_gap when a completed branch snapped a segment end,
    and with certify_steps certify_checked (every accepted step) and
    certify_failures."""
    counts = {k: sum(r.counts[k] for r in runs) for k in _zero_counts()}
    failures = counts.pop("certify_failures")
    diag = {**diag, **counts, "twin_segments": len(twins)}
    snaps = [r.status.diagnostics for r in runs if r.status.diagnostics.get("snapped")]
    if kind is Status.COMPLETED and snaps:
        diag["snapped"] = True
        diag["snap_gap"] = max(d["snap_gap"] for d in snaps)
    if cfg.certify_steps:
        diag["certify_checked"] = diag["accepted_steps"]
        diag["certify_failures"] = failures
    status = TerminationStatus(kind, diag)
    return RootBranch(tuple(samples), status, where, sweeps, domain, tuple(twins))


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
    DegenerateBarrier at x0, and a seed root so near the float limit that
    the first localization circle about it, of radius
    max(R_MAX_BASE, R_MAX_REL * |w0|), has a non-finite node an
    AsymptoticBlowup at x0 (max_abs_w |w0|, inf past the float range).
    The domain is covered by leaf-directed sweep
    segments from x0 with shared prefixes deduplicated; a segment resumes
    from the first value the branch took at its resume point, so the branch
    is single-valued at junctions by construction.  Raises
    OutOfDomainError, before evaluating F, when f.x_range is set and does
    not cover the domain's coordinate range.

    F sees a point only through its coordinate, so a sweep is keyed by its
    segment's coordinate profile, resume_arc, stops and the bits of its
    start value; equal keys make the same computation.  A sweep whose key
    an earlier (completed) sweep had is that sweep's twin: it is not run,
    the source's values at its stops go to the twin's own points, and the
    pair is recorded in RootBranch.twins.  A twin adds no samples and no
    step counts; the diagnostics count the twins in twin_segments.
    """
    cfg = cfg or EngineConfig()
    lo, hi = domain.coordinate_range()
    if f.x_range is not None and not f.x_range[0] <= lo <= hi <= f.x_range[1]:
        raise OutOfDomainError(
            f"domain coordinates [{lo}, {hi}] outside F's x_range {list(f.x_range)}"
        )
    cx0 = domain.coordinate(x0)
    w0, res0 = polish_root(f, cx0, complex(z0))
    tol0 = SEED_TOL * (1.0 + _seed_scale(f, cx0, w0))
    if not np.isfinite(res0) or res0 > tol0:
        diag = {"seed_residual": res0, "seed_tolerance": tol0}
        return _branch(cfg, domain, Status.SEED_INVALID, diag, (), x0)
    seed = (BranchSample(0, 0.0, x0, w0, res0),)
    constant = degeneracy_probe(f, cx0)
    if constant is not None:
        diag = {"constant": constant, "at_seed": True}
        return _branch(cfg, domain, Status.DEGENERATE_BARRIER, diag, seed, x0)
    if _first_circle_overflows(w0):
        # the first localization has no finite nodes to sample F at
        diag = {"max_abs_w": modulus(w0), "at_seed": True}
        return _branch(cfg, domain, Status.ASYMPTOTIC_BLOWUP, diag, seed, x0)
    sweeps = tuple(domain.sweep_targets(x0))
    if not sweeps:
        return _branch(cfg, domain, Status.COMPLETED, {"trivial_domain": True}, seed, None)

    # the branch value at each point reached, the first one kept
    values: dict[DomainPoint, complex] = {x0: w0}
    all_samples: list[BranchSample] = []
    runs: list[SegmentRun] = []
    # sweep key -> (index, run) of the sweep that ran with it
    solved: dict[tuple, tuple[int, SegmentRun]] = {}
    twins: list[tuple[int, int]] = []
    status = TerminationStatus(Status.COMPLETED, {})
    where: Optional[DomainPoint] = None
    for i, sw in enumerate(sweeps):
        seg = sw.segment
        start = seg.point_at(sw.resume_arc)
        if start not in values:
            raise SolverError(
                f"internal: no junction value at resume point of sweep {i}"
            )
        w_start = values[start]
        key = (seg.profile, sw.resume_arc, sw.stops, w_start.real.hex(), w_start.imag.hex())
        if key in solved:
            source, run = solved[key]
            twins.append((i, source))
            w_at = {smp.arc: smp.w for smp in run.samples}
            for arc in sw.stops:
                values.setdefault(seg.point_at(arc), w_at[arc])
            continue
        run = extend_segment(f, sw, w_start, cfg, seg_index=i)
        for smp in run.samples:
            values.setdefault(smp.point, smp.w)
        solved[key] = (i, run)
        runs.append(run)
        all_samples.extend(run.samples)
        if not run.completed:
            status, where = run.status, run.location
            break

    return _branch(
        cfg, domain, status.kind, status.diagnostics, all_samples, where, runs, sweeps, twins
    )


def _r_max(w: complex) -> float:
    """The radius cap of a localization about w."""
    return max(R_MAX_BASE, R_MAX_REL * modulus(w))


def _first_circle_overflows(w0: complex) -> bool:
    """Whether the first localization circle about w0, of radius
    _r_max(w0), has a non-finite radius or node.  Raises no numpy
    overflow warning."""
    r = _r_max(w0)
    if not math.isfinite(r):
        return True
    with np.errstate(over="ignore", invalid="ignore"):
        return not np.isfinite(Circle(w0, r).nodes()).all()


def _seed_scale(f: EntireFunction, cx: float, w: complex) -> float:
    """Typical |F| magnitude near the seed, for a relative seed tolerance."""
    r = 0.5 * (1.0 + modulus(w))
    for _ in range(3):
        # a circle past the float range has non-finite nodes, and so F
        with np.errstate(over="ignore", invalid="ignore"):
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
    reported honestly (no filtering).  A row stops polishing once its
    Newton correction is at the rounding level of its value, so a row
    whose guess is a root to rounding, as a linear root curve's
    interpolation is, typically costs two kernel points or fewer: its
    guess and one step.  A twin segment reads its raw samples from its
    source and takes its rows' points on its own path.  When
    arcs_by_segment is given those arcs are used, clipped to each
    segment's covered span (oracle tests; a NaN arc raises
    OutOfDomainError); otherwise ``total`` samples are distributed across
    segments proportionally to covered length, at least two per segment.
    cfg is accepted for symmetry with continue_branch; resampling has no
    knobs.
    """
    by_seg: dict[int, list[BranchSample]] = {}
    for smp in branch.samples:
        by_seg.setdefault(smp.segment, []).append(smp)
    for twin, source in branch.twins:
        by_seg[twin] = by_seg[source]
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
        # spans and total_len scaled by one power of two (exact short of
        # underflow), so total * span stays finite near the float limit;
        # ldexp, since 2.0 ** e overflows for a subnormal total_len
        e = -math.frexp(total_len)[1]
        raw = {i: total * math.ldexp(spans[i][2], e) / math.ldexp(total_len, e) for i in live}
        quota = {i: max(2, int(raw[i])) for i in live}
        short = total - sum(quota.values())
        if short > 0:
            order = sorted(live, key=lambda i: raw[i] - int(raw[i]), reverse=True)
            for j in range(short):
                quota[order[j % len(order)]] += 1
    segs: list[int] = []
    arcs_out: list[float] = []
    points_out: list[DomainPoint] = []
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
        segs += [i] * len(points)
        arcs_out += targets.tolist()
        points_out += points
        xs.append(x)
    if not segs:
        return []
    w, res = polish_roots(f, np.concatenate(xs), np.concatenate(guesses))
    # tuple.__new__ builds each row in C, without the named tuple's __new__
    row = partial(tuple.__new__, BranchSample)
    return list(map(row, zip(segs, arcs_out, points_out, w.tolist(), res.tolist())))
