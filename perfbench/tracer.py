"""Outside-in tracing of rootbranch: spans around calls into each module.

The tracer replaces a function at every binding its callers look it up
through (``engine.select_radius``, not ``localize.select_radius``, because
the engine imported the name) and restores them on exit.  Each call becomes
a span (name, start, end, parent) plus one number and one flag the wrapper
reads off the arguments, the return value or the exception.  Spans stay in
flat arrays while the run lasts; ``metrics`` derives the per-layer numbers
from them afterwards and ``save`` writes them out.  The program itself is
unchanged.
"""

from __future__ import annotations

import importlib
import math
from array import array
from time import perf_counter

import numpy as np

RAISED = 1
ACCEPTED = 2  # validate_step: the Rouche check passed
REFINED = 4  # validate_step: decided at doubled resolution
AMBIGUOUS = 8  # match_root: no unique nearest candidate
COMPLETED = 16  # continue_branch: the branch covers the whole domain
COUNT_SHIFT = 8  # select_radius: the certificate's zero count sits above the bits


def _points(args, kwargs, result):
    z = args[2] if len(args) > 2 else kwargs["z"]
    return float(np.size(z)), 0


def _radius_tries(args, kwargs, result):
    # select_radius halves from r_max, so the kept radius tells the tries
    r_max = args[3] if len(args) > 3 else kwargs["r_max"]
    return 1.0 + round(math.log2(r_max / result.r)), result.n << COUNT_SHIFT


def _validation(args, kwargs, result):
    loc = args[1] if len(args) > 1 else kwargs["loc"]
    flag = ACCEPTED if result.accepted else 0
    if result.resolution != loc.circle.samples:
        flag |= REFINED
    return result.excess, flag


def _degree(args, kwargs, result):
    return float(result.degree), 0


def _ambiguity(args, kwargs, result):
    return 0.0, AMBIGUOUS if result.ambiguous else 0


def _samples_after_starts(args, kwargs, result):
    # each segment's first sample is its starting point, not a step
    starts = len({s.segment for s in result.samples})
    return float(len(result.samples) - starts), COMPLETED if result.completed else 0


# span name -> (bindings callers look it up through, value/flag reader)
SITES = {
    "cli.run": (["rootbranch.cli:run"], None),
    "problem.build": (
        ["rootbranch:build", "rootbranch.problem:build", "rootbranch.cli:build"],
        None,
    ),
    "engine.continue_branch": (
        ["rootbranch:continue_branch", "rootbranch.cli:continue_branch"],
        _samples_after_starts,
    ),
    "engine.resample_branch": (
        ["rootbranch:resample_branch", "rootbranch.cli:resample_branch"],
        None,
    ),
    "engine.match_root": (["rootbranch.engine:match_root"], _ambiguity),
    "localize.select_radius": (["rootbranch.engine:select_radius"], _radius_tries),
    "localize.validate_step": (["rootbranch.engine:validate_step"], _validation),
    "contour.local_monic_factor": (["rootbranch.engine:local_monic_factor"], _degree),
    "contour.poly_roots": (["rootbranch.engine:poly_roots"], None),
    "contour.count_zeros": (["rootbranch.engine:count_zeros"], None),
    "contour.sample_contour": (["rootbranch.contour:sample_contour"], None),
    "expressions.polish_root": (["rootbranch.engine:polish_root"], None),
    "expressions.degeneracy_probe": (
        ["rootbranch.engine:degeneracy_probe", "rootbranch.localize:degeneracy_probe"],
        None,
    ),
    "expressions.eval_many": (
        ["rootbranch.expressions:EntireFunction.eval_many"],
        _points,
    ),
    "expressions.eval_dz_many": (
        ["rootbranch.expressions:EntireFunction.eval_dz_many"],
        _points,
    ),
}

# the calls continue_branch makes itself, in the order it makes them
_ENGINE_CALLS = (
    "localize.select_radius",
    "localize.validate_step",
    "contour.local_monic_factor",
    "contour.poly_roots",
    "engine.match_root",
    "expressions.polish_root",
    "expressions.degeneracy_probe",
    "contour.count_zeros",
)


def _resolve(binding: str):
    module, _, path = binding.partition(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Context manager: while entered, every call listed in SITES is a span."""

    def __init__(self):
        self.names = list(SITES)
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.flag = array("i")
        self._stack = [-1]
        self._saved = []

    def _wrap(self, nid, fn, read):
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        value, flag, stack = self.value, self.flag, self._stack

        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            value.append(0.0)
            flag.append(0)
            stack.append(i)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = perf_counter()
                stack.pop()
                flag[i] = RAISED
                raise
            end[i] = perf_counter()
            stack.pop()
            if read is not None:
                value[i], flag[i] = read(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for nid, (bindings, read) in enumerate(SITES.values()):
            for binding in bindings:
                owner, attr = _resolve(binding)
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(nid, fn, read))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            value=np.frombuffer(self.value),
            flag=np.frombuffer(self.flag, dtype=np.int32),
        )

    def metrics(self) -> tuple[dict, list[int], list[str]]:
        """Per-layer counts and seconds, the accepted steps of each solve in
        call order, and any broken counter identity."""
        nid = {n: i for i, n in enumerate(self.names)}
        name = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        value = np.frombuffer(self.value)
        flag = np.frombuffer(self.flag, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_s = dur - covered
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def sel(n):
            # outermost spans only: problem.build calls itself for fixtures
            return (name == nid[n]) & (parent_name != nid[n])

        def calls(n):
            return int(sel(n).sum())

        def seconds(n):
            return float(dur[sel(n)].sum())

        def flagged(n, bit):
            return int((sel(n) & ((flag & bit) != 0)).sum())

        def total(n, mask=True):
            return float(value[sel(n) & mask].sum())

        evals = sel("expressions.eval_many") | sel("expressions.eval_dz_many")
        steps, per_solve = self._steps(name, parent, value, flag, nid)
        out = {
            "problem.build_calls": calls("problem.build"),
            "problem.build_s": seconds("problem.build"),
            "expressions.eval_calls": calls("expressions.eval_many"),
            "expressions.eval_points": int(total("expressions.eval_many")),
            "expressions.eval_s": seconds("expressions.eval_many"),
            "expressions.eval_dz_calls": calls("expressions.eval_dz_many"),
            "expressions.eval_dz_points": int(total("expressions.eval_dz_many")),
            "expressions.eval_dz_s": seconds("expressions.eval_dz_many"),
            "expressions.scalar_calls": int((evals & (value == 1.0)).sum()),
            "expressions.polish_calls": calls("expressions.polish_root"),
            "expressions.polish_s": seconds("expressions.polish_root"),
            "expressions.probe_calls": calls("expressions.degeneracy_probe"),
            "expressions.probe_s": seconds("expressions.degeneracy_probe"),
            "contour.samples": calls("contour.sample_contour"),
            "contour.factor_calls": calls("contour.local_monic_factor"),
            "contour.factor_s": seconds("contour.local_monic_factor"),
            "contour.factor_failures": flagged("contour.local_monic_factor", RAISED),
            "contour.roots_calls": calls("contour.poly_roots"),
            "contour.roots_s": seconds("contour.poly_roots"),
            "contour.roots_failures": flagged("contour.poly_roots", RAISED),
            "localize.select_calls": calls("localize.select_radius"),
            "localize.select_s": seconds("localize.select_radius"),
            "localize.select_failures": flagged("localize.select_radius", RAISED),
            "localize.radius_tries": int(
                total("localize.select_radius", (flag & RAISED) == 0)),
            "localize.validate_calls": calls("localize.validate_step"),
            "localize.validate_s": seconds("localize.validate_step"),
            "localize.validate_accepted": flagged("localize.validate_step", ACCEPTED),
            "localize.validate_refined": flagged("localize.validate_step", REFINED),
            **steps,
            "engine.solve_self_s": float(self_s[sel("engine.continue_branch")].sum()),
            "engine.resample_self_s": float(self_s[sel("engine.resample_branch")].sum()),
            "cli.write_s": float(self_s[sel("cli.run")].sum()),
        }
        rejected = sum(v for k, v in steps.items() if k.startswith("engine.reject."))
        errors = []
        if steps["engine.proposals"] != steps["engine.accepted_steps"] + rejected:
            errors.append(
                f"proposals {steps['engine.proposals']} != accepted "
                f"{steps['engine.accepted_steps']} + rejected {rejected}"
            )
        if min(steps.values()) < 0:
            errors.append(f"negative step count in {steps}")
        return out, per_solve, errors

    def _steps(self, name, parent, value, flag, nid) -> tuple[dict, list[int]]:
        """Classify every step proposal from the calls continue_branch made.

        A proposal starts with validate_step.  It is rejected by Rouche when
        the check fails; by the factor when local_monic_factor raises or
        finds another degree than the current certificate's count; by the
        roots when poly_roots raises; as ambiguous when match_root finds no
        unique candidate and no polish follows (a tie-break goes on to
        polish).  A proposal whose matched root is polished is accepted or
        rejected for its residual or jump.  Accepted steps are the samples
        continue_branch returns beyond each segment's first, less the
        segment ends snapped to after a stall: a polish that follows no
        match, is not the seed's, and ends its segment (the next call starts
        another segment, or none follows and the branch completed).  A
        segment's own first polish is always followed by select_radius.

        Returns the totals and the accepted steps of each solve in order.
        """
        solves = np.flatnonzero(name == nid["engine.continue_branch"])
        engine_ids = [nid[n] for n in _ENGINE_CALLS]
        calls = np.flatnonzero(np.isin(name, engine_ids) & np.isin(parent, solves))
        children = {int(j): [] for j in solves}
        for i in calls:
            children[int(parent[i])].append((int(name[i]), int(flag[i]), value[i]))
        select, validate, factor, roots, match, polish = engine_ids[:6]
        counts = dict(rouche=0, factor=0, roots=0, ambiguous=0)
        proposals = polished = 0
        per_solve = []
        for j, seq in children.items():
            cert_n = None
            snaps = 0
            for k, (n, fl, val) in enumerate(seq):
                prev = seq[k - 1][0] if k > 0 else None
                nxt = seq[k + 1][0] if k + 1 < len(seq) else None
                if n == select and not fl & RAISED:
                    cert_n = fl >> COUNT_SHIFT
                elif n == validate:
                    proposals += 1
                    if not fl & ACCEPTED:
                        counts["rouche"] += 1
                elif n == factor and (fl & RAISED or val != cert_n):
                    counts["factor"] += 1
                elif n == roots and fl & RAISED:
                    counts["roots"] += 1
                elif n == match and fl & AMBIGUOUS and nxt != polish:
                    counts["ambiguous"] += 1
                elif n == polish and prev == match:
                    polished += 1
                elif n == polish and prev is not None and (
                        nxt == polish or (nxt is None and flag[j] & COMPLETED)):
                    snaps += 1
            per_solve.append(int(value[j]) - snaps)
        accepted = sum(per_solve)
        totals = {
            "engine.proposals": proposals,
            "engine.accepted_steps": accepted,
            "engine.accept_ratio": accepted / proposals if proposals else 0.0,
            **{f"engine.reject.{k}": v for k, v in counts.items()},
            "engine.reject.residual_or_jump": polished - accepted,
        }
        return totals, per_solve
