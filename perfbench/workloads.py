"""The benchmark's two workloads: inputs made from a seed, one pass, and checks.

``fixtures``
    the eight built-in fixtures through ``cli.run`` with default config and
    1200 output rows, as ``rootbranch --fixture NAME`` runs them.
``poly-dense``
    40 monic polynomial families (degrees 2-5, linear root curves at least
    0.3 apart, half on the interval and half on the Y-tree), each turned or
    mirrored in the z plane as the seed says, given as a ``series``
    document, solved with ``continue_branch``, resampled at 1000 rows and
    checked against a pointwise ``np.roots`` oracle.

Both are closed loops with one caller: each problem starts when the
previous one ends.  Nothing in this module imports rootbranch at import
time, so that set-up timing covers the package's import.
"""

from __future__ import annotations

import csv
import json
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

WORKLOADS = ("fixtures", "poly-dense")

FIXTURE_ROWS = 1200
POLY_FAMILIES = 40
POLY_ROWS = 1000
POLY_DEGREES = (2, 3, 4, 5)
POOL_SEED = 2009
ORACLE_GAP = 1e-6
MIN_SEPARATION = 0.3
Y_TREE = {
    "kind": "tree",
    "vertices": ["c", "a", "b", "d"],
    "edges": [["c", "a", 0.5], ["c", "b", 0.5], ["c", "d", 0.5]],
}


@dataclass
class Problem:
    """One input of a workload: a problem document and what it must give."""

    name: str
    document: dict
    expected_status: str
    # poly-dense only: coeffs[k, p] is the coefficient of z**k x**p
    coeffs: object = None
    spec: object = None
    built: tuple = ()


@dataclass
class Outcome:
    """One problem run: its timings (seconds) and the checks' verdict."""

    problem: str
    solve_s: float = 0.0
    resample_s: float = 0.0
    run_s: float = 0.0
    status: Optional[str] = None
    error: Optional[str] = None
    # branch.csv bytes, or the resampled values, to compare between runs
    output: bytes = field(default=b"", repr=False)


def make_problems(workload: str, seed: int) -> list[Problem]:
    if workload == "fixtures":
        return _fixture_problems(seed)
    if workload == "poly-dense":
        return _poly_problems(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _fixture_problems(seed: int) -> list[Problem]:
    from rootbranch import list_fixtures

    problems = [
        Problem(fx.name, {"fixture": fx.name}, fx.expected_status)
        for fx in list_fixtures()
    ]
    # the fixtures are fixed; the seed only chooses the order they run in
    random.Random(seed).shuffle(problems)
    return problems


def _poly_problems(seed: int) -> list[Problem]:
    """The shape pool, each family under a seeded symmetry of the square.

    Independently drawn families differ too much in cost for one run to be
    steady: solve time per family has a standard deviation as large as its
    mean.  Turning the z plane by a multiple of 90 degrees, and perhaps
    mirroring it, keeps each family's geometry exactly (multiplying by 1j
    or conjugating is exact in floating point) while changing its
    coefficients.
    """
    rng = np.random.default_rng(seed)
    problems = []
    for i, (a, b) in enumerate(_shape_pool()):
        k = int(rng.integers(8))
        a, b = a * 1j ** (k % 4), b * 1j ** (k % 4)
        if k >= 4:
            a, b = a.conj(), b.conj()
        deg, on_tree = len(a), i % 2 == 1
        coeffs = _monic_coefficients(a, b)
        if on_tree:
            domain, seed_doc = Y_TREE, {"point": {"vertex": "c"}}
        else:
            domain, seed_doc = {"kind": "interval"}, {"x": 0.0}
        seed_doc["z"] = [float(a[0].real), float(a[0].imag)]
        doc = {
            "series": [_x_poly_text(row) for row in coeffs],
            "domain": domain,
            "seed": seed_doc,
        }
        name = f"poly{i:02d}-deg{deg}-{'ytree' if on_tree else 'interval'}"
        problems.append(Problem(name, doc, "Completed", coeffs=coeffs))
    return problems


def _shape_pool():
    """POLY_FAMILIES root-curve sets drawn as acceptance criterion 4 draws
    them; even-numbered ones run on the interval, odd ones on the Y-tree."""
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for i in range(POLY_FAMILIES):
        deg = POLY_DEGREES[(i // 2) % len(POLY_DEGREES)]
        # on the Y-tree the coordinate x is the distance from vertex c
        pool.append(_linear_root_curves(rng, deg, 0.5 if i % 2 else 1.0))
    return pool


def _linear_root_curves(rng, deg: int, x_hi: float):
    """Roots a_j + b_j x that stay MIN_SEPARATION apart for x in [0, x_hi]."""
    grid = np.linspace(0.0, x_hi, 33)
    while True:
        a = rng.uniform(-1.2, 1.2, deg) + 1j * rng.uniform(-1.2, 1.2, deg)
        b = rng.uniform(-0.6, 0.6, deg) + 1j * rng.uniform(-0.6, 0.6, deg)
        vals = a[:, None] + b[:, None] * grid[None, :]
        sep = np.abs(vals[:, None, :] - vals[None, :, :])
        sep[np.arange(deg), np.arange(deg), :] = np.inf
        if sep.min() >= MIN_SEPARATION:
            return a, b


def _monic_coefficients(a, b):
    """c[k, p]: coefficient of z**k x**p in prod_j (z - a_j - b_j x)."""
    c = np.ones((1, 1), dtype=np.complex128)
    for aj, bj in zip(a, b):
        nxt = np.zeros((c.shape[0] + 1, c.shape[1] + 1), dtype=np.complex128)
        nxt[1:, :-1] += c
        nxt[:-1, :-1] -= aj * c
        nxt[:-1, 1:] -= bj * c
        c = nxt
    return c


def _x_poly_text(row) -> str:
    terms = []
    for p, c in enumerate(row):
        num = f"({float(c.real)!r} + {float(c.imag)!r}*i)"
        terms.append(num if p == 0 else f"{num}*pow(x, {p})")
    return " + ".join(terms)


def build_all(problems: list[Problem]) -> None:
    """Parse and build every problem: the per-problem part of set-up."""
    import rootbranch

    for p in problems:
        p.spec = rootbranch.parse_problem(p.document)
        p.built = rootbranch.build(p.spec)


def setup(workload: str, seed: int, now=perf_counter) -> tuple[list[Problem], float]:
    """Import rootbranch, then parse and build the workload's problems.

    Returns the problems and the set-up seconds.  Making the inputs from
    the seed is the benchmark's own work and is not counted.
    """
    t0 = now()
    import rootbranch  # noqa: F401

    import_s = now() - t0
    problems = make_problems(workload, seed)
    t1 = now()
    build_all(problems)
    return problems, import_s + now() - t1


def run_pass(workload: str, problems: list[Problem], out_dir: Path,
             reference: dict, now=perf_counter) -> list[Outcome]:
    """Run every problem once, in order, timed by ``now``; check each output.

    ``reference`` maps a problem name to the output of its first run;
    later runs must reproduce it byte for byte.
    """
    outcomes = []
    for p in problems:
        try:
            if workload == "fixtures":
                out = _run_fixture(p, out_dir, now)
            else:
                out = _run_poly(p, now)
        except Exception:
            # a failed problem is counted, not fatal to the run
            out = Outcome(p.name, error="raised: " + traceback.format_exc())
        if out.error is None and out.output != reference.setdefault(p.name, out.output):
            out.error = "output differs from the problem's first run"
        outcomes.append(out)
    return outcomes


def failed_fraction(outcomes: list[Outcome]) -> float:
    return sum(o.error is not None for o in outcomes) / len(outcomes)


class _Stopwatch:
    """Times cli.run's calls into the engine by replacing cli's bindings."""

    def __init__(self, cli, now):
        self.cli = cli
        self.now = now
        self.seconds = {"solve": 0.0, "resample": 0.0}

    def _timed(self, key, fn):
        def timed(*args, **kwargs):
            t0 = self.now()
            out = fn(*args, **kwargs)
            self.seconds[key] += self.now() - t0
            return out

        return timed

    def __enter__(self):
        self.saved = (self.cli.continue_branch, self.cli.resample_branch)
        self.cli.continue_branch = self._timed("solve", self.saved[0])
        self.cli.resample_branch = self._timed("resample", self.saved[1])
        return self

    def __exit__(self, *exc):
        self.cli.continue_branch, self.cli.resample_branch = self.saved


def _run_fixture(p: Problem, out_dir: Path, now) -> Outcome:
    from rootbranch import Status, cli

    out = Outcome(p.name)
    d = out_dir / p.name
    with _Stopwatch(cli, now) as watch:
        t0 = now()
        code = cli.run(p.spec, d, FIXTURE_ROWS)
        out.run_s = now() - t0
    out.solve_s = watch.seconds["solve"]
    out.resample_s = watch.seconds["resample"]
    out.output = (d / "branch.csv").read_bytes()
    out.status = json.loads((d / "summary.json").read_text())["status"]
    residual_tol = p.built[4].residual_tol
    rows = csv.DictReader(out.output.decode().splitlines())
    worst = float(np.max([float(row["residual"]) for row in rows]))  # NaN stays NaN
    if out.status != p.expected_status:
        out.error = f"verdict {out.status}, expected {p.expected_status}"
    elif code != cli.EXIT_CODES[Status(p.expected_status)]:
        out.error = f"exit code {code} does not match verdict {p.expected_status}"
    elif not worst <= residual_tol:
        out.error = f"output residual {worst:.3e} above residual_tol {residual_tol:.1e}"
    return out


def _run_poly(p: Problem, now) -> Outcome:
    import rootbranch

    out = Outcome(p.name)
    f, dom, seed_pt, z0, cfg = p.built
    t0 = now()
    branch = rootbranch.continue_branch(f, dom, seed_pt, z0, cfg)
    t1 = now()
    rows = rootbranch.resample_branch(f, branch, POLY_ROWS, cfg)
    t2 = now()
    out.solve_s, out.resample_s, out.run_s = t1 - t0, t2 - t1, t2 - t0
    out.status = branch.status.kind.value
    out.output = np.array([(s.w.real, s.w.imag, s.residual) for s in rows]).tobytes()
    if out.status != p.expected_status:
        out.error = f"verdict {out.status}, expected {p.expected_status}"
        return out
    gap, worst = _oracle_gap(p.coeffs, dom, rows)
    if len(rows) != POLY_ROWS:
        out.error = f"{len(rows)} output rows, expected {POLY_ROWS}"
    elif not worst <= cfg.residual_tol:
        out.error = f"output residual {worst:.3e} above residual_tol {cfg.residual_tol:.1e}"
    elif not gap <= ORACLE_GAP:
        out.error = f"oracle gap {gap:.3e} above {ORACLE_GAP:.0e}"
    return out


def _oracle_gap(coeffs, dom, rows) -> tuple[float, float]:
    """Largest distance from an output value to the roots np.roots finds at
    its parameter, and the largest reported residual."""
    gaps = []
    for s in rows:
        x = dom.coordinate(s.point)
        desc = [np.polyval(c[::-1], x) for c in coeffs[::-1]]
        gaps.append(np.min(np.abs(np.roots(desc) - s.w)))
    # np.max, unlike max, lets a NaN through to fail the check
    return float(np.max(gaps)), float(np.max([s.residual for s in rows]))
