"""Command-line front end: run a problem file, emit branch CSV and summary.

Outputs land in --out (default: current directory):

``branch.csv``
    one row per output sample: segment id, arc position, edge id (or -
    for a vertex), edge-local t, re(w), im(w), residual, all floats
    printed with 17 significant digits so re-reading is loss-free.
``summary.json``
    status, status location, diagnostics, and the effective config.

Exit codes: 0 Completed, 2 AsymptoticBlowup, 3 DegenerateBarrier,
4 NonConvergent, 5 SeedInvalid, 1 usage/parse/IO error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .engine import RootBranch, Status, continue_branch, resample_branch
from .errors import ProblemSyntaxError, ProblemValidationError, SolverError
from .fixtures import list_fixtures
from .problem import ProblemSpec, build, parse_problem

__all__ = ["main", "run", "EXIT_CODES"]

EXIT_CODES = {
    Status.COMPLETED: 0,
    Status.ASYMPTOTIC_BLOWUP: 2,
    Status.DEGENERATE_BARRIER: 3,
    Status.NON_CONVERGENT: 4,
    Status.SEED_INVALID: 5,
}


def _jsonable(v):
    """v in JSON types; a non-finite float has no JSON spelling and is null."""
    if isinstance(v, complex):
        v = [v.real, v.imag]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _write_csv(path: Path, samples) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("segment,arc,edge,t,re_w,im_w,residual\n")
        for s in samples:
            if s.point.edge is not None:
                edge, t = str(s.point.edge), s.point.t
            else:
                edge, t = "-", 0.0
            fh.write(
                "%d,%.17g,%s,%.17g,%.17g,%.17g,%.17g\n"
                % (s.segment, s.arc, edge, t, s.w.real, s.w.imag, s.residual)
            )


def _summary(branch: RootBranch, spec: ProblemSpec, cfg, n_out: int) -> dict:
    loc = None
    if branch.status_location is not None:
        loc = branch.domain.describe_point(branch.status_location)
    return _jsonable(
        {
            "status": branch.status.kind.value,
            "status_location": loc,
            "diagnostics": branch.status.diagnostics,
            "config": cfg.as_dict(),
            "problem": {
                "fixture": spec.fixture,
                "function": spec.function,
                "series": list(spec.series) if spec.series else None,
            },
            "engine_samples": len(branch.samples),
            "output_samples": n_out,
            "max_residual": branch.max_residual(),
        }
    )


def run(spec: ProblemSpec, out_dir: str | Path = ".", samples: int = 1200) -> int:
    """Solve a problem spec and write branch.csv + summary.json."""
    f, dom, seed_pt, z0, cfg = build(spec)
    branch = continue_branch(f, dom, seed_pt, z0, cfg)
    out = resample_branch(f, branch, samples, cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "branch.csv", out)
    summary = _summary(branch, spec, cfg, len(out))
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return EXIT_CODES[branch.status.kind]


def _print_fixtures() -> None:
    rows = [(fx.name, fx.expected_status, fx.description) for fx in list_fixtures()]
    wn = max(len(r[0]) for r in rows)
    ws = max(len(r[1]) for r in rows)
    for name, status, desc in rows:
        print(f"{name:<{wn}}  {status:<{ws}}  {desc}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="rootbranch",
        description="Track a continuous root branch of a parametrized entire function.",
    )
    src = ap.add_mutually_exclusive_group()
    src.add_argument("--problem", metavar="PATH", help="problem file (JSON)")
    src.add_argument("--fixture", metavar="NAME", help="run a built-in problem")
    ap.add_argument("--out", metavar="DIR", default=".", help="output directory")
    ap.add_argument(
        "--samples",
        metavar="N",
        type=int,
        default=1200,
        help="resampled output density (default 1200)",
    )
    ap.add_argument(
        "--list-fixtures", action="store_true", help="list built-in problems and exit"
    )
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, AsymptoticBlowup's code here
        if e.code != 2:
            raise
        return 1

    if args.list_fixtures:
        _print_fixtures()
        return 0
    if not args.problem and not args.fixture:
        ap.print_usage(sys.stderr)
        print("rootbranch: error: --problem or --fixture is required", file=sys.stderr)
        return 1
    if args.samples < 2:
        print("rootbranch: error: --samples must be at least 2", file=sys.stderr)
        return 1

    try:
        if args.fixture:
            spec = parse_problem({"fixture": args.fixture})
        else:
            spec = parse_problem(Path(args.problem).read_bytes())
        return run(spec, args.out, args.samples)
    except ProblemSyntaxError as e:
        print(f"rootbranch: syntax error: {e}", file=sys.stderr)
        return 1
    except (ProblemValidationError, ValueError, KeyError) as e:
        print(f"rootbranch: invalid problem: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"rootbranch: {e}", file=sys.stderr)
        return 1
    except SolverError as e:
        print(f"rootbranch: solver error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
