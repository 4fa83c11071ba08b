"""Self-test of the benchmark's checks and tracer.

Run from the repository root (takes about a minute)::

    python3 perfbench/selftest.py

It checks that

1. tracing leaves every fixture's verdict and CSV bytes unchanged;
2. the step counters add up (proposals = accepted steps + rejections) on
   both workloads, and each fixture's traced accepted steps equal the
   count the engine reports in its summary, where it reports one;
3. a check fed a deliberately wrong expected status counts the problem as
   failed, so the failed fraction becomes non-zero.

Exits 0 when all hold, 1 otherwise.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from run import OUT  # first: sets the thread limits and the path to src
import workloads
from tracer import Tracer


def _traced(workload, problems, out_dir, reference):
    with Tracer() as tracer:
        outcomes = workloads.run_pass(workload, problems, out_dir, reference)
    _, per_solve, errors = tracer.metrics()
    return outcomes, per_solve, errors


def main() -> int:
    problems = []
    for workload in workloads.WORKLOADS:
        problems.append(workloads.setup(workload, 0)[0])
    fixtures, polys = problems
    bad = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out_dir = Path(tmp)
        reference = {}
        plain = workloads.run_pass("fixtures", fixtures, out_dir, reference)
        traced, per_solve, errors = _traced("fixtures", fixtures, out_dir, reference)
        bad += errors
        for a, b, steps in zip(plain, traced, per_solve):
            if a.error or b.error:
                bad.append(f"{a.problem}: {a.error or b.error}")
            if a.status != b.status:
                bad.append(f"{a.problem}: verdict {a.status} untraced, {b.status} traced")
            summary = json.loads((out_dir / a.problem / "summary.json").read_text())
            reported = summary["diagnostics"].get("accepted_steps", steps)
            if reported != steps:
                bad.append(f"{a.problem}: traced {steps} accepted steps, engine reports {reported}")

        _, _, errors = _traced("poly-dense", polys[:8], out_dir, {})
        bad += errors

        fx = next(p for p in fixtures if p.expected_status != "NonConvergent")
        wrong = dataclasses.replace(fx, expected_status="NonConvergent")
        outcomes = workloads.run_pass("fixtures", [wrong], out_dir, {})
        if workloads.failed_fraction(outcomes) == 0.0:
            bad.append(f"{fx.name}: a wrong expected status was not counted as failed")

    for line in bad:
        print("FAIL " + line)
    print("selftest " + ("failed" if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
