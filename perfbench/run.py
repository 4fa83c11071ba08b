"""Benchmark of rootbranch: run one workload and print its metrics.

Run from the repository root (the package is used from ``src``, not
installed)::

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload poly-dense --seed 1 --seconds 30 --trace 1

Workloads are listed in ``workloads.py``.  One process runs everything on a
single thread, as a closed loop with one caller.

``--trace 0`` measures end-to-end metrics with tracing off, in reference
seconds (see ``clock.py``): wall time corrected for the speed of the shared
machine, which drifts by up to a factor of two.  Set-up (import rootbranch,
numpy being loaded already, then parse and build every problem) is timed
once in this process and in four fresh child interpreters; ``setup_s`` is
the median.  Then whole passes over the workload run for as long as the
next one is expected to end within ``--seconds``, and at least once (twice
for ``fixtures``); a repeated problem must reproduce its first output.  A
time is each problem's median over the passes, summed over the workload.
``branch_p50_s`` and ``branch_p75_s`` are percentiles of those per-problem
solve-plus-resample times: 40 samples on ``poly-dense`` (ten lie beyond
p75), 8 on ``fixtures``.  ``failed_fraction`` (failed over attempted
problem runs) is printed and stored; it is not a metric of the JSON line,
whose metrics must never read 0.

``--trace 1`` runs one untraced pass, then set-up and one pass again with
every call into rootbranch's modules traced (see ``tracer.py``), and
reports per-layer metrics in wall seconds.  The traced pass must write the
same outputs and reach the same verdicts as the untraced one, and the step
counters must add up.

Every output is checked (see ``workloads.py``).  A failed check counts the
problem as failed without stopping the run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Full results, machine information and spans are written
under ``.perfbench/`` in the repository root.
"""

import os

# before numpy is imported, here or in a child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
# fixtures twice, so that each CSV is compared byte for byte with its first run
MIN_PASSES = {"fixtures": 2, "poly-dense": 1}

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from clock import ReferenceClock  # noqa: E402


def _setup_sample(workload: str, seed: int) -> list[float]:
    """Set-up seconds in fresh interpreters, each importing rootbranch anew."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def _passes(workload, problems, seconds, out_dir, now):
    """Whole passes while the next one is expected to end within ``seconds``
    of wall time; ``now`` times the problems."""
    reference = {}
    passes = []
    t0 = last = perf_counter()
    while True:
        passes.append(workloads.run_pass(workload, problems, out_dir, reference, now))
        wall = perf_counter()
        if len(passes) >= MIN_PASSES[workload] and wall + (wall - last) - t0 > seconds:
            return passes
        last = wall


def _end_to_end(passes, setup_times) -> tuple[dict, dict]:
    """Each problem's median over the passes, summed; set-up median."""
    runs = {}
    for o in (o for p in passes for o in p if o.status):
        runs.setdefault(o.problem, []).append(o)

    def per_problem(time_of):
        return [statistics.median(time_of(o) for o in rs) for rs in runs.values()]

    latency = per_problem(lambda o: o.solve_s + o.resample_s)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (sum(per_problem(lambda o: o.solve_s)), "s"),
        "resample_s": (sum(per_problem(lambda o: o.resample_s)), "s"),
        "run_s": (sum(per_problem(lambda o: o.run_s)), "s"),
        "branch_p50_s": (statistics.median(latency), "s"),
        "branch_p75_s": (statistics.quantiles(latency, n=4)[2], "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"passes": len(passes), "branch_samples": len(latency),
               "setup_samples": len(setup_times),
               "runs": {name: [(o.solve_s, o.resample_s, o.run_s) for o in rs]
                        for name, rs in runs.items()}}
    return metrics, samples


def _per_layer(untraced, traced, tracer) -> tuple[dict, list[str]]:
    import rootbranch

    layer, per_solve, errors = tracer.metrics()
    metrics = {k: (v, _unit(k)) for k, v in layer.items()}
    solved = [o.problem for o in traced if o.status]
    if len(solved) != len(per_solve):
        errors.append(f"{len(per_solve)} traced solves for {len(solved)} problems")
    steps = dict(zip(solved, per_solve))
    ran = {o.problem: o for o in untraced}
    for name in rootbranch.fixture_names():
        o = ran.get(name, workloads.Outcome(name))
        metrics[f"fixture.{name}.solve_s"] = (o.solve_s, "s")
        metrics[f"fixture.{name}.resample_s"] = (o.resample_s, "s")
        metrics[f"fixture.{name}.accepted_steps"] = (steps.get(name, 0), "count")
    base = sum(o.run_s for o in untraced)
    with_trace = sum(o.run_s for o in traced)
    metrics["trace.untraced_run_s"] = (base, "s")
    metrics["trace.traced_run_s"] = (with_trace, "s")
    metrics["trace.overhead"] = (with_trace / base, "ratio")
    return metrics, errors


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "commit": _commit()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "rootbranch" / "__init__.py").is_file():
        print(f"perfbench: no rootbranch sources under {SRC}", file=sys.stderr)
        return 2
    with ReferenceClock() as clock:
        problems, setup_s = workloads.setup(args.workload, args.seed, clock.now)
    if args.setup_only:
        print(repr(setup_s))
        return 0

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            from tracer import Tracer

            reference = {}
            untraced = workloads.run_pass(args.workload, problems, Path(tmp), reference)
            with Tracer() as tracer:
                workloads.build_all(problems)
                traced = workloads.run_pass(args.workload, problems, Path(tmp), reference)
            metrics, errors = _per_layer(untraced, traced, tracer)
            outcomes = untraced + traced
            samples = {"passes": 2}
            tracer.save(OUT / f"spans-{args.workload}.npz")
        else:
            setup_times = [setup_s] + _setup_sample(args.workload, args.seed)
            with ReferenceClock() as clock:
                passes = _passes(args.workload, problems, args.seconds, Path(tmp),
                                 clock.now)
            metrics, samples = _end_to_end(passes, setup_times)
            samples["kernel_median_s"] = statistics.median(clock.kernel_s)
            outcomes = [o for p in passes for o in p]
            errors = []

    failures = [o for o in outcomes if o.error]
    result = {
        "correct": not failures and not errors,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": _machine(), "samples": samples,
              "failed_fraction": workloads.failed_fraction(outcomes),
              "failures": [f"{o.problem}: {o.error}" for o in failures],
              "errors": errors, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in {**report["machine"], **samples}.items()
                     if k != "runs"))
    for k, (v, u) in metrics.items():
        print(f"{k:48s} {v:>16.6g} {u}")
    print(f"{'failed_fraction':48s} {report['failed_fraction']:>16.6g} "
          f"({len(failures)} of {len(outcomes)} problem runs)")
    for line in report["failures"] + errors:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
