"""The pytest-benchmark microbenchmarks (tests/bench_*.py) are not
collected by the default test run, since their names do not match
test_*.py.  This runs them once with timing disabled, so an API change
that breaks them fails here instead of when someone next times them."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_microbenchmarks_run():
    pytest.importorskip("pytest_benchmark")
    cmd = [
        sys.executable, "-m", "pytest",
        "tests/bench_certificate.py", "tests/bench_parse.py", "tests/bench_resample.py",
        "--benchmark-disable", "-q", "-p", "no:cacheprovider",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
