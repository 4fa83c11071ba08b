"""Microbenchmarks of resample_branch, the evenly spaced output rows.

Run with::

    python -m pytest tests/bench_resample.py --benchmark-only

The file name does not match ``test_*.py``, so the default test run
(tier 1) does not collect it.  Each branch is solved once; the benchmark
times only resampling it: the arc-to-point map per segment, the
interpolated guesses and the Newton polish of every row.  Every call is
checked to give as many rows as asked, each within the residual bound.
"""

import pytest

from rootbranch import build, continue_branch, parse_problem, resample_branch

Y_TREE = {
    "kind": "tree",
    "vertices": ["c", "a", "b", "d"],
    "edges": [["c", "a", 0.5], ["c", "b", 0.5], ["c", "d", 0.5]],
}
# a monic quartic whose roots move linearly in x and stay apart, on the
# Y-tree, as the benchmark's poly-dense families are
QUARTIC = {
    "function": (
        "(z - (0.9 + 0.2*i) - (0.3 - 0.4*i)*x) * (z - (-0.8 + 0.5*i) - (0.5 + 0.1*i)*x)"
        " * (z - (0.1 - 0.9*i) - (-0.2 + 0.3*i)*x) * (z - (-0.4 - 0.6*i) + (0.4 + 0.2*i)*x)"
    ),
    "domain": Y_TREE,
    "seed": {"point": {"vertex": "c"}, "z": [0.9, 0.2]},
}
# (problem document, output rows): 1000 as poly-dense, 1200 as the CLI
CASES = {
    "poly-quartic-ytree": (QUARTIC, 1000),
    "monic-cubic-ytree": ({"fixture": "monic-cubic-ytree"}, 1200),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_resample_branch(benchmark, name):
    doc, rows = CASES[name]
    f, dom, seed, z0, cfg = build(parse_problem(doc))
    branch = continue_branch(f, dom, seed, z0, cfg)
    assert branch.completed
    out = benchmark(resample_branch, f, branch, rows)
    assert len(out) == rows
    assert max(s.residual for s in out) <= cfg.residual_tol
