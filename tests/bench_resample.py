"""Microbenchmarks of resample_branch, the evenly spaced output rows.

Run with::

    python -m pytest tests/bench_resample.py --benchmark-only

The file name does not match ``test_*.py``, so the default test run
(tier 1) does not collect it.  Each branch is solved once; the benchmark
times only resampling it: the arc-to-point map per segment, the
interpolated guesses and the Newton polish of every row.  Every call is
checked to give as many rows as asked, each within the residual bound.
A second benchmark times the row-building layer alone: PathSegment.points_at
over 1000 arcs of one Y-tree segment.
"""

import numpy as np
import pytest

from rootbranch import (
    DomainPoint,
    ParamDomain,
    build,
    continue_branch,
    parse_problem,
    resample_branch,
)

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


def test_points_at(benchmark):
    dom = ParamDomain.tree(Y_TREE["vertices"], Y_TREE["edges"])
    a, b = dom.vertex_point("a"), dom.vertex_point("b")
    seg = next(sw.segment for sw in dom.sweep_targets(a) if sw.segment.b == b)
    # from a, through the junction c, to b
    arcs = np.linspace(0.0, seg.length, 1000)
    points, x = benchmark(seg.points_at, arcs)
    assert len(points) == len(x) == 1000
    assert all(type(p) is DomainPoint for p in points)
    assert points[0] == a and points[-1] == b
