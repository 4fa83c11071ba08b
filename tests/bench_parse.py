"""Microbenchmarks of parse_problem, the set-up of every run.

Run with::

    python -m pytest tests/bench_parse.py --benchmark-only

The file name does not match ``test_*.py``, so the default test run
(tier 1) does not collect it.  One benchmark parses a degree-5 monic
``series`` document whose roots move linearly in x, its coefficients
written as the benchmark's poly-dense families write them: one
``(re + im*i)*pow(x, p)`` term per power of x, and reports how many
expression nodes one parse constructs (``node_constructions`` in the
benchmark's extra info, which ``--benchmark-json`` writes).  The others
parse each fixture's document.  Every parsed series is checked against
the product it expands, and every fixture's spec against its own
rendering.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from rootbranch import build, fixture_names, get_fixture, parse_problem, render
from rootbranch.expressions import Const, Pow, X, Z, _Binary, _Switch, _Unary

RNG = np.random.default_rng(5)
DEG = 5
A = RNG.uniform(-1.2, 1.2, DEG) + 1j * RNG.uniform(-1.2, 1.2, DEG)
B = RNG.uniform(-0.6, 0.6, DEG) + 1j * RNG.uniform(-0.6, 0.6, DEG)


@contextmanager
def counting_nodes():
    """A list that gets the class name of every expression node constructed
    in the block: every node class's __init__ is wrapped, its own or the
    one it inherits."""
    built = []
    shapes = (Const, X, Z, _Unary, _Binary, Pow, _Switch)
    own = {cls: cls.__dict__.get("__init__") for cls in shapes}

    def counted(init):
        def init_counted(self, *fields):
            built.append(type(self).__name__)
            init(self, *fields)

        return init_counted

    for cls in shapes:
        cls.__init__ = counted(cls.__init__)
    try:
        yield built
    finally:
        for cls, init in own.items():
            if init is None:
                del cls.__init__
            else:
                cls.__init__ = init


def _monic_series_document(a, b) -> dict:
    """prod_j (z - a_j - b_j x) as a series in z with x-polynomial
    coefficients, on the interval, seeded at the root a_0."""
    # c[k, p]: coefficient of z**k x**p
    c = np.ones((1, 1), dtype=np.complex128)
    for aj, bj in zip(a, b):
        nxt = np.zeros((c.shape[0] + 1, c.shape[1] + 1), dtype=np.complex128)
        nxt[1:, :-1] += c
        nxt[:-1, :-1] -= aj * c
        nxt[:-1, 1:] -= bj * c
        c = nxt
    texts = []
    for row in c:
        terms = [f"({float(v.real)!r} + {float(v.imag)!r}*i)" for v in row]
        texts.append(" + ".join(t if p == 0 else f"{t}*pow(x, {p})" for p, t in enumerate(terms)))
    return {
        "series": texts,
        "domain": {"kind": "interval"},
        "seed": {"x": 0.0, "z": [float(a[0].real), float(a[0].imag)]},
    }


def test_parse_monic_series(benchmark):
    doc = _monic_series_document(A, B)
    with counting_nodes() as built:
        parse_problem(doc)
    benchmark.extra_info["node_constructions"] = len(built)
    spec = benchmark(parse_problem, doc)
    f = build(spec)[0]
    x, z = 0.3, 0.2 + 0.1j
    assert f.eval(x, z) == pytest.approx(np.prod(z - A - B * x), rel=1e-12)


@pytest.mark.parametrize("name", fixture_names())
def test_parse_fixture(benchmark, name):
    doc = get_fixture(name).problem
    spec = benchmark(parse_problem, doc)
    assert spec.expr is not None and parse_problem(render(spec)) == spec
