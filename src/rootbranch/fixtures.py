"""Built-in problems with known continuation behavior.

Each fixture is a complete problem document, the same JSON a problem file
holds, plus the status its run is expected to reach under the default
configuration.  They double as regression anchors for the engine's
termination classification.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Fixture", "get_fixture", "fixture_names", "list_fixtures"]


class Fixture(NamedTuple):
    name: str
    description: str
    expected_status: str
    problem: dict


def _interval_problem(function: str, x0: float, z0: list[float]) -> dict:
    return {
        "function": function,
        "domain": {"kind": "interval"},
        "seed": {"x": x0, "z": z0},
    }


# Example 2: phi(e) = e*exp(-e) of z, minus phi of a parameter curve,
# 4x e^{i pi (2x-1)/2} up to the half-way point (image stays off the value
# 1), then 1/(1-x), which escapes to infinity
_EXAMPLE2 = (
    "guard(1.0; z*exp(-z); z*exp(-z) - split(0.5;"
    " 4.0*x*exp(1.5707963267948966*i*(2.0*x - 1.0))"
    "*exp(-(4.0*x*exp(1.5707963267948966*i*(2.0*x - 1.0))));"
    " pow(1.0 - x, -1)*exp(-pow(1.0 - x, -1))))"
)

# the monic cubic (z - r1)(z - r2)(z - r3) with root curves r1 = 1 + x/4,
# r2 = -1 + ix/2, r3 = -i/4 + x/2, pairwise separation >= ~0.5; its
# coefficients -r1 r2 r3, r1 r2 + r1 r3 + r2 r3, -(r1 + r2 + r3), 1.  Dyadic
# coefficients keep parse/eval round-trips exact
_CUBIC_SERIES = [
    "-((1.0 + 0.25*x)*(-1.0 + 0.5*i*x)*(-0.25*i + 0.5*x))",
    "(1.0 + 0.25*x)*(-1.0 + 0.5*i*x) + (1.0 + 0.25*x)*(-0.25*i + 0.5*x)"
    " + (-1.0 + 0.5*i*x)*(-0.25*i + 0.5*x)",
    "-(1.0 + 0.25*x + (-1.0 + 0.5*i*x) + (-0.25*i + 0.5*x))",
    "1.0",
]

_FIXTURES = [
    Fixture(
        "counterexample-x2z-x",
        "pow(x, 2)*z - x: the tracked root 1/x escapes to infinity as x -> 0",
        "AsymptoticBlowup",
        _interval_problem("pow(x, 2)*z - x", 1.0, [1.0, 0.0]),
    ),
    Fixture(
        "remark-exp",
        "exp(x*z) - 1 seeded on the zero branch, which continues across the whole interval",
        "Completed",
        _interval_problem("exp(x*z) - 1.0", 1.0, [0.0, 0.0]),
    ),
    Fixture(
        "remark-exp-asymptotic",
        "exp(x*z) - 1 seeded at 2*pi*i: the branch 2*pi*i/x escapes as x -> 0",
        "AsymptoticBlowup",
        _interval_problem("exp(x*z) - 1.0", 1.0, [0.0, 6.283185307179586]),
    ),
    Fixture(
        "example1-sin",
        "branch sin(1/x) oscillates without a limit at x = 0, where the function degenerates",
        "NonConvergent",
        _interval_problem(
            "guard(0.0; 0.0; x*(exp(z) - exp(sin(pow(x, -1)))))",
            1.0,
            [0.8414709848078965, 0.0],  # sin(1)
        ),
    ),
    Fixture(
        "example2-phi",
        "z*exp(-z) matched against a parameter curve whose value escapes as x -> 1",
        "AsymptoticBlowup",
        _interval_problem(_EXAMPLE2, 0.0, [0.0, 0.0]),
    ),
    Fixture(
        "monic-sqrt",
        "pow(z, 2) - x seeded exactly at the double root; deterministic tie-break picks -sqrt(x)",
        "Completed",
        _interval_problem("pow(z, 2) - x", 0.0, [0.0, 0.0]),
    ),
    Fixture(
        "monic-cubic-interval",
        "monic cubic with polynomial coefficient curves and three well-separated roots",
        "Completed",
        {
            "series": _CUBIC_SERIES,
            "domain": {"kind": "interval"},
            "seed": {"x": 0.0, "z": [1.0, 0.0]},
        },
    ),
    Fixture(
        "monic-cubic-ytree",
        "the same monic cubic followed outward over a three-leaf star tree",
        "Completed",
        {
            "series": _CUBIC_SERIES,
            "domain": {
                "kind": "tree",
                "vertices": ["c", "a", "b", "d"],
                "edges": [["c", "a", 0.5], ["c", "b", 0.5], ["c", "d", 0.5]],
            },
            "seed": {"point": {"vertex": "c"}, "z": [1.0, 0.0]},
        },
    ),
]

_REGISTRY = {fx.name: fx for fx in _FIXTURES}


def fixture_names() -> list[str]:
    return sorted(_REGISTRY)


def get_fixture(name: str) -> Fixture:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")


def list_fixtures() -> list[Fixture]:
    """All built-ins, stable-sorted by name."""
    return [_REGISTRY[n] for n in fixture_names()]
