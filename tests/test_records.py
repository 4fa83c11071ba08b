"""Every record kind of the package: its fields are read-only, and it
compares as the frozen dataclass it replaced did.  Value records are named
tuples; Circle, ContourData, MonicPoly, LocalFactorization, ProblemSpec,
and TerminationStatus subclass one to check, cache or compare;
expression nodes are plain __slots__ classes."""

import pytest

from rootbranch import (
    Circle,
    EngineConfig,
    LocalFactorization,
    MonicPoly,
    ParamDomain,
    ProblemSpec,
    Status,
    TerminationStatus,
    continue_branch,
    extend_segment,
    get_fixture,
    match_root,
    parse_expression,
    parse_problem,
    select_radius,
    validate_step,
)
from rootbranch.engine import _step_root
from rootbranch.expressions import Add, Const, EntireFunction, Sub, X, Z, walk

DOC = {
    "function": "pow(z, 2) - x - 1",
    "domain": {"kind": "interval"},
    "seed": {"x": 0.0, "z": [1.0, 0.0]},
}

# every expression node kind
NODES = "guard(1.0; -sin(z)*cos(x); split(0.5; exp(z) + 2.0; pow(z, 3) - x))"


def every_record():
    """One record of each kind, most of them from a short real run."""
    spec = parse_problem(DOC)
    f = EntireFunction(spec.expr)
    dom = ParamDomain.interval()
    loc = select_radius(f, 0.0, 1.0, 0.25)
    check = validate_step(f, loc, 0.01)
    branch = continue_branch(f, dom, dom.interval_point(0.0), 1.0 + 0j)
    sweep = branch.sweeps[0]
    return {
        "Circle": loc.circle,
        "ContourData": loc.sample.coarse,
        "CircleSample": loc.sample,
        "MonicPoly": loc.poly,
        "Edge": dom.edges[0],
        "DomainPoint": branch.samples[1].point,
        "Piece": sweep.segment.pieces[0],
        "PathSegment": sweep.segment,
        "SweepSegment": sweep,
        "TerminationStatus": branch.status,
        "BranchSample": branch.samples[1],
        "RootBranch": branch,
        "RootMatch": match_root([1 + 0j], 1 + 0j),
        "EngineConfig": EngineConfig(),
        "SegmentRun": extend_segment(f, sweep, 1.0 + 0j),
        "Step": _step_root(f, loc, 0.01, 1.0 + 0j, 0, 1e-8),
        "Fixture": get_fixture("monic-sqrt"),
        "LocalFactorization": loc,
        "StepValidation": check,
        "ProblemSpec": spec,
        **{type(e).__name__: e for e in walk(parse_expression(NODES))},
    }


def test_every_record_refuses_assignment_to_a_field():
    records = every_record()
    kinds = "Const X Z Add Sub Mul Neg Pow Exp Sin Cos Guard Split"
    assert set(kinds.split()) <= set(records)
    for kind, rec in records.items():
        assert rec._fields or kind in ("X", "Z"), kind
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        del records["Add"].a
    with pytest.raises(AttributeError):
        records["X"].a = Z()
    # ContourData's arrays are read-only too, also after _replace
    data = records["ContourData"]
    for a in (data.z, data.f, data.fz, data._replace(f=data.f.copy()).f):
        with pytest.raises(ValueError):
            a[0] = 0


def test_records_compare_as_before():
    a, b = X(), Const(2.0)
    # expression trees field by field, within one node class
    assert parse_expression("z*x + 1") == parse_expression("z*x + 1")
    assert hash(parse_expression("z*x + 1")) == hash(parse_expression("z*x + 1"))
    assert Add(a, b) == Add(X(), Const(2.0)) and Add(a, b) != Sub(a, b)
    assert Const(2.0) != (2.0,) and X() != Z() and bool(X()) and bool(Z())
    with pytest.raises(TypeError):
        Add(a)
    # Circle and MonicPoly field by field, and checked
    assert Circle(0j, 1.0) == Circle(0j, 1.0, 128) != Circle(0j, 2.0)
    assert MonicPoly((1, 2j)) == MonicPoly((1, 2j)) != MonicPoly((1, 2j), 1.0)
    for bad in (lambda: Circle(0j, 0.0), lambda: Circle(0j, 1.0, 100),
                lambda: Circle(0j, 1.0)._replace(radius=-1.0),
                lambda: MonicPoly((1,)), lambda: MonicPoly((2, 1)),
                lambda: MonicPoly((1, 1))._replace(coeffs=(2, 1))):
        with pytest.raises(ValueError):
            bad()
    # a certificate equals only itself
    loc = every_record()["LocalFactorization"]
    twin = LocalFactorization(*loc)
    assert loc == loc and not loc != loc
    assert loc != twin and not loc == twin and hash(loc) != hash(twin)
    assert loc != tuple(loc)
    # a spec's expr takes no part in equality
    spec = parse_problem(DOC)
    bare = spec._replace(expr=None)
    assert bare == spec and not bare != spec
    with pytest.raises(TypeError):
        hash(spec)  # its JSON parts are dicts
    assert spec != spec._replace(config={"max_steps": 5})


def test_dict_defaults_are_per_record():
    s1, s2 = TerminationStatus(Status.COMPLETED), TerminationStatus(Status.COMPLETED)
    assert s1.diagnostics == {} and s1.diagnostics is not s2.diagnostics
    p1, p2 = ProblemSpec(), ProblemSpec()
    assert p1.config == {} and p1.config is not p2.config
    # EngineConfig's defaults are read off the record, not the class
    assert EngineConfig._field_defaults["max_steps"] == EngineConfig().max_steps == 8000
