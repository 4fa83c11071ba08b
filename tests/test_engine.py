import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootbranch import (
    BranchSample,
    EngineConfig,
    EntireFunction,
    OutOfDomainError,
    ParamDomain,
    Status,
    build,
    continue_branch,
    fixture_names,
    get_fixture,
    local_monic_factor,
    match_root,
    parse_expression,
    parse_problem,
    polish_root,
    resample_branch,
)
from rootbranch import engine
from rootbranch.cli import main
from rootbranch.contour import sample_contour
from bench_resample import CASES as RESAMPLE_CASES
from test_domain import trees
from test_tracer_sites import SERIES_PROBLEM


def f_of(text):
    return EntireFunction(parse_expression(text))


def test_match_root_nearest():
    m = match_root([0.51, -0.49], 0.5)
    assert not m.ambiguous
    assert m.value == pytest.approx(0.51)


def test_match_root_tie_is_ambiguous():
    m = match_root([1 + 1j, 1 - 1j], 1.0)
    assert m.ambiguous
    assert m.value is None


def test_match_root_cluster_takes_centroid():
    m = match_root([0.3, 0.3000001], 0.5)
    assert not m.ambiguous
    assert m.value == pytest.approx(0.30000005, abs=1e-12)


def test_match_root_singleton():
    m = match_root([2.0 + 1.0j], 100.0)
    assert not m.ambiguous and m.value == 2.0 + 1.0j


def test_polish_root_newton():
    f = f_of("pow(z, 2) - x")
    w, res = polish_root(f, 0.25, 0.51)
    assert abs(w - 0.5) < 1e-12
    assert res < 1e-12


def _interval_run(text, x0, z0):
    f = f_of(text)
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(x0), z0)
    return br, br.status.diagnostics


def test_start_above_the_blowup_threshold_ends_after_one_step():
    # the README example: every accepted sample is tested against the hard
    # threshold where it is appended, so the first step ends the run
    br, d = _interval_run("z - 1e9", 0.0, 1e9)
    assert br.status.kind is Status.ASYMPTOTIC_BLOWUP
    assert d["accepted_steps"] == 1
    assert d["max_abs_w"] == 1e9 and d["last_residual"] == 0.0


def test_classify_degenerate_barrier():
    # w = 1 solves F for every x, and F(0.25, z) is identically 0: the step
    # underflows just short of 0.25, where the stall's probe sees a constant
    br, d = _interval_run("pow(x - 0.25, 2)*(z - 1)", 0.0, 1.0)
    assert br.status.kind is Status.DEGENERATE_BARRIER
    assert d["reason"] == "step size underflow"
    assert d["accepted_steps"] == 102
    assert d["x_limit"] == pytest.approx(0.25, abs=1e-9)
    assert abs(d["constant"]) < 1e-20
    assert d["window_diameter"] == 0.0
    assert "at_seed" not in d


def test_classify_oscillation():
    # w = sqrt(x - 0.25) from x = 1 reaches the branch point at 0.25 with a
    # window wider than OSC_TOL, and z -> F(0.25, z) is not constant; the
    # diameter depends on where the steps near the branch point land
    br, d = _interval_run("pow(z, 2) - (x - 0.25)", 1.0, math.sqrt(0.75))
    assert br.status.kind is Status.NON_CONVERGENT
    assert d["reason"] == "step size underflow"
    assert d["window_diameter"] == pytest.approx(1.43e-5, rel=1e-2)
    assert d["window_diameter"] > engine.OSC_TOL
    assert d["x_limit"] == pytest.approx(0.25, abs=1e-9)
    assert "converged_window" not in d


def test_stall_with_a_converged_window_is_nonconvergent_after_its_retries():
    # the double root at x = 0 splits as 100 +- sqrt(x): the step underflows
    # near the seed with a window narrower than OSC_TOL, every retry too
    br, d = _interval_run("pow(z - 100, 2) - x", 0.0, 100.0)
    assert br.status.kind is Status.NON_CONVERGENT
    assert d["converged_window"] is True
    assert d["window_diameter"] <= engine.OSC_TOL
    assert d["accepted_steps"] == 8
    assert "x_limit" not in d


@pytest.mark.parametrize("scale", ["1e-05", "1.78e-05", "3.16e-05", "5.62e-05"])
def test_stall_retry_gets_past_a_converged_stall(monkeypatch, scale):
    # the double root at x = 0 stalls the first step; a fresh step passes it
    text = f"pow({scale}*z, 2) - x"
    br, d = _interval_run(text, 0.0, 0.0)
    assert br.completed
    if scale == "1e-05":
        assert d["accepted_steps"] == 131
    monkeypatch.setattr(engine, "STALL_RETRIES", 0)
    br, d = _interval_run(text, 0.0, 0.0)
    assert br.status.kind is Status.NON_CONVERGENT
    assert d["converged_window"] is True
    assert d["accepted_steps"] == 0


def test_continue_branch_interval_quadratic():
    f = f_of("pow(z, 2) - x")
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(0.25), 0.5)
    assert br.status.kind is Status.COMPLETED
    assert br.max_residual() < 1e-8
    # covers both directions; w = +sqrt(x) branch everywhere
    for s in br.samples:
        x = dom.coordinate(s.point)
        assert abs(s.w - np.sqrt(x)) < 1e-6


def test_continue_branch_seed_invalid():
    # exp has no zeros, so no amount of polishing makes this seed a root
    f = f_of("exp(z) + x - x")
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(0.25), 3.0)
    assert br.status.kind is Status.SEED_INVALID
    assert br.status.diagnostics["seed_residual"] > br.status.diagnostics["seed_tolerance"]


def test_continue_branch_degenerate_seed():
    f = f_of("x*x*z - x")
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(0.0), 1.0)
    assert br.status.kind is Status.DEGENERATE_BARRIER
    assert br.status.diagnostics.get("at_seed") is True


def test_continue_branch_from_double_root_is_deterministic():
    f = f_of("pow(z, 2) - x")
    dom = ParamDomain.interval()
    runs = [continue_branch(f, dom, dom.interval_point(0.0), 0.0) for _ in range(2)]
    assert all(r.status.kind is Status.COMPLETED for r in runs)
    assert runs[0].samples == runs[1].samples
    w_end = [s.w for s in runs[0].samples if s.arc == pytest.approx(1.0)]
    assert w_end and abs(w_end[0] ** 2 - 1.0) < 1e-8


JUNCTION_TREES = (
    # the Y-tree
    (["c", "a", "b", "d"], [["c", "a", 0.5], ["c", "b", 0.5], ["c", "d", 0.5]]),
    # a path whose middle vertex has degree 2
    (["a", "b", "c"], [["a", "b", 0.4], ["b", "c", 0.7]]),
    # two branch vertices p and q, based at a leaf
    (
        ["a", "p", "b", "q", "c", "d"],
        [["a", "p", 0.3], ["p", "b", 0.6], ["p", "q", 0.5], ["q", "c", 0.4], ["d", "q", 0.2]],
    ),
)


def test_continue_branch_tree_junction_consistent():
    # exact branch w = 1 + coordinate on the whole tree, from every vertex
    # and from two points on every edge, so that later segments resume at
    # junctions that earlier ones must step onto exactly
    f = f_of("z - 1.0 - x")
    resumed = 0
    for vertices, edges in JUNCTION_TREES:
        dom = ParamDomain.tree(vertices, edges)
        seeds = [dom.vertex_point(v) for v in vertices]
        seeds += [dom.edge_point(e, t) for e in range(len(edges)) for t in (0.3, 0.5)]
        for x0 in seeds:
            br = continue_branch(f, dom, x0, 1.0 + dom.coordinate(x0))
            assert br.status.kind is Status.COMPLETED
            fresh = sum(sw.segment.length - sw.resume_arc for sw in br.sweeps)
            assert fresh == pytest.approx(sum(e[2] for e in edges), abs=1e-12)
            resumed += sum(sw.resume_arc > 0.0 for sw in br.sweeps)
            out = resample_branch(f, br, 90)
            assert len(out) == 90
            values = {}
            for s in (*br.samples, *out):
                assert abs(s.w - (1.0 + dom.coordinate(s.point))) <= 1e-12
            for s in br.samples:
                values.setdefault(s.point, set()).add(s.w)
            assert all(len(ws) == 1 for ws in values.values())
    assert resumed > 0


def _assert_twins_replay_their_source(f, dom, x0, z0):
    """Run continue_branch and check each twin against a run of its own.

    Each sweep's start value is rebuilt by the rule without twins: the
    seed's value at arc 0, else the first value recorded at its resume
    point, a twin's values taken from its source's samples at its own
    points.  extend_segment run on a twin from that value must give its
    source's (arc, w, residual) sequence bit for bit and equal counts.
    Returns the branch.
    """
    br = continue_branch(f, dom, x0, z0)
    assert br.status.kind is Status.COMPLETED
    source = dict(br.twins)
    ran = sorted({s.segment for s in br.samples})
    assert sorted([*ran, *source]) == list(range(len(br.sweeps)))
    assert all(s in ran and s < t for t, s in br.twins)
    d = br.status.diagnostics
    assert d["twin_segments"] == len(br.twins)
    assert d["accepted_steps"] == len(br.samples) - len(ran)
    raws = {i: [s for s in br.samples if s.segment == i] for i in ran}
    values = {x0: polish_root(f, dom.coordinate(x0), complex(z0))[0]}
    starts = []
    for i, sw in enumerate(br.sweeps):
        starts.append(values[sw.segment.point_at(sw.resume_arc)])
        for smp in raws[source.get(i, i)]:
            values.setdefault(sw.segment.point_at(smp.arc), smp.w)

    def bits(samples):
        return [(s.arc.hex(), s.w.real.hex(), s.w.imag.hex(), s.residual.hex()) for s in samples]

    for t, s in br.twins:
        src = engine.extend_segment(f, br.sweeps[s], starts[s], seg_index=s)
        assert bits(src.samples) == bits(raws[s])
        twin = engine.extend_segment(f, br.sweeps[t], starts[t], seg_index=t)
        assert twin.completed
        assert bits(twin.samples) == bits(raws[s])
        assert twin.counts == src.counts
        assert [p.point for p in twin.samples] == [
            br.sweeps[t].segment.point_at(p.arc) for p in twin.samples
        ]
    return br


def _assert_rows_are_one_plus_x(f, dom, br):
    """Every segment, twins included, has rows, each on w = 1 + x."""
    out = resample_branch(f, br, 40 * len(br.sweeps))
    assert {s.segment for s in out} == set(range(len(br.sweeps)))
    for s in out:
        x = dom.coordinate(s.point)
        assert abs(s.w - (1.0 + x)) <= 1e-12 * (1.0 + x)


@settings(max_examples=40, deadline=None)
@given(
    dom=trees(lengths=st.sampled_from([0.1, 0.3]), flips=st.just(False)),
    data=st.data(),
    t=st.sampled_from([0.25, 0.5]),
)
def test_twin_segments_replay_their_source_on_random_trees(dom, data, t):
    # the exact branch w = 1 + x; edges of two lengths, all directed away
    # from the vertex they were attached to, give about one tree in four
    # a twin, and lengths that are not dyadic make depths depend on rounding
    f = f_of("z - 1.0 - x")
    if data.draw(st.booleans()):
        x0 = dom.vertex_point(data.draw(st.integers(0, len(dom.vertex_names) - 1)))
    else:
        x0 = dom.edge_point(data.draw(st.integers(0, len(dom.edges) - 1)), t)
    br = _assert_twins_replay_their_source(f, dom, x0, 1.0 + dom.coordinate(x0))
    _assert_rows_are_one_plus_x(f, dom, br)


def _two_level_tree(l3):
    """Root r, children c1 and c2, leaves l1, l2 under c1 and l3, l4 under
    c2; every edge 0.5 long but c2-l3, which is l3 long."""
    return ParamDomain.tree(
        ["r", "c1", "c2", "l1", "l2", "l3", "l4"],
        [["r", "c1", 0.5], ["r", "c2", 0.5], ["c1", "l1", 0.5],
         ["c1", "l2", 0.5], ["c2", "l3", l3], ["c2", "l4", 0.5]],
    )


def test_segments_resume_on_a_twin_of_a_symmetric_tree():
    # the sweep to l3 is a twin of the one to l1, and the sweep to l4
    # resumes at c2, a stop on that twin
    dom = _two_level_tree(0.5)
    f = f_of("z - 1.0 - x")
    br = _assert_twins_replay_their_source(f, dom, dom.vertex_point("r"), 1.0)
    _assert_rows_are_one_plus_x(f, dom, br)
    assert br.twins == ((2, 0), (3, 1))
    assert br.sweeps[3].segment.point_at(br.sweeps[3].resume_arc) == dom.vertex_point("c2")
    assert br.sweeps[2].stops == (br.sweeps[3].resume_arc,)


def test_equal_paths_twin_only_on_equal_resume_arcs_and_stops():
    # the constant branch w = 1 starts every sweep from the same bits, and
    # the three paths to l1, l2 and l3 have one profile; the sweep to l2
    # resumes at c1, and only the sweep to l1 stops there
    dom = ParamDomain.tree(
        ["r", "c1", "c2", "l1", "l2", "l3"],
        [["r", "c1", 0.5], ["r", "c2", 0.5], ["c1", "l1", 0.5],
         ["c1", "l2", 0.5], ["c2", "l3", 0.5]],
    )
    f = f_of("z - 1.0 + 0.0*x")
    br = _assert_twins_replay_their_source(f, dom, dom.vertex_point("r"), 1.0)
    assert len({sw.segment.profile for sw in br.sweeps}) == 1
    assert [(sw.resume_arc, sw.stops) for sw in br.sweeps] == [(0.0, (0.5,)), (0.5, ()), (0.0, ())]
    assert br.twins == ()


def test_equal_paths_from_unequal_start_values_are_not_twins():
    # with c2-l3 shorter, the sweeps to l1 and l3 differ, and they reach c1
    # and c2 with different bits of the cubic's root; the sweeps to l2 and
    # l4 then have equal paths but unequal start values
    f, *_ = build(parse_problem({"fixture": "monic-cubic-interval"}))
    dom = _two_level_tree(0.3)
    br = _assert_twins_replay_their_source(f, dom, dom.vertex_point("r"), 1.0)
    first = {}
    for s in br.samples:
        first.setdefault(s.point, s.w)
    assert first[dom.vertex_point("c1")] != first[dom.vertex_point("c2")]
    assert br.sweeps[1].segment.profile == br.sweeps[3].segment.profile
    assert br.twins == ()


def test_a_resumed_segment_keeps_the_junction_value_bit_for_bit():
    # the sweeps to l2 and l4 resume at c1 and c2 from the values the
    # sweeps to l1 and l3 recorded there: their first samples are those
    # values as they are, not polished again, so each point has one value
    f, *_ = build(parse_problem({"fixture": "monic-cubic-interval"}))
    dom = _two_level_tree(0.3)
    br = continue_branch(f, dom, dom.vertex_point("r"), 1.0)
    assert br.completed and br.twins == ()
    at = {}
    for s in br.samples:
        at.setdefault(s.point, set()).add((s.w.real.hex(), s.w.imag.hex(), s.residual.hex()))
    assert all(len(bits) == 1 for bits in at.values())
    resumed = [sw for sw in br.sweeps if sw.resume_arc > 0.0]
    assert {sw.segment.point_at(sw.resume_arc) for sw in resumed} == {
        dom.vertex_point("c1"),
        dom.vertex_point("c2"),
    }


def test_star_with_unequal_edges_has_no_twins():
    f, dom, x0, z0, cfg = build(parse_problem(_unequal_star_cubic()))
    br = continue_branch(f, dom, x0, z0, cfg)
    assert br.completed and len(br.sweeps) == 3
    assert br.twins == () and br.status.diagnostics["twin_segments"] == 0
    assert {s.segment for s in br.samples} == {0, 1, 2}
    # on equal edges, as monic-cubic-ytree has them, two sweeps are twins
    f, dom, x0, z0, cfg = build(parse_problem({"fixture": "monic-cubic-ytree"}))
    assert continue_branch(f, dom, x0, z0, cfg).twins == ((1, 0), (2, 0))


def test_branch_invariant_under_constant_rescaling():
    f1 = f_of("pow(z, 3) - x*z - 0.25")
    f2 = f_of("(3.0 + 4.0*i)*(pow(z, 3) - x*z - 0.25)")
    dom = ParamDomain.interval()
    z0 = complex(np.roots([1, 0, -0.5, -0.25])[0])
    b1 = continue_branch(f1, dom, dom.interval_point(0.5), z0)
    b2 = continue_branch(f2, dom, dom.interval_point(0.5), z0)
    assert b1.status.kind is Status.COMPLETED
    assert b2.status.kind is Status.COMPLETED
    arcs = {i: np.linspace(0.0, sw.segment.length, 40) for i, sw in enumerate(b1.sweeps)}
    r1 = resample_branch(f1, b1, 0, arcs_by_segment=arcs)
    r2 = resample_branch(f2, b2, 0, arcs_by_segment=arcs)
    assert len(r1) == len(r2)
    for s1, s2 in zip(r1, r2):
        assert abs(s1.w - s2.w) < 1e-10


def test_resample_monotone_arcs_and_residuals():
    f = f_of("pow(z, 2) - x")
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(0.25), 0.5)
    out = resample_branch(f, br, 64)
    by_seg = {}
    for s in out:
        by_seg.setdefault(s.segment, []).append(s.arc)
        assert s.residual < 1e-8
    for arcs in by_seg.values():
        assert all(a < b for a, b in zip(arcs, arcs[1:]))


@pytest.mark.parametrize("name, most", [("monic-cubic-ytree", 2.2), ("poly-quartic-ytree", 1.8)])
def test_resample_kernel_points_per_row(monkeypatch, name, most):
    # one kernel point per row for its guess, and one per Newton step: a
    # row stops once its correction is at the rounding level of its value
    doc, rows = RESAMPLE_CASES[name]
    f, dom, x0, z0, cfg = build(parse_problem(doc))
    br = continue_branch(f, dom, x0, z0, cfg)
    points = []
    kernel = f.kernel

    def counting(x, z, dz=True):
        points.append(np.size(z))
        return kernel(x, z, dz)

    monkeypatch.setattr(f, "kernel", counting)
    out = resample_branch(f, br, rows)
    assert len(out) == rows and max(s.residual for s in out) <= cfg.residual_tol
    assert sum(points) <= most * rows


def test_branch_sample_is_a_named_tuple():
    pt = ParamDomain.interval().interval_point(0.5)
    smp = BranchSample(0, 0.5, pt, 1 + 2j, 1e-12)
    assert smp == BranchSample(segment=0, arc=0.5, point=pt, w=1 + 2j, residual=1e-12)
    assert smp == (0, 0.5, pt, 1 + 2j, 1e-12) and smp[2] is smp.point is pt
    assert repr(smp) == (
        "BranchSample(segment=0, arc=0.5, point=DomainPoint(vertex=None, edge=0,"
        " t=0.5), w=(1+2j), residual=1e-12)"
    )
    assert smp._replace(w=3j).w == 3j and smp.w == 1 + 2j
    for name in ("segment", "arc", "point", "w", "residual"):
        with pytest.raises(AttributeError):
            setattr(smp, name, 0)


def test_resample_rejects_a_nan_arc():
    # a NaN target used to land on the segment end, with arc NaN
    f = f_of("pow(z, 2) - x")
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(0.25), 0.5)
    rows = resample_branch(f, br, 0, arcs_by_segment={0: [0.1], 1: [0.2]})
    assert [r.segment for r in rows] == [0, 1]
    with pytest.raises(OutOfDomainError, match="NaN"):
        resample_branch(f, br, 0, arcs_by_segment={0: [0.1, float("nan")]})
    # a degenerate seed: one sample and no sweep
    g = f_of("x - 0.5")
    br = continue_branch(g, dom, dom.interval_point(0.5), 1.0)
    assert br.status.kind is Status.DEGENERATE_BARRIER and not br.sweeps
    with pytest.raises(OutOfDomainError, match="NaN"):
        resample_branch(g, br, 0, arcs_by_segment={0: [float("nan")]})


def test_tree_near_the_float_limit_resamples_every_row():
    # the edges add up to 1.5e308, finite, but total * span overflowed
    doc = {
        "function": "pow(z, 2) - 1",
        "domain": {
            "kind": "tree",
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b", 1e308], ["b", "c", 5e307]],
        },
        "seed": {"point": {"vertex": "a"}, "z": [1.0, 0.0]},
    }
    f, dom, pt, z0, cfg = build(parse_problem(doc))
    br = continue_branch(f, dom, pt, z0, cfg)
    assert br.status.kind is Status.COMPLETED
    rows = resample_branch(f, br, 1200, cfg)
    assert len(rows) == 1200
    assert max(r.residual for r in rows) <= cfg.residual_tol


@pytest.mark.parametrize("length", [5e-324, 1e-323, 2e-323, 4e-323, 1e-320])
def test_edge_of_subnormal_length_completes_in_a_few_steps(length):
    # below about 4e-323 the first step and h_max round to 0.0: a step that
    # cannot move the frontier is a stall, snapped onto the end, and not an
    # accepted step (each took the whole 8000-step budget)
    doc = {
        "function": "z - x",
        "domain": {"kind": "tree", "vertices": ["a", "b"], "edges": [["a", "b", length]]},
        "seed": {"point": {"vertex": "a"}, "z": [0.0, 0.0]},
    }
    f, dom, pt, z0, cfg = build(parse_problem(doc))
    br = continue_branch(f, dom, pt, z0, cfg)
    assert br.status.kind is Status.COMPLETED
    assert br.status.diagnostics["accepted_steps"] <= 16 and len(br.samples) <= 17
    assert [s.w for s in br.samples] == [complex(dom.coordinate(s.point)) for s in br.samples]
    assert br.samples[-1].w == length


def test_x_range_narrower_than_the_domain_raises_before_evaluating(monkeypatch):
    calls = []
    kernel = EntireFunction.kernel

    def counting(self, *args, **kwargs):
        calls.append(args)
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(EntireFunction, "kernel", counting)
    f = EntireFunction(parse_expression("pow(z, 2) - 1 - x"), x_range=(0.0, 0.5))
    dom = ParamDomain.interval()
    with pytest.raises(OutOfDomainError, match=r"\[0.0, 1.0\].*\[0.0, 0.5\]"):
        continue_branch(f, dom, dom.interval_point(0.0), 1.0)
    assert calls == []
    # a range that covers the domain runs as before
    f = EntireFunction(f.expr, x_range=(-1.0, 1.0))
    assert continue_branch(f, dom, dom.interval_point(0.0), 1.0).completed
    assert calls


@pytest.mark.parametrize(
    "doc", [{"fixture": "monic-cubic-interval"}, SERIES_PROBLEM], ids=["cubic", "series"]
)
def test_kernel_calls_per_step(monkeypatch, doc):
    # one kernel call per step proposal (the Rouche check samples the
    # factor's levels and its cofactor probe along), one per radius tried
    # (the count and the cofactor probe together), two per radius ladder
    # (both rungs at x0, then at x1), and two at the seed (its |F| scale
    # and its degeneracy probe)
    f, dom, pt, z0, cfg = build(parse_problem(doc))
    calls = dict.fromkeys(("kernel", "validate_step", "ladder_radius"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(f, "kernel", counted("kernel", f.kernel))
    for name in ("validate_step", "ladder_radius"):
        monkeypatch.setattr(engine, name, counted(name, getattr(engine, name)))
    br = continue_branch(f, dom, pt, z0, cfg)
    assert br.completed
    tries = br.status.diagnostics["radius_tries"]
    assert tries > 0 and calls["ladder_radius"] > 0
    assert calls["kernel"] == (
        2 + calls["validate_step"] + tries + 2 * calls["ladder_radius"]
    ), calls


def test_certify_steps_recount():
    f = f_of("pow(z, 3) - x*z - 0.25")
    dom = ParamDomain.interval()
    z0 = complex(np.roots([1, 0, -0.5, -0.25])[0])
    cfg = EngineConfig(certify_steps=True)
    br = continue_branch(f, dom, dom.interval_point(0.5), z0, cfg)
    assert br.status.kind is Status.COMPLETED
    d = br.status.diagnostics
    assert d["certify_checked"] > 0
    assert d["certify_failures"] == 0
    assert d["accepted_steps"] == d["certify_checked"]


def _rotating_pair_run(k, cfg=None):
    # the roots of z**2 - 4*exp(2*pi*i*k*x) are +-2*exp(i*pi*k*x), and they
    # turn k/2 times about 0 over the interval
    f = f_of(f"pow(z, 2) - 4*exp(2*pi*i*{k}*x)")
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(0.0), 2.0, cfg)
    err = max(
        abs(s.w - 2.0 * np.exp(1j * np.pi * k * dom.coordinate(s.point)))
        for s in br.samples
    )
    return br, err


def test_certify_steps_recount_can_fail():
    # at k = 64 a root crosses the first certificate's circle within a step
    # whose ends both count one zero; the recount at the step's midpoint
    # sees the crossing
    br, _ = _rotating_pair_run(64, EngineConfig(certify_steps=True))
    assert br.status.diagnostics["certify_failures"] >= 1


def test_margin_to_spare_doubles_the_next_step():
    # w = 0.3 + 0.2*x: each Rouche check uses little of its margin, so the
    # step doubles up to h_max = 1/8 and the run takes at most 11 steps
    f = f_of("(z - (0.3 + 0.2*x))*(z - 2)")
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(0.0), 0.3)
    assert br.status.kind is Status.COMPLETED
    assert br.status.diagnostics["accepted_steps"] <= 11
    for s in br.samples:
        assert abs(s.w - (0.3 + 0.2 * dom.coordinate(s.point))) <= 1e-12


def _recorded_checks(monkeypatch, text, z0):
    """Run text from x = 0 on the unit interval with every Rouche check
    recorded as (x0, x1, check)."""
    checks = []
    validate = engine.validate_step

    def recording(f, loc, x1):
        check = validate(f, loc, x1)
        checks.append((loc.x0, x1, check))
        return check

    monkeypatch.setattr(engine, "validate_step", recording)
    br, _ = _interval_run(text, 0.0, z0)
    return br, checks


def test_next_proposal_follows_the_rouche_excess(monkeypatch):
    # one segment of length 1 from x = 0, so h_max = H_MAX_FRAC and a step
    # is x1 - x0; a proposal that lands on x = 1 may be cut short
    br, checks = _recorded_checks(monkeypatch, "pow(z, 2) - x", 0.0)
    assert br.completed
    h_max, aim = engine.H_MAX_FRAC, engine.STEP_AIM
    doubled = partial = 0
    for (x0, x1, check), (y0, y1, _) in zip(checks, checks[1:]):
        if y0 != x1 or y1 == 1.0:
            continue  # the step was rejected past the check, or next one cut
        assert check.excess <= 1.0
        h, h_next = x1 - x0, y1 - y0
        g = 2.0 if check.excess == 0.0 else min(max(aim / check.excess, 1.0), 2.0)
        assert math.isclose(h_next, min(h * g, h_max), rel_tol=1e-9), (h, h_next)
        if h * g < h_max:
            doubled += g == 2.0
            partial += 1.0 < g < 2.0
    assert doubled > 0 and partial > 0


def test_zero_excess_doubles_the_next_step(monkeypatch):
    # F does not depend on x, so every Rouche excess is exactly 0 and the
    # step doubles from 1/64 up to h_max = 1/8
    br, checks = _recorded_checks(monkeypatch, "z - 0.3", 0.3)
    assert br.completed
    assert {check.excess for _, _, check in checks} == {0.0}
    assert br.status.diagnostics["accepted_steps"] == 11


def test_certificate_bound_run_keeps_its_steps():
    # the rotating pair at k = 8 is certificate-bound: its Rouche checks use
    # most of their margin, so its steps grow by less than 2 or not at all,
    # and the branch is right
    br, err = _rotating_pair_run(8)
    assert br.status.kind is Status.COMPLETED
    assert br.status.diagnostics["accepted_steps"] == 192
    assert err <= 1e-12


def test_completed_run_keeps_snap_diagnostics():
    # remark-exp stalls 3.6e-12 short of x = 0 and snaps onto the end
    f, dom, x0, z0, cfg = build(parse_problem({"fixture": "remark-exp"}))
    br = continue_branch(f, dom, x0, z0, cfg)
    assert br.status.kind is Status.COMPLETED
    d = br.status.diagnostics
    assert d["snapped"] is True
    assert 0.0 < d["snap_gap"] <= 1e-9
    assert d["accepted_steps"] == 62


def test_step_budget_does_not_decide_the_exp_blowup():
    # exp(x*z) - 1 from 2*pi*i: 2*pi*i/x reaches |w| > 1e8 well within a
    # 2000-step budget, so the verdict must not turn into NonConvergent
    spec = parse_problem(
        {"fixture": "remark-exp-asymptotic", "config": {"max_steps": 2000}}
    )
    f, dom, x0, z0, cfg = build(spec)
    br = continue_branch(f, dom, x0, z0, cfg)
    assert br.status.kind is Status.ASYMPTOTIC_BLOWUP
    assert br.status.diagnostics["max_abs_w"] > cfg.blowup_threshold
    assert br.status.diagnostics["accepted_steps"] < 2000


def _recording_select_radius(monkeypatch):
    calls = []
    select = engine.select_radius

    def recording(f, x0, z0, r_max, **kw):
        loc = select(f, x0, z0, r_max, **kw)
        calls.append((x0, z0, r_max, loc.r))
        return loc

    monkeypatch.setattr(engine, "select_radius", recording)
    return calls


def test_radius_ladder_settles_on_the_closed_form_rung(monkeypatch):
    # F = exp(x*z) - 1 about its root 2*pi*i/x, in u = x*(z - z0) = rho*e^it:
    # min |F(x0)| on the circle is 1 - e^-rho and the variation over a step
    # h is h*|z|*e^rho to first order, so the Rouche ratio goes like
    # (1 - e^-rho)*e^-rho, largest at rho = ln 2.  The radius cap starts the
    # ladder at rho = pi; among the rungs pi*2**-k the best is pi/4.
    calls = _recording_select_radius(monkeypatch)
    f = f_of("exp(x*z) - 1")
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(1.0), 2j * math.pi)
    assert br.status.kind is Status.ASYMPTOTIC_BLOWUP
    assert len(calls) > 100

    def gain(rho):
        return (1.0 - math.exp(-rho)) * math.exp(-rho)

    rungs = [math.pi * 0.5**k for k in range(6)]
    assert max(rungs, key=gain) == math.pi / 4
    for x0, _, _, r in calls[50:]:
        assert x0 * r == pytest.approx(math.pi / 4, rel=1e-9)
    # the ladder only moves where halving starts, never above the cap
    for _, z0, start, _ in calls:
        assert start <= max(engine.R_MAX_BASE, engine.R_MAX_REL * abs(z0))


def test_radius_start_stays_under_the_cap(monkeypatch):
    # for z - x the Rouche ratio grows with the radius, so the ladder always
    # asks for 2r; the start radius must still stop at the cap
    calls = _recording_select_radius(monkeypatch)
    f = f_of("z - x")
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(0.0), 0j)
    assert br.status.kind is Status.COMPLETED
    assert len(calls) > engine.LADDER_EVERY
    for _, z0, start, _ in calls:
        assert start <= max(engine.R_MAX_BASE, engine.R_MAX_REL * abs(z0))


def _unequal_star_cubic() -> dict:
    """monic-cubic-ytree's problem on a star whose three edges differ in
    length."""
    doc = get_fixture("monic-cubic-ytree").problem
    edges = [["c", "a", 0.5], ["c", "b", 0.375], ["c", "d", 0.25]]
    return {**doc, "domain": {**doc["domain"], "edges": edges}}


def test_localization_counters_sum_over_segments(monkeypatch, tmp_path):
    calls = _recording_select_radius(monkeypatch)
    runs = []
    # per segment, in call order: "select", "kept", "accept" and "reject"
    events: list[list[str]] = []
    extend, select, admits, step = (
        engine.extend_segment,
        engine.select_radius,
        engine.admits,
        engine._step_root,
    )

    def keeping(*args, **kw):
        events.append([])
        runs.append(extend(*args, **kw))
        return runs[-1]

    def selecting(*args, **kw):
        events[-1].append("select")
        return select(*args, **kw)

    def carrying(cert):
        ok = admits(cert)
        if ok:
            events[-1].append("kept")
        return ok

    def stepping(*args, **kw):
        out = step(*args, **kw)
        events[-1].append("reject" if out.cert is None else "accept")
        return out

    monkeypatch.setattr(engine, "extend_segment", keeping)
    monkeypatch.setattr(engine, "select_radius", selecting)
    monkeypatch.setattr(engine, "admits", carrying)
    monkeypatch.setattr(engine, "_step_root", stepping)
    # the fixture's cubic on a star whose edges differ in length, so that
    # no segment is a twin of another and every one of them runs
    pf = tmp_path / "star.json"
    pf.write_text(json.dumps(_unequal_star_cubic()))
    assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 0
    d = json.loads((tmp_path / "summary.json").read_text())["diagnostics"]
    assert d["twin_segments"] == 0
    assert len(runs) > 1
    # select_radius keeps start * 2**-k after k + 1 tries
    tries = [1 + round(math.log2(start / r)) for _, _, start, r in calls]
    assert d["localizations"] == len(calls) == sum(r.counts["localizations"] for r in runs)
    assert d["radius_tries"] == sum(tries) == sum(r.counts["radius_tries"] for r in runs)
    assert d["accepted_steps"] == sum(r.counts["accepted_steps"] for r in runs)
    kept = sum(seq.count("kept") for seq in events)
    assert d["carried"] == kept == sum(r.counts["carried"] for r in runs) > 0
    # every accepted step that does not end its segment hands the next
    # proposal exactly one certificate: its own circle kept, or a new search
    followed = 0
    for seq in events:
        steps = [k for k, e in enumerate(seq) if e in ("accept", "reject")]
        for k, k_next in zip(steps, steps[1:]):
            if seq[k] == "accept":
                between = seq[k + 1 : k_next]
                assert len(between) == 1 and between[0] in ("kept", "select"), seq
                followed += 1
    assert followed == d["accepted_steps"] - len(runs)


def _linear_roots_series(a, b):
    """Series texts, ascending in z, of prod_j (z - a_j - b_j x): a monic
    family whose roots move on lines, as the poly-dense benchmark draws."""
    c = np.ones((1, 1), dtype=complex)  # c[k, p] multiplies z**k x**p
    for aj, bj in zip(a, b):
        nxt = np.zeros((c.shape[0] + 1, c.shape[1] + 1), dtype=complex)
        nxt[1:, :-1] += c
        nxt[:-1, :-1] -= aj * c
        nxt[:-1, 1:] -= bj * c
        c = nxt
    return [
        " + ".join(
            f"({float(v.real)!r} + {float(v.imag)!r}*i)*pow(x, {p})"
            for p, v in enumerate(row)
        )
        for row in c
    ]


def test_kept_certificates_equal_a_fresh_search_on_their_circle(monkeypatch):
    # a circle kept after a step is the certificate the radius search would
    # return for that circle at the new parameter, bit for bit
    from rootbranch.localize import _try_radius

    kept = []
    admits = engine.admits

    def recording(cert):
        ok = admits(cert)
        if ok:
            kept.append(cert)
        return ok

    monkeypatch.setattr(engine, "admits", recording)
    a = [0.9 + 0.2j, -0.7 + 0.8j, -0.4 - 0.9j, 0.6 - 0.7j]
    b = [-0.3 + 0.4j, 0.5 - 0.1j, 0.2 + 0.3j, -0.4 - 0.5j]
    family = {
        "series": _linear_roots_series(a, b),
        "domain": {"kind": "interval"},
        "seed": {"x": 0.0, "z": [a[0].real, a[0].imag]},
    }
    for doc in ({"fixture": "monic-cubic-interval"}, {"fixture": "monic-cubic-ytree"}, family):
        kept.clear()
        f, *rest = build(parse_problem(doc))
        br = continue_branch(f, *rest)
        assert br.completed, doc
        assert len(kept) == br.status.diagnostics["carried"] > 0, doc
        for loc in kept:
            fresh = _try_radius(f, loc.x0, loc.z0, loc.r)
            assert fresh is not None
            assert (fresh.x0.hex(), fresh.n) == (loc.x0.hex(), loc.n)
            assert (
                np.array(fresh.poly.coeffs).tobytes()
                == np.array(loc.poly.coeffs).tobytes()
            )
            assert loc.sample.rings.tobytes() == fresh.sample.rings.tobytes()
            for level in ("coarse", "fine"):
                got, want = getattr(loc.sample, level), getattr(fresh.sample, level)
                assert got.circle == want.circle
                for name in ("z", "f", "fz"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_fixture_verdicts_do_not_depend_on_the_step_budget():
    # only example1-sin may end on the oscillation rule; the blowups and the
    # Completed fixtures must not, at any budget
    for name in fixture_names():
        for max_steps in (500, 2000, 8000):
            spec = parse_problem({"fixture": name, "config": {"max_steps": max_steps}})
            br = continue_branch(*build(spec))
            assert br.status.kind.value == get_fixture(name).expected_status, (
                name,
                max_steps,
            )
            oscillation = br.status.diagnostics.get("reason") == "oscillation"
            assert oscillation == (name == "example1-sin"), (name, max_steps)


def test_fixture_verdicts_do_not_depend_on_the_blowup_threshold():
    # above the default threshold the pole fixtures stall next to x = 0,
    # where z -> F(0, z) is constant and every w has residual 0: a snap
    # there would call them Completed (the default is covered above)
    for name in fixture_names():
        for threshold in (1e12, 1e30):
            spec = parse_problem(
                {"fixture": name, "config": {"blowup_threshold": threshold}}
            )
            f, dom, x0, z0, cfg = build(spec)
            br = continue_branch(f, dom, x0, z0, cfg)
            assert br.status.kind.value == get_fixture(name).expected_status, (
                name,
                threshold,
            )
            if name == "counterexample-x2z-x":
                # w = 1/x up to the last sample, far above 1e8
                last = br.samples[-1]
                x = dom.coordinate(last.point)
                assert abs(last.w) > 1e10
                assert abs(last.w * x - 1.0) < 1e-12
                assert not br.status.diagnostics.get("snapped")


def test_step_budget_exhaustion_reads_the_pole_order():
    # example2-phi at 500 steps stops near x = 0.995 on the branch
    # w = 1/(1 - x), below BLOWUP_SOFT; the shell fit finds the pole order 1
    spec = parse_problem({"fixture": "example2-phi", "config": {"max_steps": 500}})
    f, dom, x0, z0, cfg = build(spec)
    br = continue_branch(f, dom, x0, z0, cfg)
    d = br.status.diagnostics
    assert br.status.kind is Status.ASYMPTOTIC_BLOWUP
    assert d["reason"] == "step budget exhausted" and d["soft"] is True
    assert d["pole_order"] == pytest.approx(1.0, abs=1e-6)
    assert d["max_abs_w"] < engine.BLOWUP_SOFT


def test_step_budget_exhaustion_without_evidence_is_unresolved():
    f, dom, x0, z0, _ = build(parse_problem({"fixture": "monic-cubic-interval"}))
    br = continue_branch(f, dom, x0, z0, EngineConfig(max_steps=5))
    d = br.status.diagnostics
    assert br.status.kind is Status.NON_CONVERGENT
    assert d["reason"] == "step budget exhausted"
    assert d["unresolved"] is True
    assert d["accepted_steps"] == 5


@pytest.mark.parametrize("max_steps", [7800, 8000])
def test_budget_verdict_needs_growing_shells(max_steps):
    # two bounded root curves that turn fast, w = p1(x) with max |w| 3.18;
    # a budget of 7800 steps runs out where the shell fit reads a pole order
    # of 0.35, above POLE_ORDER_MIN, although |w| does not grow from shell
    # to shell; 8000 is the default budget
    p1 = (
        "-1.48036031572512 - 0.18585538277397395*i"
        " + (0.502192702511723 + 1.639861434898572*i)*x"
        " + 1.4420069223272254*exp(2*pi*i*96*x)"
    )
    p2 = (
        "0.6106951200759654 + 0.010601603888488853*i"
        " + (1.2777998430805804 - 0.6276096563426337*i)*x"
        " + 1.316168238433498*exp(2*pi*i*50*x)"
    )
    f = f_of(f"(z - ({p1}))*(z - ({p2}))")
    dom = ParamDomain.interval()
    z0 = -1.48036031572512 + 1.4420069223272254 - 0.18585538277397395j
    cfg = EngineConfig(max_steps=max_steps)
    br = continue_branch(f, dom, dom.interval_point(0.0), z0, cfg)
    d = br.status.diagnostics
    assert br.completed or (
        br.status.kind is Status.NON_CONVERGENT and d.get("unresolved") is True
    ), d


def _interior_pole_run(text, x0, z0, config, closed_form):
    spec = parse_problem(
        {
            "function": text,
            "domain": {"kind": "interval"},
            "seed": {"x": x0, "z": z0},
            "config": config,
        }
    )
    f, dom, pt, z, cfg = build(spec)
    br = continue_branch(f, dom, pt, z, cfg)
    for s in br.samples:
        exact = closed_form(dom.coordinate(s.point))
        assert abs(s.w - exact) <= 1e-10 * abs(exact)
    return br, dom.coordinate(br.status_location)


def test_stall_before_an_interior_pole_is_a_soft_blowup():
    # w = 1/(0.5 - x) solves z*exp(-z) = u*exp(-u) at u = 1/(0.5 - x); the
    # radius search gives out inside the segment, short of the pole
    br, x_stop = _interior_pole_run(
        "z*exp(-z) - pow(0.5 - x, -1)*exp(-pow(0.5 - x, -1))",
        0.0, 2.0, {}, lambda x: 1.0 / (0.5 - x),
    )
    d = br.status.diagnostics
    assert br.status.kind is Status.ASYMPTOTIC_BLOWUP
    assert d["soft"] is True
    assert d["reason"] == "no admissible radius at frontier"
    assert x_stop == pytest.approx(0.49856, abs=1e-5)
    assert d["max_abs_w"] == pytest.approx(697.0, rel=1e-3)


def test_step_underflow_at_an_interior_pole_is_a_soft_blowup():
    # w = 1/(x - 0.5) from x = 1: the step underflows just above the pole,
    # with |w| below the raised hard threshold
    br, x_stop = _interior_pole_run(
        "pow(x - 0.5, 2)*z - (x - 0.5)",
        1.0, 2.0, {"blowup_threshold": 1e12}, lambda x: 1.0 / (x - 0.5),
    )
    d = br.status.diagnostics
    assert br.status.kind is Status.ASYMPTOTIC_BLOWUP
    assert d["soft"] is True
    assert x_stop - 0.5 == pytest.approx(1.10e-11, rel=0.05)
    assert d["max_abs_w"] < 1e12


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-6])
def test_near_pole_family_completes(eps):
    # w = 1/(1 - x + eps) from x = 0 reaches 1/eps at x = 1, its pole just
    # past the end: a bounded branch that no step or pole rule may read as
    # a blowup
    f = f_of(f"z*(1 - x + {eps!r}) - 1")
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(0.0), 1.0 / (1.0 + eps))
    assert br.completed
    for s in [*br.samples, *resample_branch(f, br, 200)]:
        exact = 1.0 / (1.0 - dom.coordinate(s.point) + eps)
        assert abs(s.w - exact) <= 1e-12 * exact


def _endgame_of(w_of, inv_x):
    """An Endgame fed w_of(x) at x = 1/inv_x, on the segment from x = 1 to 0,
    and every oscillation() verdict taken after a multiple of 8 samples."""
    xs = 1.0 / np.asarray(inv_x)
    eg = engine.Endgame(1.0, 1.0 - xs[0], complex(w_of(xs[0])))
    verdicts = []
    for n, x in enumerate(xs[1:], 2):
        eg.add(1.0 - x, complex(w_of(x)))
        if n % engine.LADDER_EVERY == 0:
            verdicts.append(eg.oscillation())
    return eg, verdicts


def test_endgame_tells_oscillation_from_decaying_oscillation():
    # densely sampled closed forms, 1/x from 1 to 256 in steps of 0.02
    inv_x = np.arange(1.0, 256.0, 0.02)
    _, verdicts = _endgame_of(lambda x: math.sin(1.0 / x), inv_x)
    fired = next(v for v in verdicts if v is not None)
    assert fired["reason"] == "oscillation"
    assert fired["amplitude_ratio"] > engine.AMPLITUDE_KEEP
    assert all(t >= 1.0 for t in fired["turns"])
    # x*sin(1/x) converges to 0; its shell diameters shrink by 0.5 to 0.54,
    # which a fraction of 1/2 would read as oscillation
    _, verdicts = _endgame_of(lambda x: x * math.sin(1.0 / x), inv_x)
    assert verdicts and all(v is None for v in verdicts)


def test_endgame_pole_order_fits_closed_forms():
    inv_x = np.geomspace(1.0, 1e4, 400)
    eg, _ = _endgame_of(lambda x: 3.0j * x**-0.5, inv_x)
    assert eg.pole_order() == pytest.approx(0.5, abs=1e-9)
    # a branch drifting up to the limit 2 is no pole
    eg, _ = _endgame_of(lambda x: 2.0 - x, inv_x)
    assert 0.0 < eg.pole_order() < engine.POLE_ORDER_MIN
    # too few shells for a fit
    eg, _ = _endgame_of(lambda x: 1.0 / x, inv_x[:50])
    assert eg.k < engine.ENDGAME_SHELLS and eg.pole_order() is None


def _rows_against(f, br, closed_form, tol):
    dom = br.domain
    rows = resample_branch(f, br, 1200)
    assert len(rows) == 1200
    worst = max(abs(s.w - closed_form(dom.coordinate(s.point))) for s in rows)
    assert worst <= tol
    return worst


def test_decaying_oscillation_is_not_read_as_oscillation():
    # w = x*sin(1/x) has the limit 0 at x = 0
    f = f_of("guard(0; 0; x*(exp(z) - exp(x*sin(pow(x, -1)))))")
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(1.0), math.sin(1.0))
    assert br.status.diagnostics.get("reason") != "oscillation"
    assert br.status.kind is Status.COMPLETED
    _rows_against(f, br, lambda x: x * math.sin(1.0 / x) if x > 0.0 else 0.0, 1e-8)


def test_constant_amplitude_rotation_is_not_read_as_oscillation():
    # w = 2*exp(i*pi*16*x) turns 8 times at constant amplitude; its turns
    # per shell of 1 - x fall from shell to shell
    f = f_of("pow(z, 2) - 4*exp(2*pi*i*16*x)")
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(0.0), 2.0)
    assert br.status.diagnostics.get("reason") != "oscillation"
    assert br.status.kind is Status.COMPLETED
    _rows_against(f, br, lambda x: 2.0 * np.exp(1j * np.pi * 16.0 * x), 1e-8)


@settings(max_examples=10, deadline=None)
@given(a=st.floats(0.5, 4.0))
def test_sin_family_ends_on_oscillation(a):
    # w = sin(a/x) has no limit at x = 0
    f = f_of(f"guard(0; 0; x*(exp(z) - exp(sin({a!r}*pow(x, -1)))))")
    dom = ParamDomain.interval()
    br = continue_branch(f, dom, dom.interval_point(1.0), math.sin(a))
    d = br.status.diagnostics
    assert br.status.kind is Status.NON_CONVERGENT
    assert d["reason"] == "oscillation"
    assert d["accepted_steps"] <= 1000
    assert d["endpoint_degenerate"] is True


def test_step_root_rejects_a_polished_root_that_misses_or_jumps(monkeypatch):
    # a real certificate of the simple root 0.5 of z^2 - x at x = 0.25; the
    # step to 0.26 is accepted as it stands, and rejected when the polished
    # root misses residual_tol or lands outside the certificate's open disk
    f = f_of("pow(z, 2) - x")
    loc = engine.select_radius(f, 0.25, 0.5 + 0j, 0.2)
    tol, x1, w = 1e-8, 0.26, 0.5 + 0j
    step = engine._step_root(f, loc, x1, w, 0, tol)
    assert step.w == pytest.approx(math.sqrt(x1), abs=1e-12) and step.residual <= tol
    assert step.streak == 0 and step.cert is not None
    rejected = engine.Step(None, 0)

    def polished(value, residual):
        monkeypatch.setattr(engine, "polish_root", lambda *args: (value, residual))
        return engine._step_root(f, loc, x1, w, 0, tol)

    assert polished(step.w, tol).w == step.w
    assert polished(step.w, math.nextafter(tol, 1.0)) == rejected
    assert loc.n == 1 and loc.z0 == w
    assert polished(w + 0.99 * loc.r, 0.0).w == w + 0.99 * loc.r
    # a quarter turn off the real axis, the distance is exactly loc.r
    assert abs(w + 1j * loc.r - loc.z0) == loc.r
    assert polished(w + 1j * loc.r, 0.0) == rejected
    assert polished(w + 1.99 * loc.r, 0.0) == rejected


def test_an_accepted_step_returns_the_certificate_at_x1(monkeypatch):
    # the step record of an accepted proposal holds the certificate at x1:
    # the factor at x1 on loc's circle, read from the Rouche check's one
    # sample of F(x1), so the whole proposal makes one kernel call
    f = f_of("pow(z, 2) - x")
    loc = engine.select_radius(f, 0.25, 0.5 + 0j, 0.2)
    tol, x1, w = 1e-8, 0.26, 0.5 + 0j
    checks, calls = [], []
    validate, kernel = engine.validate_step, f.kernel

    def checking(*args):
        checks.append(validate(*args))
        return checks[-1]

    def counting(x, z, **kw):
        calls.append(x)
        return kernel(x, z, **kw)

    monkeypatch.setattr(engine, "validate_step", checking)
    monkeypatch.setattr(f, "kernel", counting)
    step = engine._step_root(f, loc, x1, w, 2, tol)
    assert calls == [x1]
    monkeypatch.undo()
    (check,) = checks
    cert = step.cert
    assert (step.streak, step.excess) == (0, check.excess)
    assert cert.x0 == x1 and cert.circle is loc.circle and cert.sample is check.sample
    fresh = local_monic_factor(x1, sample_contour(f, x1, loc.circle))
    assert fresh.about == cert.poly.about
    assert np.array(fresh.coeffs).tobytes() == np.array(cert.poly.coeffs).tobytes()

    # a rejection carries no certificate: a failed Rouche check keeps the
    # ambiguity streak, an ambiguous match adds one to it
    assert not engine.validate_step(f, loc, 0.5).accepted
    assert engine._step_root(f, loc, 0.5, w, 2, tol) == engine.Step(None, 2)
    monkeypatch.setattr(engine, "match_root", lambda *args: engine.RootMatch(None, True))
    assert engine._step_root(f, loc, x1, w, 2, tol) == engine.Step(None, 3)
