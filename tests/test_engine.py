import numpy as np
import pytest

from rootbranch import (
    BranchSample,
    EngineConfig,
    EntireFunction,
    ParamDomain,
    Status,
    build,
    classify_termination,
    continue_branch,
    match_root,
    parse_expression,
    parse_problem,
    polish_root,
    resample_branch,
)


def f_of(text):
    return EntireFunction(parse_expression(text))


def window_at(dom, arcs, ws, residual=1e-12):
    return [
        BranchSample(0, float(a), dom.interval_point(min(float(a), 1.0)), w, residual)
        for a, w in zip(arcs, ws)
    ]


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


def test_classify_blowup():
    dom = ParamDomain.interval()
    f = f_of("z - x")
    ws = [1e8 * (1 + 0.1 * k) for k in range(8)]
    win = window_at(dom, np.linspace(0.9, 0.99, 8), ws)
    ts = classify_termination(f, win, 0.99, EngineConfig())
    assert ts is not None and ts.kind is Status.ASYMPTOTIC_BLOWUP
    assert ts.diagnostics["max_abs_w"] >= 1e8


def test_classify_degenerate_barrier():
    dom = ParamDomain.interval()
    f = f_of("x*x*z - x")
    win = window_at(dom, np.linspace(0.01, 0.001, 8), [1.0] * 8)
    ts = classify_termination(f, win, 0.0, EngineConfig())
    assert ts is not None and ts.kind is Status.DEGENERATE_BARRIER
    assert ts.diagnostics["constant"] == 0.0


def test_classify_oscillation():
    dom = ParamDomain.interval()
    f = f_of("z - x")
    win = window_at(dom, np.linspace(0.5, 0.51, 8), [0.0, 1.0] * 4)
    ts = classify_termination(f, win, 0.51, EngineConfig())
    assert ts is not None and ts.kind is Status.NON_CONVERGENT
    assert ts.diagnostics["window_diameter"] == pytest.approx(1.0)


def test_classify_converged_returns_none():
    dom = ParamDomain.interval()
    f = f_of("z - x")
    win = window_at(dom, np.linspace(0.5, 0.5001, 8), [0.5 + 1e-10 * k for k in range(8)])
    assert classify_termination(f, win, 0.5001, EngineConfig()) is None


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


def test_continue_branch_tree_junction_consistent():
    # exact branch w = 1 + coordinate on the whole tree
    f = f_of("z - 1.0 - x")
    dom = ParamDomain.tree(
        ["c", "a", "b", "d"],
        [["c", "a", 0.5], ["c", "b", 0.5], ["c", "d", 0.5]],
    )
    br = continue_branch(f, dom, dom.vertex_point("c"), 1.0)
    assert br.status.kind is Status.COMPLETED
    for s in br.samples:
        x = dom.coordinate(s.point)
        assert abs(s.w - (1.0 + x)) < 1e-9
    out = resample_branch(f, br, 90)
    assert len(out) == 90
    for s in out:
        x = dom.coordinate(s.point)
        assert abs(s.w - (1.0 + x)) < 1e-10


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


def test_completed_run_keeps_snap_diagnostics():
    # remark-exp stalls 2.8e-12 short of x = 0 and snaps onto the end
    f, dom, x0, z0, cfg = build(parse_problem({"fixture": "remark-exp"}))
    br = continue_branch(f, dom, x0, z0, cfg)
    assert br.status.kind is Status.COMPLETED
    d = br.status.diagnostics
    assert d["snapped"] is True
    assert 0.0 < d["snap_gap"] <= 1e-9
    assert d["accepted_steps"] == 79
