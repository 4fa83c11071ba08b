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
    ParamDomain,
    Status,
    build,
    classify_termination,
    continue_branch,
    fixture_names,
    get_fixture,
    match_root,
    parse_expression,
    parse_problem,
    polish_root,
    resample_branch,
)
from rootbranch import engine
from rootbranch.cli import main


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
    assert d["accepted_steps"] == 74


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


def test_localization_counters_sum_over_segments(monkeypatch, tmp_path):
    calls = _recording_select_radius(monkeypatch)
    runs = []
    extend = engine.extend_segment

    def keeping(*args, **kw):
        runs.append(extend(*args, **kw))
        return runs[-1]

    monkeypatch.setattr(engine, "extend_segment", keeping)
    assert main(["--fixture", "monic-cubic-ytree", "--out", str(tmp_path)]) == 0
    d = json.loads((tmp_path / "summary.json").read_text())["diagnostics"]
    assert len(runs) > 1
    # select_radius keeps start * 2**-k after k + 1 tries
    tries = [1 + round(math.log2(start / r)) for _, _, start, r in calls]
    assert d["localizations"] == len(calls) == sum(r.localizations for r in runs)
    assert d["radius_tries"] == sum(tries) == sum(r.radius_tries for r in runs)
    assert d["accepted_steps"] == sum(r.accepted for r in runs)
    assert d["localizations"] >= d["accepted_steps"]


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


def test_step_budget_exhaustion_reads_the_pole_order():
    # example2-phi at 500 steps stops near x = 0.995 on the branch
    # w = 1/(1 - x), below blowup_soft; the shell fit finds the pole order 1
    spec = parse_problem({"fixture": "example2-phi", "config": {"max_steps": 500}})
    f, dom, x0, z0, cfg = build(spec)
    br = continue_branch(f, dom, x0, z0, cfg)
    d = br.status.diagnostics
    assert br.status.kind is Status.ASYMPTOTIC_BLOWUP
    assert d["reason"] == "step budget exhausted" and d["soft"] is True
    assert d["pole_order"] == pytest.approx(1.0, abs=1e-6)
    assert d["max_abs_w"] < cfg.blowup_soft


def test_step_budget_exhaustion_without_evidence_is_unresolved():
    f, dom, x0, z0, _ = build(parse_problem({"fixture": "monic-cubic-interval"}))
    br = continue_branch(f, dom, x0, z0, EngineConfig(max_steps=5))
    d = br.status.diagnostics
    assert br.status.kind is Status.NON_CONVERGENT
    assert d["reason"] == "step budget exhausted"
    assert d["unresolved"] is True
    assert d["accepted_steps"] == 5


def _endgame_of(w_of, inv_x):
    """An Endgame fed w_of(x) at x = 1/inv_x, on the segment from x = 1 to 0,
    and every oscillation() verdict taken after a multiple of 8 samples."""
    xs = 1.0 / np.asarray(inv_x)
    eg = engine.Endgame(1.0, EngineConfig().osc_tol, 1.0 - xs[0], complex(w_of(xs[0])))
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
