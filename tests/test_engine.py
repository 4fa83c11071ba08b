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
    # per segment, in call order: "select", "kept", "accept" and "reject"
    events: list[list[str]] = []
    extend, select, carry, step = (
        engine.extend_segment,
        engine.select_radius,
        engine.carry_certificate,
        engine._step_root,
    )

    def keeping(*args, **kw):
        events.append([])
        runs.append(extend(*args, **kw))
        return runs[-1]

    def selecting(*args, **kw):
        events[-1].append("select")
        return select(*args, **kw)

    def carrying(*args, **kw):
        loc = carry(*args, **kw)
        if loc is not None:
            events[-1].append("kept")
        return loc

    def stepping(*args, **kw):
        out = step(*args, **kw)
        events[-1].append("reject" if out[0] is None else "accept")
        return out

    monkeypatch.setattr(engine, "extend_segment", keeping)
    monkeypatch.setattr(engine, "select_radius", selecting)
    monkeypatch.setattr(engine, "carry_certificate", carrying)
    monkeypatch.setattr(engine, "_step_root", stepping)
    assert main(["--fixture", "monic-cubic-ytree", "--out", str(tmp_path)]) == 0
    d = json.loads((tmp_path / "summary.json").read_text())["diagnostics"]
    assert len(runs) > 1
    # select_radius keeps start * 2**-k after k + 1 tries
    tries = [1 + round(math.log2(start / r)) for _, _, start, r in calls]
    assert d["localizations"] == len(calls) == sum(r.localizations for r in runs)
    assert d["radius_tries"] == sum(tries) == sum(r.radius_tries for r in runs)
    assert d["accepted_steps"] == sum(r.accepted for r in runs)
    kept = sum(seq.count("kept") for seq in events)
    assert d["carried"] == kept == sum(r.carried for r in runs) > 0
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
    carry = engine.carry_certificate

    def recording(*args):
        loc = carry(*args)
        if loc is not None:
            kept.append(loc)
        return loc

    monkeypatch.setattr(engine, "carry_certificate", recording)
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
            assert (fresh.n, fresh.m.hex()) == (loc.n, loc.m.hex())
            assert (
                np.array(fresh.poly.coeffs).tobytes()
                == np.array(loc.poly.coeffs).tobytes()
            )
            assert len(fresh.levels) == len(loc.levels) == 2
            for got, want in zip(loc.levels, fresh.levels):
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
    assert x_stop - 0.5 == pytest.approx(1.3e-11, rel=0.05)
    assert d["max_abs_w"] < 1e12


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
    # root misses residual_tol or lands more than 2 * loc.r from w
    f = f_of("pow(z, 2) - x")
    loc = engine.select_radius(f, 0.25, 0.5 + 0j, 0.2)
    tol, x1, w = 1e-8, 0.26, 0.5 + 0j
    w1, res1, streak, factor = engine._step_root(f, loc, x1, w, 0, tol)
    assert w1 == pytest.approx(math.sqrt(x1), abs=1e-12) and res1 <= tol
    assert streak == 0 and factor is not None

    def polished(value, residual):
        monkeypatch.setattr(engine, "polish_root", lambda *args: (value, residual))
        return engine._step_root(f, loc, x1, w, 0, tol)

    assert polished(w1, tol)[0] == w1
    assert polished(w1, math.nextafter(tol, 1.0)) == (None, 0.0, 0, None)
    assert polished(w + 1.99 * loc.r, 0.0)[0] == w + 1.99 * loc.r
    assert polished(w + 2.01 * loc.r, 0.0) == (None, 0.0, 0, None)
