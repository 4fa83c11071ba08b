"""The benchmark tracer wraps functions by the names callers look them up
through; every such binding must still exist, or a traced run crashes."""

import importlib.util
import json
from pathlib import Path

import rootbranch
from rootbranch import build, cli, parse_problem

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_binding_resolves():
    tracer = _load_tracer()
    assert tracer.SITES
    for name, (bindings, _read) in tracer.SITES.items():
        assert bindings, name
        for binding in bindings:
            owner, attr = tracer._resolve(binding)
            assert callable(getattr(owner, attr)), (name, binding)


# z**2 = 0.25 + x + 0.5*i*x, as a series in z with x-polynomial coefficients
SERIES_PROBLEM = {
    "series": ["(-0.25 + 0.0*i) + (-1.0 + -0.5*i)*pow(x, 1)", "0", "1"],
    "domain": {"kind": "interval"},
    "seed": {"x": 0.0, "z": [0.5, 0.0]},
}


def test_traced_runs_read_every_result_and_count_every_step(tmp_path):
    tracer = _load_tracer()
    f, dom, seed, z0, cfg = build(parse_problem(SERIES_PROBLEM))
    fixtures = ("monic-cubic-interval", "monic-cubic-ytree")
    with tracer.Tracer() as t:
        for name in fixtures:
            assert cli.run(parse_problem({"fixture": name}), tmp_path / name, 50) == 0
        # through the package, whose binding the tracer replaces
        branch = rootbranch.continue_branch(f, dom, seed, z0, cfg)
    metrics, per_solve, errors = t.metrics()
    assert errors == []
    summaries = [json.loads((tmp_path / n / "summary.json").read_text()) for n in fixtures]
    assert branch.status.kind.value == "Completed"
    # the Y-tree's twin segments take no steps, so the counts still agree
    assert summaries[1]["diagnostics"]["twin_segments"] == 2
    assert per_solve == [
        *(s["diagnostics"]["accepted_steps"] for s in summaries),
        branch.status.diagnostics["accepted_steps"],
    ]
    assert min(per_solve) > 0
    # each reader ran on a returned result: .resolution and .excess on
    # validate_step's, .ambiguous on match_root's, .degree on the factor,
    # .r and .n on the certificate
    spans = {name: 0 for name in t.names}
    for i in t.name_of:
        spans[t.names[i]] += 1
    assert metrics["localize.validate_calls"] > 0
    assert metrics["localize.validate_accepted"] > 0
    assert spans["engine.match_root"] > 0
    assert metrics["contour.factor_calls"] > metrics["contour.factor_failures"]
    assert metrics["localize.radius_tries"] > 0
    assert metrics["localize.select_calls"] > metrics["localize.select_failures"]
