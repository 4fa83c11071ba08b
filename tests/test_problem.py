import json
from dataclasses import fields
from pathlib import Path

import pytest

from rootbranch import (
    EngineConfig,
    ProblemSyntaxError,
    ProblemValidationError,
    build,
    parse_problem,
    render,
)


def interval_problem(fn="pow(z, 2) - x", x=0.25, z=(0.5, 0.0), config=None):
    doc = {
        "function": fn,
        "domain": {"kind": "interval"},
        "seed": {"x": x, "z": list(z)},
    }
    if config:
        doc["config"] = config
    return doc


def test_parse_function_problem():
    spec = parse_problem(json.dumps(interval_problem()))
    assert spec.function == "pow(z, 2) - x"
    assert spec.series is None
    f, dom, x0, z0, cfg = build(spec)
    assert dom.coordinate(x0) == pytest.approx(0.25)
    assert z0 == 0.5 + 0.0j
    assert f.eval(0.25, z0) == 0.0
    assert isinstance(cfg, EngineConfig)


def test_parse_series_problem():
    doc = {
        "series": ["-x", 0.0, 1.0],
        "domain": {"kind": "interval"},
        "seed": {"x": 0.25, "z": [0.5, 0.0]},
    }
    f, dom, x0, z0, cfg = build(parse_problem(doc))
    assert abs(f.eval(0.25, 0.5)) < 1e-15
    assert abs(f.eval(0.0, 2.0) - 4.0) < 1e-15


def test_series_coefficients_must_not_use_z():
    doc = {
        "series": ["z", 1.0],
        "domain": {"kind": "interval"},
        "seed": {"x": 0.0, "z": [0.0, 0.0]},
    }
    with pytest.raises(ProblemValidationError):
        parse_problem(doc)


def test_parse_tree_problem():
    doc = {
        "function": "z - x",
        "domain": {
            "kind": "tree",
            "vertices": ["c", "a", "b", "d"],
            "edges": [["c", "a", 0.5], ["c", "b", 0.5], ["c", "d", 0.5]],
        },
        "seed": {"point": {"vertex": "c"}, "z": [0.0, 0.0]},
    }
    f, dom, x0, z0, cfg = build(parse_problem(doc))
    assert dom.coordinate(x0) == 0.0
    assert dom.coordinate_range() == (0.0, 0.5)


def test_parse_tree_seed_on_edge():
    doc = {
        "function": "z - x",
        "domain": {
            "kind": "tree",
            "vertices": ["u", "v"],
            "edges": [["u", "v", 2.0]],
        },
        "seed": {"point": {"edge": 0, "t": 0.25}, "z": [0.5, 0.0]},
    }
    f, dom, x0, z0, cfg = build(parse_problem(doc))
    assert dom.coordinate(x0) == pytest.approx(0.5)


def test_render_parse_round_trip():
    spec = parse_problem(interval_problem(config={"max_steps": 500}))
    text = render(spec)
    again = parse_problem(text)
    assert again == spec
    # canonical form is stable
    assert render(again) == text


def test_syntax_error_has_position():
    with pytest.raises(ProblemSyntaxError) as ei:
        parse_problem('{"function": "z - x",\n  "domain": }')
    assert ei.value.line == 2
    assert ei.value.col > 0


def test_expression_errors_are_reported():
    with pytest.raises(ProblemSyntaxError):
        parse_problem(interval_problem(fn="pow(z, 0.5) - x"))


def test_exactly_one_source_required():
    doc = interval_problem()
    doc["series"] = ["0.0", "1.0"]
    with pytest.raises(ProblemValidationError):
        parse_problem(doc)
    del doc["series"]
    del doc["function"]
    with pytest.raises(ProblemValidationError):
        parse_problem(doc)


def test_unknown_keys_rejected():
    doc = interval_problem()
    doc["extra"] = 1
    with pytest.raises(ProblemValidationError):
        parse_problem(doc)


def test_fixture_excludes_domain_and_seed():
    with pytest.raises(ProblemValidationError):
        parse_problem({"fixture": "remark-exp", "domain": {"kind": "interval"}})


def test_unknown_config_key_rejected():
    bad = [
        {"no_such_knob": 1},
        {"r_max_rel": 0.1},  # a fixed constant now, no longer a key
        {"certify_steps": "false"},
        {"certify_steps": 1},
        {"max_steps": 40.9},
        {"max_steps": True},
        {"max_steps": 0},
        {"contour_samples": 100},
        {"contour_samples": 8},
        {"residual_tol": float("nan")},
        {"residual_tol": float("inf")},
        {"residual_tol": "1e-8"},
        {"h_min": 0.0},
        {"h0_frac": -0.1},
        {"h_max_frac": 1.5},
        {"blowup_threshold": 10**400},
    ]
    for config in bad:
        with pytest.raises(ValueError):
            parse_problem(interval_problem(config=config))


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    keys = {
        line.split("`")[1]
        for line in section.splitlines()
        if line.startswith("| `")
    }
    assert keys == {f.name for f in fields(EngineConfig)}


def test_seed_out_of_range_rejected():
    with pytest.raises((ProblemValidationError, Exception)):
        parse_problem(interval_problem(x=1.5))


def test_guard_must_sit_on_a_vertex():
    doc = interval_problem(fn="guard(0.5; z; z - x)")
    with pytest.raises(ProblemValidationError):
        build(parse_problem(doc))
    ok = interval_problem(fn="guard(1.0; z; z - x + 1.0 - x)")
    build(parse_problem(ok))


def test_split_must_be_continuous():
    # sides disagree at the cut
    doc = interval_problem(fn="split(0.5; z; z + 1.0)")
    with pytest.raises(ProblemValidationError):
        build(parse_problem(doc))
    # sides agree at the cut: x on the left, 1 - x on the right
    ok = interval_problem(fn="z - split(0.5; x; 1.0 - x)")
    build(parse_problem(ok))


def test_split_cut_must_lie_in_range():
    doc = interval_problem(fn="z - split(3.0; x; x)")
    with pytest.raises(ProblemValidationError):
        build(parse_problem(doc))


def test_fixture_config_override_merges():
    spec = parse_problem({"fixture": "remark-exp", "config": {"max_steps": 123}})
    f, dom, x0, z0, cfg = build(spec)
    assert cfg.max_steps == 123


def test_negative_power_of_z_fails_validation(tmp_path, capsys):
    from rootbranch.cli import main

    # 1/z - x has a pole at z = 0: the argument principle would count it
    for fn in ("pow(z, -1) - x", "exp(pow(z + x, -2)) - 2.0"):
        with pytest.raises(ProblemValidationError, match="not entire in z"):
            build(parse_problem(interval_problem(fn, x=0.5, z=(2.0, 0.0))))
    pf = tmp_path / "pole.json"
    pf.write_text(json.dumps(interval_problem("pow(z, -1) - x", x=0.5, z=(2.0, 0.0))))
    assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 1
    assert "not entire" in capsys.readouterr().err
    # negative powers of bases free of z stay legal
    f, *_ = build(parse_problem(interval_problem("pow(1 - x, -1)*z - pow(x, -2)", x=0.5)))
    assert f.eval(0.5, 2.0) == 0.0
