import csv
import json

import numpy as np
import pytest

from rootbranch import (
    EntireFunction,
    ProblemValidationError,
    Status,
    build,
    fixture_names,
    get_fixture,
    parse_expression,
    parse_problem,
)
from rootbranch.cli import EXIT_CODES, main
from rootbranch.expressions import to_text


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_list_fixtures(capsys):
    assert main(["--list-fixtures"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == sorted(names)
    assert set(names) == set(fixture_names())


def test_fixture_run_writes_outputs(tmp_path):
    code = main(["--fixture", "remark-exp", "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "branch.csv")
    assert len(rows) >= 2
    assert set(rows[0]) == {"segment", "arc", "edge", "t", "re_w", "im_w", "residual"}
    # w = 0 along the whole branch
    assert max(abs(float(r["re_w"])) for r in rows) < 1e-10
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "Completed"
    assert summary["output_samples"] == len(rows)


def test_exit_code_matches_status(tmp_path):
    code = main(["--fixture", "counterexample-x2z-x", "--out", str(tmp_path)])
    assert code == EXIT_CODES[__import__("rootbranch").Status.ASYMPTOTIC_BLOWUP] == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "AsymptoticBlowup"


def test_problem_file_round_trip(tmp_path):
    doc = {
        "function": "pow(z, 2) - x",
        "domain": {"kind": "interval"},
        "seed": {"x": 0.25, "z": [0.5, 0.0]},
        "config": {"max_steps": 4000},
    }
    pf = tmp_path / "problem.json"
    pf.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["--problem", str(pf), "--out", str(out), "--samples", "50"]) == 0
    rows = read_csv(out / "branch.csv")
    assert len(rows) == 50
    f = EntireFunction(parse_expression(doc["function"]))
    # 17 significant digits make the CSV loss-free for float64; seed 0.25
    # sweeps left (segment 0) and right (segment 1)
    for r in rows:
        w = complex(float(r["re_w"]), float(r["im_w"]))
        res = float(r["residual"])
        arc = float(r["arc"])
        x = 0.25 - arc if r["segment"] == "0" else 0.25 + arc
        assert abs(f.eval(x, w)) <= max(2 * res, 1e-12)
        if r["edge"] != "-":
            assert float(r["t"]) == pytest.approx(x)


def test_csv_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--fixture", "monic-sqrt", "--out", str(a)]) == 0
    assert main(["--fixture", "monic-sqrt", "--out", str(b)]) == 0
    assert (a / "branch.csv").read_bytes() == (b / "branch.csv").read_bytes()
    # default density gives 1000+ rows, all meeting the residual contract
    rows = read_csv(a / "branch.csv")
    assert len(rows) >= 1000
    assert max(float(r["residual"]) for r in rows) <= 1e-8


def test_tree_fixture_csv_has_edges(tmp_path):
    assert main(["--fixture", "monic-cubic-ytree", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "branch.csv")
    assert {r["edge"] for r in rows} >= {"0", "1", "2"}
    segs = sorted({int(r["segment"]) for r in rows})
    assert segs == [0, 1, 2]


def test_malformed_problem_file_fails_cleanly(tmp_path, capsys):
    pf = tmp_path / "bad.json"
    pf.write_text('{"function": "z -", "domain": {"kind": "interval"}')
    assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.strip()


def test_invalid_tree_problem_fails_cleanly(tmp_path, capsys):
    doc = {
        "function": "z - x",
        "domain": {
            "kind": "tree",
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b", 1.0], ["b", "c", 1.0], ["c", "a", 1.0]],
        },
        "seed": {"point": {"vertex": "a"}, "z": [0.0, 0.0]},
    }
    pf = tmp_path / "cyclic.json"
    pf.write_text(json.dumps(doc))
    assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip()


OVERFLOW_MESSAGE = "total edge length inf is not finite"


@pytest.mark.parametrize(
    "vertices, edges",
    [
        (["a", "b", "c"], [["a", "b", 1e308], ["b", "c", 1e308]]),
        # seeded at leaf a, the sweep a-c-b is 2e308 long
        (["c", "a", "b"], [["c", "a", 1e308], ["c", "b", 1e308]]),
    ],
    ids=["chain", "star"],
)
def test_tree_whose_length_overflows_is_invalid(tmp_path, capsys, vertices, edges):
    doc = {
        "function": "pow(z, 2) - 1",
        "domain": {"kind": "tree", "vertices": vertices, "edges": edges},
        "seed": {"point": {"vertex": "a"}, "z": [1.0, 0.0]},
    }
    with pytest.raises(ProblemValidationError, match=OVERFLOW_MESSAGE):
        build(parse_problem(doc))
    pf = tmp_path / "huge.json"
    pf.write_text(json.dumps(doc))
    assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 1
    assert OVERFLOW_MESSAGE in capsys.readouterr().err
    assert not (tmp_path / "branch.csv").exists()


def test_tree_near_the_float_limit_runs(tmp_path):
    # the edges add up to 1.5e308: finite, so the problem is valid
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({
        "function": "pow(z, 2) - 1",
        "domain": {
            "kind": "tree",
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b", 1e308], ["b", "c", 5e307]],
        },
        "seed": {"point": {"vertex": "a"}, "z": [1.0, 0.0]},
    }))
    assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 0
    assert len(read_csv(tmp_path / "branch.csv")) == 1200


@pytest.mark.parametrize(
    "vertices, edges, point",
    [
        (["a", "b"], [["a", "b", 1e-320]], {"vertex": "a"}),
        (["a", "b", "c"], [["a", "b", 1e-320], ["b", "c", 1e-320]], {"edge": 0, "t": 0.5}),
    ],
)
def test_tree_of_subnormal_length_runs(tmp_path, vertices, edges, point):
    # the rows are shared out by span / total length, scaled by a power of
    # two that is past the float range for a subnormal total length
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({
        "function": "z - x",
        "domain": {"kind": "tree", "vertices": vertices, "edges": edges},
        "seed": {"point": point, "z": [0.0, 0.0]},
    }))
    assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 0
    assert len(read_csv(tmp_path / "branch.csv")) == 1200


def test_seed_past_the_float_range_is_blowup(tmp_path):
    # the seed root's parts are finite but its modulus is not: no circle
    # about it has finite nodes, so the run ends before its first step
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({
        "function": "(z - (1.5e308 + 1.5e308*i))*(z + 1)",
        "domain": {"kind": "interval"},
        "seed": {"x": 0.0, "z": [1.5e308, 1.5e308]},
    }))
    assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "AsymptoticBlowup"
    assert summary["diagnostics"]["at_seed"] is True
    assert summary["diagnostics"]["accepted_steps"] == 0
    assert len(read_csv(tmp_path / "branch.csv")) == 1


@pytest.mark.filterwarnings("error")
def test_seed_whose_first_circle_overflows_is_blowup(tmp_path, capsys):
    # |w0| is finite, but the first localization circle, of radius |w0| / 2,
    # reaches past the float range: the run ends at the seed without a
    # numpy overflow warning
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({
        "function": "(z - 1.7e308)*(z + 1)",
        "domain": {"kind": "interval"},
        "seed": {"x": 0.0, "z": [1.7e308, 0.0]},
    }))
    assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "AsymptoticBlowup"
    diag = summary["diagnostics"]
    assert diag["at_seed"] is True and diag["max_abs_w"] == 1.7e308
    assert diag["accepted_steps"] == diag["localizations"] == 0


def test_fixture_texts_are_rendered_trees():
    for name in fixture_names():
        doc = get_fixture(name).problem
        for text in [doc["function"]] if "function" in doc else doc["series"]:
            assert to_text(parse_expression(text)) == text


# the fixtures that run in well under a second
FAST_FIXTURES = [
    "counterexample-x2z-x", "monic-cubic-interval", "monic-cubic-ytree",
    "monic-sqrt", "remark-exp",
]


@pytest.mark.parametrize("name", FAST_FIXTURES)
def test_fixture_document_runs_like_the_fixture(tmp_path, name):
    doc = get_fixture(name).problem
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(doc))
    a, b = tmp_path / "problem", tmp_path / "fixture"
    code = main(["--problem", str(pf), "--out", str(a)])
    assert code == main(["--fixture", name, "--out", str(b)])
    assert (a / "branch.csv").read_bytes() == (b / "branch.csv").read_bytes()


def test_unknown_fixture_fails_cleanly(tmp_path, capsys):
    assert main(["--fixture", "no-such-fixture", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip()


def test_config_override_in_fixture_problem(tmp_path):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({"fixture": "remark-exp", "config": {"max_steps": 200}}))
    assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["max_steps"] == 200


def test_requires_a_source(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err.strip()


def test_summary_is_strict_json_when_the_seed_residual_overflows(tmp_path):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({
        "function": "exp(exp(exp(z))) - x",
        "domain": {"kind": "interval"},
        "seed": {"x": 0.5, "z": [50.0, 0.0]},
    }))
    assert main(["--problem", str(pf), "--out", str(tmp_path)]) == EXIT_CODES[Status.SEED_INVALID]

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    text = (tmp_path / "summary.json").read_text()
    summary = json.loads(text, parse_constant=no_constant)
    assert summary["status"] == "SeedInvalid"
    assert summary["diagnostics"]["seed_residual"] is None
    assert summary["engine_samples"] == 0
    assert summary["max_residual"] is None


def _interval_problem(function):
    return {
        "function": function,
        "domain": {"kind": "interval"},
        "seed": {"x": 0.5, "z": [0.0, 0.0]},
    }


@pytest.mark.parametrize(
    "doc, source, col",
    [
        (_interval_problem("z - 1e999"), "function", 5),
        (_interval_problem("pow(z, 1e999) - 1"), "function", 8),
        (_interval_problem("guard(1e999; z; z)"), "function", 7),
        ({"series": ["1e999", "1"], "domain": {"kind": "interval"},
          "seed": {"x": 0.5, "z": [0.0, 0.0]}}, "series coefficient 0", 1),
    ],
    ids=["constant", "exponent", "guard point", "series coefficient"],
)
def test_number_too_large_for_a_float_is_a_syntax_error(tmp_path, capsys, doc, source, col):
    pf = tmp_path / "huge.json"
    pf.write_text(json.dumps(doc))
    assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"rootbranch: syntax error: {source}: number 1e999 does not fit a float"
        f" (line 1, col {col})\n"
    )


@pytest.mark.parametrize(
    "text",
    [
        json.dumps(_interval_problem("exp(" * 250 + "z" + ")" * 250 + " - x")),
        json.dumps(_interval_problem("(" * 3000 + "z - x" + ")" * 3000)),
        json.dumps(_interval_problem("-" * 3000 + "z - x")),
        "[" * 100000 + "]" * 100000,
    ],
    ids=[
        "250 nested exp",
        "3000 nested parentheses",
        "3000 minus signs",
        "100000 nested arrays",
    ],
)
def test_deep_nesting_is_a_syntax_error(tmp_path, capsys, text):
    pf = tmp_path / "deep.json"
    pf.write_text(text)
    assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rootbranch: syntax error: ") and "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "function, config",
    [
        ("*".join(["(z + x)"] * 300), {}),
        ("exp(z*" * 180 + "x" + ")" * 180 + " - x", {"max_steps": 20}),
        (" + ".join(["z"] * 3000) + " - x", {}),
    ],
    ids=["product of 300 factors", "180 nested exp(z*", "sum of 3000 terms"],
)
def test_tall_expression_within_the_nesting_bound_runs(tmp_path, capsys, function, config):
    # each tree is hundreds or thousands of nodes tall, its dz tree taller
    # still; no walk over either may hit the recursion limit
    pf = tmp_path / "tall.json"
    pf.write_text(json.dumps({**_interval_problem(function), "config": config}))
    code = main(["--problem", str(pf), "--out", str(tmp_path)])
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert code == EXIT_CODES[Status(summary["status"])]


def test_nesting_at_the_bound_reaches_the_solver(tmp_path):
    # exp of exp ... of 0 is far from 0.5: the seed is rejected by the solver
    doc = _interval_problem("exp(" * 200 + "z" + ")" * 200 + " - x")
    pf = tmp_path / "deep.json"
    pf.write_text(json.dumps(doc))
    code = main(["--problem", str(pf), "--out", str(tmp_path)])
    assert code == EXIT_CODES[Status.SEED_INVALID]


@pytest.mark.parametrize(
    "function, z0, status",
    [
        # |F| at the seed has finite parts and a modulus past the float range
        ("1e308*(z+1) + 1e308*i*(z+1)", 0.5, Status.SEED_INVALID),
        # the seed root itself has a modulus past the float range
        ("z - (1.5e308 + 1.5e308*i)", 1.5e308 + 1.5e308j, None),
        # a constant power past the float range: (1e-320)**2 underflows to
        # 0, so folding its inverse raised ZeroDivisionError
        ("z - pow(1e-320, -2)*x", 0.0, Status.SEED_INVALID),
    ],
    ids=["residual", "seed", "inverse power"],
)
def test_moduli_past_the_float_range_end_in_a_status(tmp_path, capsys, function, z0, status):
    doc = {**_interval_problem(function), "seed": {"x": 0.0, "z": [z0.real, z0.imag]}}
    pf = tmp_path / "huge.json"
    pf.write_text(json.dumps(doc))
    code = main(["--problem", str(pf), "--out", str(tmp_path)])
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert code == EXIT_CODES[Status(summary["status"])]
    if status is not None:
        assert code == EXIT_CODES[status]


@pytest.mark.parametrize(
    "function, domain, seed, code, diagnostic",
    [
        # z -> x*z - x is constant at the seed x = 0: no step is taken
        ("x*z - x", {"kind": "interval"}, {"x": 0.0, "z": [1.0, 0.0]}, 3, "at_seed"),
        # a one-vertex tree has nothing to sweep
        (
            "z*z - 1 - x",
            {"kind": "tree", "vertices": ["a"], "edges": []},
            {"point": {"vertex": "a"}, "z": [1.0, 0.0]},
            0,
            "trivial_domain",
        ),
    ],
    ids=["degenerate seed", "one-vertex tree"],
)
def test_branch_without_sweeps_writes_its_seed_row(
    tmp_path, function, domain, seed, code, diagnostic
):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({"function": function, "domain": domain, "seed": seed}))
    out = tmp_path / "out"
    assert main(["--problem", str(pf), "--out", str(out)]) == code
    text = (out / "branch.csv").read_text()
    assert text == "segment,arc,edge,t,re_w,im_w,residual\n0,0,-,0,1,0,0\n"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diagnostics"][diagnostic] is True
    assert summary["engine_samples"] == summary["output_samples"] == 1


@pytest.mark.parametrize(
    "function, domain, seed, status",
    [
        # F = 1 has no root: the seed does not polish
        ("x*0 + 1 + 0*z", {"kind": "interval"}, {"x": 0.0, "z": 0.0}, "SeedInvalid"),
        ("x*z - x", {"kind": "interval"}, {"x": 0.0, "z": 1.0}, "DegenerateBarrier"),
        (
            "(z - 1.7e308)*(z + 1)",
            {"kind": "interval"},
            {"x": 0.0, "z": 1.7e308},
            "AsymptoticBlowup",
        ),
        (
            "z*z - 1 - x",
            {"kind": "tree", "vertices": ["a"], "edges": []},
            {"point": {"vertex": "a"}, "z": 1.0},
            "Completed",
        ),
    ],
    ids=["invalid seed", "degenerate seed", "far seed", "one-vertex tree"],
)
def test_a_run_without_steps_reports_its_certify_counts(tmp_path, function, domain, seed, status):
    # with certify_steps every run carries certify_checked and
    # certify_failures, also one that ends before its first step
    doc = {"function": function, "domain": domain, "seed": seed,
           "config": {"certify_steps": True}}
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(doc))
    main(["--problem", str(pf), "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == status
    d = summary["diagnostics"]
    assert d["certify_checked"] == d["certify_failures"] == d["accepted_steps"] == 0
    assert d["twin_segments"] == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--samples", "abc", "--fixture", "monic-sqrt"], "invalid int value: 'abc'"),
        (["--bogus"], "unrecognized arguments: --bogus"),
        (["--problem", "a", "--fixture", "b"], "not allowed with argument"),
    ],
)
def test_argparse_usage_error_exits_1(tmp_path, capsys, argv, message):
    # argparse's own exit code, 2, is AsymptoticBlowup's
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: rootbranch") and message in err
    assert not (tmp_path / "summary.json").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rootbranch")


def test_too_few_samples_is_a_usage_error(tmp_path, capsys):
    assert main(["--fixture", "remark-exp", "--samples", "1", "--out", str(tmp_path)]) == 1
    assert "--samples must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_missing_problem_file_reports_the_os_error(tmp_path, capsys):
    missing = tmp_path / "no-such-problem.json"
    assert main(["--problem", str(missing), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rootbranch: [Errno 2] No such file or directory")
    assert str(missing) in err and "Traceback" not in err
