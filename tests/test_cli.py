import csv
import json

import numpy as np
import pytest

from rootbranch import EntireFunction, Status, fixture_names, parse_expression
from rootbranch.cli import EXIT_CODES, main


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
