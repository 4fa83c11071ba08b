import importlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootbranch import (
    EngineConfig,
    ProblemSpec,
    ProblemSyntaxError,
    ProblemValidationError,
    build,
    parse_expression,
    parse_problem,
    problem,
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


def series_problem(coeffs, x=0.25, z=(0.5, 0.0)):
    doc = interval_problem(x=x, z=z)
    del doc["function"]
    doc["series"] = list(coeffs)
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


def test_series_coefficients_must_be_text_or_numbers():
    doc = {
        "series": [True, False, 1.0],
        "domain": {"kind": "interval"},
        "seed": {"x": 0.0, "z": [0.0, 0.0]},
    }
    with pytest.raises(ProblemValidationError):
        parse_problem(doc)
    # JSON integers are numbers too
    doc["series"] = [-1, 0, 1]
    assert parse_problem(doc).series == ("-1.0", "0.0", "1.0")


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


def test_syntax_error_in_expression_text_names_its_source():
    with pytest.raises(ProblemSyntaxError) as ei:
        parse_problem(series_problem(["x", "1.0 +* x", "1.0"]))
    assert str(ei.value) == (
        "series coefficient 1: expected a number, name, or '(' (line 1, col 6)"
    )
    # line and column count within the function text, not the document
    doc = json.dumps(interval_problem(fn="z -\n  * x"), indent=2)
    with pytest.raises(ProblemSyntaxError) as ei:
        parse_problem(doc)
    assert str(ei.value) == "function: expected a number, name, or '(' (line 2, col 3)"
    assert (ei.value.line, ei.value.col) == (2, 3)
    # an error in the JSON itself keeps its document position and no prefix
    with pytest.raises(ProblemSyntaxError) as ei:
        parse_problem('{"function": "z - x",\n  "domain": }')
    assert str(ei.value) == "Expecting value (line 2, col 13)"


@pytest.mark.parametrize("text", ["٣*z", "１+z"])
def test_number_is_ascii_digits(text):
    # an Arabic-Indic three and a fullwidth one are decimal digits to \d
    with pytest.raises(ProblemSyntaxError, match="unexpected character") as ei:
        parse_expression(text)
    assert (ei.value.line, ei.value.col) == (1, 1)


# The tokenizer as it was before one regex scan read every token: one match
# per position and one _Token each, with line and column counted as it
# goes.  It is the reference the scan must agree with, token for token
# (kind, text, line and column) and error for error.
_REF_TOKEN_RE = re.compile(
    r"""
    (?P<num>   (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)? )
  | (?P<name>  [A-Za-z_][A-Za-z_0-9]* )
  | (?P<op>    [-+*();,] )
  | (?P<ws>    [ \t\r\n]+ )
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    line: int
    col: int


def _reference_tokenize(text: str) -> list[_Token]:
    out = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            raise ProblemSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - bol + 1
            )
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            out.append(_Token(kind, tok, line, pos - bol + 1))
        line += tok.count("\n")
        if "\n" in tok:
            bol = pos + tok.rindex("\n") + 1
        pos = m.end()
    out.append(_Token("end", "", line, len(text) - bol + 1))
    return out


_TOKEN_CHARS = "0123456789.eE" + "xzipowsgulcbdEXZ_" + "+-*();," + " \t\r\n"
_TEXTS = st.one_of(
    st.text(st.sampled_from(_TOKEN_CHARS), max_size=40),
    st.text(st.sampled_from(_TOKEN_CHARS + "$\xa0\x0b#"), max_size=40),
)


@settings(max_examples=400, deadline=None)
@given(_TEXTS)
@example("")
@example("  \n\t")
@example("1.e5 .5E-3\r\n x2 .")
@example("e.g")
@example("(1 +\n\n  \xa0")
def test_tokenizer_matches_the_reference(text):
    try:
        want = _reference_tokenize(text)
    except ProblemSyntaxError as e:
        with pytest.raises(ProblemSyntaxError) as ei:
            problem._tokenize(text)
        assert (str(ei.value), ei.value.line, ei.value.col) == (str(e), e.line, e.col)
        return
    got = problem._tokenize(text)
    assert [(t.kind, t.text, t.line, t.col) for t in want] == [
        (_kind(tok), tok, *problem._where(text, k)) for k, tok in enumerate(got)
    ]


def _kind(tok: str) -> str:
    """A token's kind, told by its first character as the parser tells it."""
    if not tok:
        return "end"
    if tok[0] in "0123456789.":
        return "num"
    return "name" if tok[0].isalpha() or tok[0] == "_" else "op"


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
        # fixed module constants now, no longer keys
        {"contour_samples": 128},
        {"h0_frac": 1.0 / 64.0},
        {"h_max_frac": 0.125},
        {"h_min": 1e-12},
        {"seed_tol": 1e-9},
        {"blowup_soft": 500.0},
        {"osc_tol": 1e-6},
    ]
    for config in bad:
        with pytest.raises(ValueError):
            parse_problem(interval_problem(config=config))


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    # each row: | `key` | default | ...; the default is written as JSON
    defaults = {
        line.split("`")[1]: json.loads(line.split("|")[2].strip())
        for line in section.splitlines()
        if line.startswith("| `")
    }
    assert defaults == EngineConfig().as_dict()


def test_readme_constants_live_where_it_says():
    # each clause of the section names constants, then "in `rootbranch.m`"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    parts = re.split(r"in\s+`rootbranch\.(\w+)`", section)
    placed = [
        (module, name)
        for text, module in zip(parts[::2], parts[1::2])
        for name in re.findall(r"`([A-Z][A-Z0-9_]*)`", text)
    ]
    assert {module for module, _ in placed} == {"contour", "engine", "expressions", "localize"}
    missing = [
        (module, name)
        for module, name in placed
        if not hasattr(importlib.import_module(f"rootbranch.{module}"), name)
    ]
    assert not missing


def test_build_parses_each_text_once(monkeypatch):
    # parse_problem keeps the tree it checked on the spec and build uses it
    texts = []
    parse = problem.parse_expression

    def counting(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(problem, "parse_expression", counting)
    docs = [
        interval_problem(),
        series_problem(["-x", "0", "1"]),
        {"fixture": "monic-cubic-ytree"},
    ]
    for doc, parses in zip(docs, [1, 3, 4]):
        texts.clear()
        build(parse_problem(doc))
        assert len(texts) == parses, doc
    # the tree takes no part in equality, and a spec made by hand builds
    spec = parse_problem(interval_problem())
    by_hand = ProblemSpec(function=spec.function, domain=spec.domain, seed=spec.seed)
    assert by_hand == spec and by_hand.expr is None
    assert str(build(by_hand)[0].expr) == str(build(spec)[0].expr)


def test_number_that_underflows_reads_as_zero():
    spec = parse_problem(interval_problem("pow(z, 2) - x + 1e-999"))
    assert str(spec.expr) == str(parse_problem(interval_problem()).expr)


def test_seed_out_of_range_rejected():
    with pytest.raises((ProblemValidationError, Exception)):
        parse_problem(interval_problem(x=1.5))


def tree_problem(point, length=2.0, z=(0.5, 0.0)):
    return {
        "function": "z - x",
        "domain": {
            "kind": "tree",
            "vertices": ["u", "v"],
            "edges": [["u", "v", length]],
        },
        "seed": {"point": point, "z": list(z)},
    }


def test_malformed_seed_rejected(tmp_path, capsys):
    from rootbranch.cli import main

    bad = [
        interval_problem(x="0.25"),
        interval_problem(x=True),
        interval_problem(x=None),
        interval_problem(z=("0.5", 0.0)),
        interval_problem(z=(0.5, False)),
        {**interval_problem(), "seed": {"x": 0.25, "z": True}},
        tree_problem({"edge": 1.5, "t": 0.5}),
        tree_problem({"edge": 0.0, "t": 0.5}),
        tree_problem({"edge": "0", "t": 0.5}),
        tree_problem({"edge": True, "t": 0.5}),
        tree_problem({"edge": 0, "t": "0.5"}),
        tree_problem({"edge": 0, "t": True}),
        tree_problem({"edge": 0, "t": 0.5}, length="2.0"),
        tree_problem({"edge": 0, "t": 0.5}, length=True),
        tree_problem({"edge": 5, "t": 0.5}),
        tree_problem({"edge": -1, "t": 0.5}),
        tree_problem({"edge": 0, "t": 1.5}),
        tree_problem({"vertex": "nope"}),
    ]
    # JSON integers too large for a float: float() would raise OverflowError
    huge = 10**400
    too_large = [
        interval_problem(x=huge),
        interval_problem(z=(huge, 0.0)),
        interval_problem(z=(0.5, -huge)),
        {**interval_problem(), "seed": {"x": 0.25, "z": huge}},
        series_problem([huge, 1]),
        tree_problem({"edge": 0, "t": huge}),
        tree_problem({"edge": 0, "t": 0.5}, length=huge),
    ]
    for doc in bad + too_large:
        with pytest.raises(ProblemValidationError):
            parse_problem(doc)
    pf = tmp_path / "bad-seed.json"
    # a malformed point, and a well-formed one outside the tree: both are
    # invalid problems, not solver errors
    for point in ({"edge": 1.5, "t": 0.5}, {"vertex": "nope"}):
        pf.write_text(json.dumps(tree_problem(point)))
        assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 1
        assert "invalid problem" in capsys.readouterr().err
    for doc in too_large:
        pf.write_text(json.dumps(doc))
        assert main(["--problem", str(pf), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "invalid problem" in err and "Traceback" not in err
    # JSON integers are numbers too
    spec = parse_problem(tree_problem({"edge": 0, "t": 1}, length=2, z=[1, 0]))
    assert spec.seed == {"point": {"edge": 0, "t": 1.0}, "z": [1.0, 0.0]}
    assert spec.domain["edges"] == [["u", "v", 2.0]]
    assert parse_problem(interval_problem(x=0)).seed["x"] == 0.0


def test_guard_must_sit_on_a_vertex():
    bad = (
        interval_problem(fn="guard(0.5; z; z - x)"),
        series_problem(["guard(0.3; 0; 1)", "1"], z=(0.0, 0.0)),
    )
    for doc in bad:
        with pytest.raises(ProblemValidationError, match="guard point"):
            build(parse_problem(doc))
    ok = (
        interval_problem(fn="guard(1.0; z; z - x + 1.0 - x)"),
        series_problem(["guard(1.0; -x; 1.0 - 2*x)", "1"]),
    )
    for doc in ok:
        build(parse_problem(doc))


def test_split_must_be_continuous():
    # sides disagree at the cut
    bad = (
        interval_problem(fn="split(0.5; z; z + 1.0)"),
        series_problem(["split(0.5; 0; 1)", "1"], z=(0.0, 0.0)),
    )
    for doc in bad:
        with pytest.raises(ProblemValidationError, match="discontinuous"):
            build(parse_problem(doc))
    # sides agree at the cut: x on the left, 1 - x on the right
    ok = (
        interval_problem(fn="z - split(0.5; x; 1.0 - x)"),
        series_problem(["-split(0.5; x; 1.0 - x)", "1"]),
    )
    for doc in ok:
        build(parse_problem(doc))


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
