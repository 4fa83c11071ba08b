"""README's constants against the code.

Every backticked ALL-CAPS name in README.md must be a name in some
rootbranch module, and every `` `NAME` = value `` in its text (the value
may follow on the next line) must equal that constant.  Every backticked
call with keyword arguments, `` `name(..., kw=...)` ``, must name a
rootbranch function or class whose signature takes each keyword, and
every backticked call that names one must bind to its signature.
"""

import importlib
import inspect
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import rootbranch

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
NAME = r"`([A-Z][A-Z0-9_]+)`"
# an integer, decimal or exponent number, or a fraction such as 1/64
NUMBER = r"(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?:/\d+)?)"


def _module_names() -> dict[str, list]:
    """Each module-level name of the package, with its value in every
    module that has it."""
    out: dict[str, list] = {}
    for info in pkgutil.iter_modules(rootbranch.__path__, "rootbranch."):
        for k, v in vars(importlib.import_module(info.name)).items():
            out.setdefault(k, []).append(v)
    return out


def test_readme_constant_names_exist():
    names = set(re.findall(NAME, README))
    assert names  # the pattern still finds README's constants
    missing = sorted(names - set(_module_names()))
    assert not missing, f"README names constants no module has: {missing}"


def test_readme_constant_values_match():
    pairs = re.findall(NAME + r"\s*=\s*" + NUMBER, README)
    assert pairs
    defined = _module_names()
    for name, text in pairs:
        # Fraction reads 1/64 exactly; float then rounds once, as a literal does
        want = float(Fraction(text))
        got = defined.get(name, [])
        assert got and all(v == want for v in got), f"README: {name} = {text}, code: {got}"


# a backticked call with keyword arguments, which may span a line break;
# fenced code blocks are taken out first, so their ``` fences pair no spans
FENCED = re.compile(r"```.*?```", re.S)
CALL = re.compile(r"`([A-Za-z_][\w.]*)\(([^`]*)\)`")
KEYWORD = re.compile(r"(?<![\w=!<>])([A-Za-z_]\w*)\s*=(?!=)")


def _resolve(dotted: str, defined: dict):
    """The rootbranch function or class a dotted name names, or None."""
    head, *rest = dotted.split(".")
    for obj in defined.get(head, []):
        for part in rest:
            obj = getattr(obj, part, None)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            return obj
    return None


def test_readme_keyword_calls_match_signatures():
    defined = _module_names()
    calls = [
        (name, KEYWORD.findall(args))
        for name, args in CALL.findall(FENCED.sub("", README))
    ]
    calls = [(name, kws) for name, kws in calls if kws]
    assert calls  # the pattern still finds README's calls
    for name, kws in calls:
        target = _resolve(name, defined)
        assert target is not None, f"README calls {name}, which no module defines"
        params = inspect.signature(target).parameters
        for kw in kws:
            assert kw in params, f"README: {name}(..., {kw}=...), signature {params}"


def _split_arguments(text: str) -> list[str]:
    """text split at its top-level commas: series([X(), Const(0j)]) has one
    argument.  An empty text has none."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return [a.strip() for a in out if a.strip()]


def test_readme_calls_bind_to_signatures():
    defined = _module_names()
    bound = 0
    for name, args in CALL.findall(FENCED.sub("", README)):
        target = _resolve(name, defined)
        if target is None:
            continue
        positional, keywords = [], {}
        for arg in _split_arguments(args):
            kw = re.match(r"([A-Za-z_]\w*)\s*=(?!=)", arg)
            if kw:
                keywords[kw.group(1)] = arg
            else:
                positional.append(arg)
        sig = inspect.signature(target)
        owner = _resolve(name.rpartition(".")[0], defined) if "." in name else None
        if inspect.isclass(owner) and inspect.isfunction(target):
            # Class.method: the call names no self
            sig = sig.replace(parameters=list(sig.parameters.values())[1:])
        try:
            sig.bind(*positional, **keywords)
        except TypeError as e:
            raise AssertionError(f"README: {name}({args}) against {sig}: {e}") from None
        bound += 1
    assert bound  # the pattern still finds README's calls
