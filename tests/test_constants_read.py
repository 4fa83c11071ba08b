"""Every ALL-CAPS module-level constant and every module-level _private
function and class under src/rootbranch is read somewhere in the package,
as a name or an attribute, outside its own assignment or definition, so a
retired tuning knob or a helper left behind by a consolidation cannot
linger."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rootbranch"
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")
PRIVATE = re.compile(r"_(?!_)\w*")  # _name, not a __dunder__


def assigned_constants(stmt):
    """The ALL-CAPS names a module-level statement assigns."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {
        t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)
    }


def reads(node, skip):
    """Names loaded and attributes read under node, less the names in skip."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        else:
            continue
        if name not in skip:
            yield name


def defined_private(stmt):
    """The _private name a module-level def or class statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        if PRIVATE.fullmatch(stmt.name):
            return {stmt.name}
    return set()


def unread(defines, at_least):
    """The (module, name) pairs that defines finds in a module-level
    statement and that no statement reads outside its own."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    defined, read = [], set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for stmt in tree.body:
            own = defines(stmt)
            defined += [(path.name, name) for name in sorted(own)]
            read.update(reads(stmt, own))
    assert len(defined) >= at_least  # the walk still finds them
    return [(mod, name) for mod, name in defined if name not in read]


def test_every_constant_is_read():
    assert unread(assigned_constants, 30) == []


def test_every_private_helper_is_read():
    assert unread(defined_private, 50) == []
