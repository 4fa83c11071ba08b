"""Every ALL-CAPS module-level constant under src/rootbranch is read
somewhere in the package, as a name or an attribute, outside its own
assignment, so a retired tuning knob cannot linger."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rootbranch"
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


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


def test_every_constant_is_read():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    defined, read = [], set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for stmt in tree.body:
            own = assigned_constants(stmt)
            defined += [(path.name, name) for name in sorted(own)]
            read.update(reads(stmt, own))
    assert len(defined) >= 30  # the walk still finds the constants
    assert [(mod, name) for mod, name in defined if name not in read] == []
