"""The package's only runtime dependency is numpy (pyproject.toml): every
absolute import under src/rootbranch names a standard-library module or
numpy."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rootbranch"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path):
    """Top-level package names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_are_stdlib_or_numpy():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = {p.name: sorted(set(absolute_imports(p)) - ALLOWED) for p in sources}
    assert {name: mods for name, mods in outside.items() if mods} == {}


def test_no_module_imports_dataclasses():
    # every record is a named tuple or a plain class, so importing the
    # package generates no dataclass code
    sources = sorted(SRC.glob("*.py"))
    assert sources
    users = [p.name for p in sources if "dataclasses" in set(absolute_imports(p))]
    assert users == []
