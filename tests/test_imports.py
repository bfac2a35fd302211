"""Every module-level import in the package is used.

A plain ``ast`` walk, so no linter is needed: a name bound by a
top-level ``import`` or ``from ... import`` must be read somewhere in
its module, or be listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import logistic_horizon

MODULES = sorted(Path(logistic_horizon.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import numpy.linalg\n"
        "from .a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f():\n"
        "    return numpy.linalg.norm(d)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 2: system", "line 4: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
