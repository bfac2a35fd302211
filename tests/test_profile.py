"""The property tests' budget is set in one place, ``conftest.py``.

A plain ``ast`` walk, as in ``test_int_checks.py``: no other test module
may name hypothesis's ``settings``, a ``SETTINGS`` copy of it, or
``max_examples``.
"""

import ast
from pathlib import Path

TESTS = sorted(p for p in Path(__file__).parent.glob("*.py") if p.name != "conftest.py")
BUDGET_NAMES = {"settings", "SETTINGS", "max_examples"}


def budget_lines(source: str) -> list[int]:
    """Lines that import, read, call or pass one of ``BUDGET_NAMES``."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id in BUDGET_NAMES
            or isinstance(node, ast.Attribute) and node.attr in BUDGET_NAMES
            or isinstance(node, ast.keyword) and node.arg in BUDGET_NAMES
            or isinstance(node, ast.alias) and node.name in BUDGET_NAMES
        }
    )


def test_no_test_module_sets_its_own_budget():
    source = (
        "from hypothesis import given, settings\n"
        "SETTINGS = settings(deadline=None)\n"
        "@SETTINGS\n"
        "@hypothesis.settings(max_examples=10)\n"
        "@given(st.integers())\n"
        "def test(n, settings_dir, examples): ...\n"
    )
    assert budget_lines(source) == [1, 2, 3, 4]
    found = {path.name: budget_lines(path.read_text(encoding="utf-8")) for path in TESTS}
    assert {name: lines for name, lines in found.items() if lines} == {}
