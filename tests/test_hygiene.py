"""Source hygiene: no module of the package imports a name it never uses,
and none checks anything with ``assert``.

No linter ships with the test dependencies, so this is the pyflakes F401
check for the package's own modules, done with ``ast``.  An import kept on
purpose (a re-export) carries ``# noqa: F401`` on its line.  ``python -O``
strips ``assert`` statements, so a check written as one silently stops
checking; the package raises instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gkz"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _used_names(tree) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "SymmetryGroup"
            try:
                used |= _used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = _used_names(tree)
    return [f"line {line}: {name}" for line, name in imported if name not in used]


def test_scan_flags_an_unused_import():
    src = "from typing import Optional, Sequence\nx: Optional[int] = None\n"
    assert unused_imports(src) == ["line 1: Sequence"]
    assert unused_imports("import os  # noqa: F401\n") == []
    assert unused_imports('import os\ny: "os.PathLike"\n') == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def assert_statements(source: str) -> list[str]:
    tree = ast.parse(source)
    return [f"line {node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_scan_flags_an_assert():
    assert assert_statements("def f(x):\n    assert x > 0\n    return x\n") == ["line 2"]
    assert assert_statements("if not x:\n    raise ValueError(x)\n") == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []
