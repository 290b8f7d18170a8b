"""Source hygiene: no module of the package imports a name it never uses,
none checks anything with ``assert``, and no private module-level function,
class or constant and no private method is left without a reference.

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


def _referenced_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {alias.name for alias in sub.names}
    return names


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined_names(node) -> list[str]:
    """Names a top-level statement defines: a function, a class, or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)]


def _attributes(node, name: str) -> int:
    return sum(isinstance(sub, ast.Attribute) and sub.attr == name
               for sub in ast.walk(node))


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants that no other
    top-level statement of the package names (a recursive call does not
    count), and private methods that no attribute of the package names
    outside their own body."""
    trees = [(module, ast.parse(source)) for module, source in sorted(sources.items())]
    statements = [(module, node) for module, tree in trees for node in tree.body]
    out = []
    for module, node in statements:
        for name in filter(_private, _defined_names(node)):
            if not any(name in _referenced_names(other)
                       for _, other in statements if other is not node):
                out.append(f"{module} line {node.lineno}: {name}")
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _private(method.name)
                    and sum(_attributes(tree, method.name) for _, tree in trees)
                    == _attributes(method, method.name)):
                out.append(f"{module} line {method.lineno}: {node.name}.{method.name}")
    return out


def test_scan_flags_an_unreferenced_private_definition():
    src = ("def _used():\n    return 1\n\n"
           "def _dead(k):\n    return _dead(k - 1) if k else 0\n\n"
           "class _Gone:\n    pass\n\n"
           "def public():\n    return _used()\n")
    assert unreferenced_private({"m.py": src}) == [
        "m.py line 4: _dead", "m.py line 7: _Gone"]
    helper = {"a.py": "def _f():\n    return 1\n"}
    assert unreferenced_private(helper) == ["a.py line 1: _f"]
    assert unreferenced_private({**helper, "b.py": "from .a import _f\n"}) == []
    attribute = {"b.py": "from . import a\nx = a._f()\n"}
    assert unreferenced_private({**helper, **attribute}) == []


def test_scan_flags_unreferenced_private_methods_and_constants():
    src = ("_LIMIT, _SPARE = 3, 4\n_TABLE: dict = {}\n\n"
           "class C:\n"
           "    def _kept(self):\n        return _LIMIT\n\n"
           "    def _orphan(self, k):\n"
           "        return self._orphan(k - 1) if k else _TABLE\n\n"
           "    def __repr__(self):\n        return 'C'\n\n"
           "def public():\n    return C()._kept()\n")
    assert unreferenced_private({"m.py": src}) == [
        "m.py line 1: _SPARE", "m.py line 8: C._orphan"]
    # an attribute in another module keeps a method, an import a constant
    other = {"n.py": "from .m import _SPARE\n\ndef f(c):\n    return c._orphan(1)\n"}
    assert unreferenced_private({"m.py": src, **other}) == []


def test_no_unreferenced_private_definitions():
    sources = {path.name: path.read_text() for path in ALL_MODULES}
    assert unreferenced_private(sources) == []


def unread_parameters(source: str) -> list[str]:
    """Parameters of a ``def`` that its body never reads.  ``self`` and
    ``cls`` are exempt; lambdas are not scanned, since the CLI's handlers
    take ``args`` whether or not they use it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        spec = node.args
        params = [*spec.posonlyargs, *spec.args, *spec.kwonlyargs,
                  *(p for p in (spec.vararg, spec.kwarg) if p)]
        read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        out += [f"line {node.lineno}: {node.name}({p.arg})" for p in params
                if p.arg not in ("self", "cls", *read)]
    return out


def test_scan_flags_an_unread_parameter():
    src = ("def f(a, b, *rest, tau=None, **kw):\n    return a + kw['x']\n\n"
           "class C:\n    def m(self, x):\n        def inner():\n"
           "            return x\n        return inner\n\n"
           "    @classmethod\n    def make(cls, y):\n        return y\n\n"
           "handler = lambda args: 0\n")
    assert unread_parameters(src) == [
        "line 1: f(b)", "line 1: f(tau)", "line 1: f(rest)"]
    # a parameter that is only overwritten is never read
    assert unread_parameters("def g(k):\n    k = 2\n    return 0\n") == ["line 1: g(k)"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []
