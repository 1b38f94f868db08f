"""Every top-level import in the package's modules is used, and so is
every private top-level function and class.

Stdlib ``ast`` checks, since no linter is part of the test run: a name a
module imports at top level must appear in its code as a name, unless the
line that imports it carries ``# noqa: F401`` (a name other code looks up
in the module). ``__init__.py`` is skipped: its imports are the public
re-exports. A function or class whose name begins with one underscore must
be named (read as a name or an attribute, or imported) by some code of the
package, tests aside.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "egoforge"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names the top-level imports of ``source`` bind that no code reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import (\n    pi,\n    tau,\n)\nprint(pi)\n"
    assert _unused_imports(source) == ["line 1: os", "line 5: tau"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unnamed_private(sources: dict[str, str]) -> list[str]:
    """The private top-level functions and classes of ``sources`` (module
    name -> source) that none of them names."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    named = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    return [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in named
    ]


def test_the_check_sees_an_unnamed_private_definition():
    sources = {
        "a": "def _used():\n    pass\n\n\ndef _lost():\n    pass\n\n\nclass _Kept:\n    pass\n\n\nclass _Read:\n    pass\n",
        "b": "from a import _Kept\n\n\nclass _Spare:\n    pass\n\n\nprint(_used(), a._Read)\n",
    }
    assert _unnamed_private(sources) == ["a: _lost", "b: _Spare"]


def test_no_unnamed_private_definition():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert _unnamed_private(sources) == []
