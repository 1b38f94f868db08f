"""Every top-level import in the package's modules is used.

A stdlib ``ast`` check, since no linter is part of the test run: a name a
module imports at top level must appear in its code as a name, unless the
line that imports it carries ``# noqa: F401`` (a name other code looks up
in the module). ``__init__.py`` is skipped: its imports are the public
re-exports.
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
