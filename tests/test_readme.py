"""README.md names only what the package has: every backticked
`module.name` whose module is an ``egoforge`` module is an attribute of it.
A glob such as `model._plain_*` names a family and is not looked up."""

import importlib
import pkgutil
import re
from pathlib import Path

import egoforge

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(egoforge.__path__)}


def _named():
    """Each backticked `module.name` of an egoforge module, in README order."""
    found = re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_][\w*]*)`", README.read_text(encoding="utf-8"))
    return [(module, name) for module, name in found if module in MODULES and "*" not in name]


def test_every_module_name_in_the_readme_exists():
    named = _named()
    assert len(named) >= 20
    missing = [f"{module}.{name}" for module, name in named if not hasattr(importlib.import_module(f"egoforge.{module}"), name)]
    assert missing == []
