"""The public names of the package: every ``__all__`` entry exists, and the
package namespace re-exports only names its modules declare public."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import elliprmt

MODULES = sorted(m.name for m in pkgutil.iter_modules(elliprmt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"elliprmt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"elliprmt.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_are_public():
    tree = ast.parse(Path(elliprmt.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package imports its own modules only"
        public = importlib.import_module(f"elliprmt.{node.module}").__all__
        for alias in node.names:
            assert alias.name in public, f"{alias.name} is not in elliprmt.{node.module}.__all__"
            assert hasattr(elliprmt, alias.name)
