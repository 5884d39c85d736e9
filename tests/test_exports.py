"""Public names: every ``__all__`` entry resolves, and every name the
package re-exports is public in its module."""

import ast
import importlib
from pathlib import Path

import pytest

import l0bounds

SRC = Path(l0bounds.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"l0bounds.{name}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert not missing, f"l0bounds.{name}.__all__ names missing attributes {missing}"


def test_package_reexports_only_public_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"l0bounds.{node.module}")
        public = set(getattr(mod, "__all__", ()))
        private = [a.name for a in node.names if a.name not in public]
        assert not private, f"l0bounds re-exports {private}, not in {node.module}.__all__"
        for a in node.names:
            assert getattr(l0bounds, a.asname or a.name) is getattr(mod, a.name)
