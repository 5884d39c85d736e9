"""Public names: every ``__all__`` entry resolves, every name the package
re-exports is public in its module, and the names the traced benchmark
reads exist."""

import ast
import importlib
import inspect
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


def test_names_the_traced_benchmark_reads_exist():
    # benchmarks/layers.py patches these methods on their classes, its
    # ub_report hook reads the mode= keyword, and the workload checks read
    # ExperimentConfig.h_max: a deletion would break the traced benchmark
    patched = {
        l0bounds.DesignMatrix: ("column_norms",),
        l0bounds.AnalyticFn: ("__call__", "coeff_k", "coeff_abs_batch"),
    }
    for owner, attrs in patched.items():
        for attr in attrs:
            assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"
    assert "mode" in inspect.signature(l0bounds.ub_report).parameters
    assert "h_max" in l0bounds.ExperimentConfig.__dataclass_fields__
