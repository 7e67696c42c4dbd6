"""The package's public names: each library module's `__all__` is their one
declaration, and `entanglab/__init__.py` star-imports those modules in order."""

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest
from conftest import child_env

import entanglab

PACKAGE = Path(entanglab.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
# the library modules the package re-exports, in import order; io and cli are
# reached as modules
REEXPORTED = ("linalg", "rng", "geometry", "ensembles", "spectral", "separability",
              "widths", "stats", "config", "experiments")


def test_init_imports_no_name_by_name():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(node, ast.ImportFrom) and node.level == 1
               and [alias.name for alias in node.names] == ["*"] for node in imports)
    assert tuple(node.module for node in imports) == REEXPORTED


def test_package_exports_the_union_of_each_modules_all():
    exported = {name for name, value in vars(entanglab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    declared = {}
    for module in map(importlib.import_module, (f"entanglab.{m}" for m in REEXPORTED)):
        for name in module.__all__:
            assert name not in declared, f"{name} is in two modules' __all__"
            declared[name] = module
    assert exported == set(declared)
    for name, module in declared.items():
        assert getattr(entanglab, name) is getattr(module, name), name


def test_all_thirteen_modules_are_collected():
    assert len(MODULES) == 13


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    # a fresh interpreter: the star-import order and the function-local
    # imports (config -> experiments, separability -> widths) hold alone, and
    # numpy.random, which numpy 2 imports lazily, is loaded before any draw
    name = "entanglab" if module == "__init__" else f"entanglab.{module}"
    code = f"import sys, {name}; assert 'numpy.random' in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
