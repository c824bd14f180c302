import ast
import importlib
import inspect
import pkgutil

import pytest

import hdsparse

# every module but the command-line entry point, which exports nothing
MODULES = sorted(m.name for m in pkgutil.iter_modules(hdsparse.__path__) if m.name != "cli")


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"hdsparse.{module}")
    names = mod.__all__
    assert len(names) == len(set(names)), "a name is listed twice"
    assert [n for n in names if not hasattr(mod, n)] == []


def test_package_imports_only_exported_names():
    # (module, name) for every `from .module import name` in hdsparse/__init__.py
    imports = [(node.module, alias.name) for node in ast.parse(inspect.getsource(hdsparse)).body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports, "hdsparse/__init__.py imports nothing from its modules"
    missing = [f"{module}.{name}" for module, name in imports
               if name not in importlib.import_module(f"hdsparse.{module}").__all__]
    assert missing == []
