import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hdsparse

# every module but the command-line entry point, which exports nothing
MODULES = sorted(m.name for m in pkgutil.iter_modules(hdsparse.__path__) if m.name != "cli")

# public names that no program code calls, only tests: the paper's results,
# checked against oracles (agsolver's damping and complexity bounds, the q-Gaussian
# density, covariance and q-functions, predict), the per-pair MI estimators
# behind screen_all, linear_cg, which acceptance test c14 pins, and
# penalty.h_value, the elementwise concave part; perfbench's tracer patches
# both of the last two by name.  verify_schedule is the paper's checker,
# pinned by c02, and penalty_value the elementwise penalty that the summed
# kernels are tested against
TEST_ONLY = ("admissible_ab", "complexity_bound", "damping_lower_bound", "optimal_ab",
             "logpdf", "q_covariance", "covariance", "q_exp", "q_log", "predict",
             "mi_fftkde", "mi_binning", "mi_knn", "pearson_abs", "linear_cg", "h_value",
             "verify_schedule", "penalty_value")


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"hdsparse.{module}")
    names = mod.__all__
    assert len(names) == len(set(names)), "a name is listed twice"
    assert [n for n in names if not hasattr(mod, n)] == []



def test_no_public_name_has_two_homes():
    homes = {}
    for module in MODULES:
        for name in importlib.import_module(f"hdsparse.{module}").__all__:
            homes.setdefault(name, []).append(module)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}

def test_package_imports_only_exported_names():
    # (module, name) for every `from .module import name` in hdsparse/__init__.py
    imports = [(node.module, alias.name) for node in ast.parse(inspect.getsource(hdsparse)).body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports, "hdsparse/__init__.py imports nothing from its modules"
    missing = [f"{module}.{name}" for module, name in imports
               if name not in importlib.import_module(f"hdsparse.{module}").__all__]
    assert missing == []


def test_every_exported_name_is_used_by_program_code():
    # a name read anywhere in src/ or perfbench/, as a name or an attribute;
    # a def, a class or an import alone does not count
    root = Path(__file__).resolve().parents[1]
    files = [*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for f in files for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    unused = [f"{module}.{name}" for module in MODULES
              for name in importlib.import_module(f"hdsparse.{module}").__all__
              if name not in used and name not in TEST_ONLY]
    assert unused == []
