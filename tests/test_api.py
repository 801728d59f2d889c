"""Every name the package exports, and every callable the benchmark traces,
resolves, so an API cut fails here before it breaks the benchmark; no
exported callable takes a tolerance; and the tolerance table of
``entmono.linalg`` is the code."""

import ast
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import entmono
from entmono import linalg

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_exported_names_resolve():
    missing = [name for name in entmono.__all__ if not hasattr(entmono, name)]
    assert not missing


def test_no_tolerance_parameters():
    # every tolerance is a fixed constant of entmono.linalg
    for name in entmono.__all__:
        obj = getattr(entmono, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
            continue  # exception classes take only a message and have no signature
        params = inspect.signature(obj).parameters
        assert not [p for p in params if p == "tol" or p.endswith("_tol")], name


def test_traced_functions_resolve():
    for layer, names in _spans().FUNCTIONS.items():
        module = importlib.import_module(f"entmono.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"entmono.{layer}.{name}"


def test_traced_methods_resolve():
    for layer, cls_name, meth, _ in _spans().METHODS:
        cls = getattr(importlib.import_module(f"entmono.{layer}"), cls_name)
        # the tracer rebinds the method on the class that defines it
        assert callable(cls.__dict__.get(meth)), f"entmono.{layer}.{cls_name}.{meth}"


def _defined_tolerances(module):
    """Names ending in ``_TOL`` that ``module`` assigns at top level."""
    tree = ast.parse(inspect.getsource(module))
    targets = [t for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
               for t in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    return {t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_TOL")}


def test_tolerance_table_is_the_code():
    listed = set(re.findall(r"^- ``(\w+_TOL) = ", linalg.__doc__, re.MULTILINE))
    assert listed == _defined_tolerances(linalg)
    # outside the table: a convergence threshold and the cavity truncation
    allowed = {"convex_roof": {"STEP_TOL"}, "tcm": {"TRUNCATION_TOL"}}
    for info in pkgutil.iter_modules(entmono.__path__):
        if info.name == "linalg":
            continue
        module = importlib.import_module(f"entmono.{info.name}")
        assert _defined_tolerances(module) <= allowed.get(info.name, set()), info.name
