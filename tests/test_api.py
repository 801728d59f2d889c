"""Every name the package exports, and every callable the benchmark traces,
resolves, so an API cut fails here before it breaks the benchmark; and no
exported callable takes a tolerance."""

import importlib.util
import inspect
from pathlib import Path

import entmono

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
