"""Every name the package exports, and every callable the benchmark traces,
resolves, so an API cut fails here before it breaks the benchmark."""

import importlib.util
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
