"""Spans around the calls into each ``entmono`` module, installed from outside.

Modules call each other through names bound at import time
(``from .linalg import hermitian_eigenvalues``), so a call is intercepted by
replacing that name in every module namespace that holds the function.
Constructors and methods are wrapped on their class. Nothing in ``src/``
changes, and :meth:`Tracer.uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "tcm", "linalg", "monotones", "convex_roof", "io")

# Public functions timed per layer. ``states`` only builds inputs and
# ``majorization`` is on no hot path, so neither is traced.
FUNCTIONS = {
    "cli": ("main",),
    "tcm": ("coherent_state", "evolve", "reduce_atom_field", "run_trace"),
    "linalg": ("hermitian_eigenvalues", "partial_transpose"),
    "monotones": ("negative_eigenvalues", "neg_pnorm", "monotone_report", "negativity",
                  "concurrence_lower_bound", "tangle_lower_bound",
                  "pure_concurrence", "pure_tangle"),
    "convex_roof": ("minimize_roof", "average_objective", "ensemble_from_unitary"),
    "io": ("load_state",),
}
METHODS = (  # (layer, class, method, span name)
    ("linalg", "DensityMatrix", "__init__", "linalg.density_matrix"),
    ("convex_roof", "Ensemble", "mixture", "convex_roof.mixture"),
)


def _dim_attr(name, args):
    """Matrix size for eigensolves, byte count for file loads."""
    if name == "linalg.hermitian_eigenvalues":
        return len(args[0])
    if name == "io.load_state":
        return os.path.getsize(args[0])
    return None


class Tracer:
    """In-memory spans: ``[name, start, end, parent, run_id, attr]``.

    ``parent`` is the index of the enclosing span or -1; ``run_id`` is the
    benchmark operation the span belongs to.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.run_id = -1

    def begin(self, name, attr=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id, attr])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name, _dim_attr(name, args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def install(self, em):
        """Wrap every traced callable of the imported package ``em``."""
        modules = [em] + [m for n, m in sys.modules.items() if n.startswith(em.__name__ + ".")]
        for layer, names in FUNCTIONS.items():
            home = getattr(em, layer)
            for fname in names:
                fn = getattr(home, fname)
                traced = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, traced)
                            self._undo.append((mod, attr, fn))
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(getattr(em, layer), cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(span, fn))
            self._undo.append((cls, meth, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def to_json(self):
        return {"fields": ["name", "start", "end", "parent", "run_id", "attr"],
                "spans": self.spans}


class SpanStats:
    """Aggregates over the spans of one traced pass."""

    def __init__(self, spans):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.attrs = defaultdict(list)
        self.by_attr = defaultdict(list)  # (name, attr) -> durations
        child = defaultdict(float)
        for name, t0, t1, parent, _, attr in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.top_level = 0.0  # library time directly under benchmark operations
        for i, (name, t0, t1, parent, _, attr) in enumerate(spans):
            dur = t1 - t0
            self.calls[name] += 1
            self.incl[name] += dur
            self.self_time[name] += dur - child[i]
            if attr is not None:
                self.attrs[name].append(attr)
                self.by_attr[(name, attr)].append(dur)
            if parent >= 0 and spans[parent][0] == "op":
                self.top_level += dur

    def mean(self, name):
        """Mean inclusive seconds per call, 0 when never called."""
        return self.incl[name] / self.calls[name] if self.calls[name] else 0.0

    def mean_at(self, name, attr):
        """Mean inclusive seconds per call with that attribute, 0 when none."""
        durs = self.by_attr.get((name, attr), ())
        return sum(durs) / len(durs) if durs else 0.0

    def self_per_call(self, name):
        return self.self_time[name] / self.calls[name] if self.calls[name] else 0.0

    def layer_self(self, layer):
        return sum(v for k, v in self.self_time.items() if k.split(".")[0] == layer)

    def median_attr(self, name):
        vals = self.attrs.get(name)
        return float(statistics.median(vals)) if vals else 0.0
