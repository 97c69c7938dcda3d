"""Span tracing of entkit layers, installed from outside the package.

A span is recorded at each call into a traced function: its name, start,
end, parent span and root span.  The harness opens one root span per item,
so every span of an item shares that item's root.  Spans stay in memory
until the run ends; :meth:`Tracer.layer_table` reduces them to call counts
and self time (a span's duration minus the time its child spans cover).

Nothing in ``src/entkit`` is edited.  :func:`install` rebinds names instead:

* a module-level function is replaced in every ``entkit`` module namespace
  that holds it, because callers bind names at import time;
* modules are reached through ``sys.modules``: the package attribute
  ``entkit.schmidt`` is the re-exported *function*, not the submodule;
* ``DensityMatrix.__post_init__`` and ``PureState.__post_init__`` are wrapped
  on the class, so the span measures constructor validation;
* ``numpy.linalg`` functions are wrapped on ``numpy.linalg``, which is where
  entkit looks them up at call time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

#: Traced module-level functions, by entkit submodule.  ``minimize`` and
#: ``expm`` are the scipy solvers ``entkit.measures`` imported by name.
ENTKIT_FUNCTIONS = {
    "states": ("partial_trace",),
    "core": ("partial_trace_matrix",),
    "invariants": (
        "lu_invariants", "wootters_concurrence", "hyperdet3", "acin_canonical_form",
    ),
    "schmidt": ("schmidt", "schmidt_vector", "tangle_pure"),
    "partitions": ("classify_pure", "partial_transpose", "ppt_check"),
    "measures": ("convex_roof", "geometric_measure", "minimize", "expm"),
    "serialize": ("from_document",),
    "cli": ("main",),
}
#: Classes whose ``__post_init__`` (the validation) is traced under the class name.
VALIDATED_CLASSES = {"states": ("DensityMatrix", "PureState")}
#: Kernel calls, traced as ``linalg.<name>``.
LINALG_FUNCTIONS = ("eigvalsh", "eigvals", "eigh", "svd")

SPAN_NAMES = tuple(
    [f"{mod}.{cls}" for mod, classes in VALIDATED_CLASSES.items() for cls in classes]
    + [f"{mod}.{fn}" for mod, fns in ENTKIT_FUNCTIONS.items() for fn in fns]
    + [f"linalg.{fn}" for fn in LINALG_FUNCTIONS]
)


class Tracer:
    """In-memory span store for one single-threaded traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.root: list[int] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else i)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (used for item roots)."""
        i = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    # -- reductions --------------------------------------------------------

    def layer_table(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every recorded span."""
        child_time = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        table: dict[str, list] = {}
        for i, name in enumerate(self.names):
            entry = table.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child_time[i]
        return {name: (calls, self_s) for name, (calls, self_s) in table.items()}

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        inside = [False] * len(self.names)
        count = 0
        # a parent is always recorded before its children
        for i, p in enumerate(self.parent):
            if p >= 0:
                inside[i] = inside[p] or self.names[p] == ancestor
            if inside[i] and self.names[i] == name:
                count += 1
        return count

    def save(self, path) -> None:
        """Write the spans as arrays: name codes, start, end, parent, root."""
        codes = {n: k for k, n in enumerate(dict.fromkeys(self.names))}
        np.savez(
            path,
            names=np.array(list(codes)),
            name_code=np.array([codes[n] for n in self.names], dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            root=np.array(self.root, dtype=np.int64),
        )


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that restores them all."""
    patches = []  # (namespace, attribute, original)
    entkit_modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "entkit" or name.startswith("entkit."))
    ]
    for mod, fns in ENTKIT_FUNCTIONS.items():
        home = sys.modules[f"entkit.{mod}"]
        for fn in fns:
            original = getattr(home, fn)
            wrapped = tracer.wrap(f"{mod}.{fn}", original)
            for ns in entkit_modules:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        patches.append((ns, attr, original))
                        setattr(ns, attr, wrapped)
    for mod, classes in VALIDATED_CLASSES.items():
        home = sys.modules[f"entkit.{mod}"]
        for cls_name in classes:
            cls = getattr(home, cls_name)
            original = cls.__post_init__
            patches.append((cls, "__post_init__", original))
            cls.__post_init__ = tracer.wrap(f"{mod}.{cls_name}", original)
    for fn in LINALG_FUNCTIONS:
        original = getattr(np.linalg, fn)
        patches.append((np.linalg, fn, original))
        setattr(np.linalg, fn, tracer.wrap(f"linalg.{fn}", original))

    def restore():
        for ns, attr, original in reversed(patches):
            setattr(ns, attr, original)

    return restore
