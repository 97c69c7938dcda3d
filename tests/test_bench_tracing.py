"""The benchmark's span tracer rebinds entkit functions by name.

``bench/tracing.py`` lists the names it wraps; a rename or a move in
``src/entkit`` would make a traced run fail, or silently trace nothing, only
when the benchmark runs.  This loads that file by path, unchanged, and checks
that every name it lists still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_entkit():
    tracing = _load_tracing()
    for mod, names in tracing.ENTKIT_FUNCTIONS.items():
        home = importlib.import_module(f"entkit.{mod}")
        for name in names:
            assert callable(getattr(home, name, None)), f"entkit.{mod}.{name}"
    for mod, classes in tracing.VALIDATED_CLASSES.items():
        home = importlib.import_module(f"entkit.{mod}")
        for name in classes:
            assert callable(getattr(getattr(home, name, None), "__post_init__", None)), \
                f"entkit.{mod}.{name}.__post_init__"
    for name in tracing.LINALG_FUNCTIONS:
        assert callable(getattr(np.linalg, name, None)), f"numpy.linalg.{name}"
