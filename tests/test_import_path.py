"""Importing entkit, a PPT test of a mixed state, ``entkit analyze`` of a
mixed document and a convex roof, on the analytic and on the
finite-difference path, load no module of the ``scipy`` package.  Importing
entkit loads no ``numpy.polynomial`` either, and ``import entkit.cli`` calls
no ``numpy.linalg`` function.

The convex roof runs on the package's own L-BFGS, so scipy is needed only by
the tests' reference code, and the read path of a document is numpy only.
Each check runs in a fresh interpreter, since the other tests in the same
pytest run may have loaded scipy already; one of them refuses every scipy
import outright.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import contextlib, io, json, os, sys, tempfile
import entkit, entkit.cli
from entkit.partitions import _LANCZOS_STEPS
loaded = sorted(sys.modules)
mixed = entkit.random_density_matrix([4, 8, 8], rank=4, rng=0)
assert _LANCZOS_STEPS < mixed.dim
entkit.ppt_check(mixed, [[0], [1, 2]])
ppt = sorted(sys.modules)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "mixed.json")
    with open(path, "w") as fh:
        entkit.dump_state(mixed, fh)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert entkit.cli.main(["analyze", path]) == 0
assert json.loads(out.getvalue())["dims"] == [4, 8, 8]
analyze = sorted(sys.modules)
rho = entkit.DensityMatrix(entkit.bell_state(2).density().matrix, (2, 2))
entkit.convex_roof(rho, entkit.tangle_pure, restarts=1, seed=0, maxiter=2)
roof = sorted(sys.modules)
entkit.convex_roof(rho, lambda psi: entkit.tangle_pure(psi), restarts=1, seed=0, maxiter=2)
print(json.dumps({"import": loaded, "ppt": ppt, "analyze": analyze, "roof": roof,
                  "fd_roof": sorted(sys.modules)}))
"""

# every import of a scipy module fails, as where scipy is not installed
_BLOCKED = """
import contextlib, io, json, os, sys, tempfile
import numpy as np


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, NoScipy())
try:
    import scipy  # noqa: F401
except ImportError:
    pass
else:
    raise AssertionError("the finder let scipy through")
import entkit, entkit.cli
bell = entkit.bell_state(2).density().matrix
rho = entkit.DensityMatrix(0.7 * bell + 0.075 * np.eye(4), (2, 2))
exact = entkit.wootters_concurrence(rho) ** 2
for f in (entkit.tangle_pure, lambda psi: entkit.tangle_pure(psi)):
    res = entkit.convex_roof(rho, f, ensemble_size=4, restarts=2, seed=0)
    assert abs(res.value - exact) < 2e-3, (res.value, exact)
res = entkit.geometric_measure(entkit.w_state(), restarts=4, seed=0)
assert abs(res.value - 5 / 9) < 1e-8, res.value
form = entkit.acin_canonical_form(entkit.random_pure_state([2, 2, 2], rng=0))
assert form.r.shape == (5,)
mixed = entkit.random_density_matrix([2, 2, 2], rank=3, rng=1)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "mixed.json")
    with open(path, "w") as fh:
        entkit.dump_state(mixed, fh)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert entkit.cli.main(["analyze", path]) == 0
assert json.loads(out.getvalue())["dims"] == [2, 2, 2]
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print("ok")
"""

# every public function of numpy.linalg records its calls, before entkit loads
_LINALG_CALLS = """
import json
import numpy as np
calls = []


def recording(name, f):
    def call(*args, **kwargs):
        calls.append(name)
        return f(*args, **kwargs)
    return call


for name in np.linalg.__all__:
    f = getattr(np.linalg, name)
    if callable(f) and not isinstance(f, type):
        setattr(np.linalg, name, recording(name, f))
import entkit.cli  # noqa: F401
at_import = list(calls)
np.linalg.norm(np.ones(2))
print(json.dumps({"import": at_import, "after": calls[len(at_import):]}))
"""


def _run(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _scipy(modules):
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_scipy_stays_off_the_import_path():
    modules = json.loads(_run(_SCRIPT))
    assert "entkit.cli" in modules["import"]
    assert not _scipy(modules["import"])
    # the canonical form builds its Chebyshev tables itself
    assert not [m for m in modules["import"] if m.startswith("numpy.polynomial")]
    # the certified Lanczos route of a mixed PPT cut is numpy only
    assert not _scipy(modules["ppt"])
    # and so is reading, checking and analyzing a d = 256 mixed document
    assert not _scipy(modules["analyze"])
    # the roof runs on the package's own L-BFGS, with an analytic gradient
    # and with forward differences
    assert not _scipy(modules["roof"])
    assert not _scipy(modules["fd_roof"])


def test_solvers_and_cli_run_with_scipy_refused():
    """With every scipy import refused, entkit imports, both roof paths, the
    geometric measure and the canonical form solve, and ``entkit analyze``
    of a mixed document exits 0."""
    assert _run(_BLOCKED).strip() == "ok"


def test_importing_the_cli_calls_no_linalg_function():
    """``import entkit.cli`` makes no ``numpy.linalg`` call: the canonical
    form's Chebyshev fit is a closed form, not a pseudo-inverse.  A call made
    after the import is recorded, so the wrappers are in place."""
    calls = json.loads(_run(_LINALG_CALLS))
    assert calls == {"import": [], "after": ["norm"]}
