"""Importing entkit, a PPT test of a mixed state, or ``entkit analyze`` of a
mixed document, loads no scipy solver; the first convex roof loads L-BFGS-B.
Importing entkit loads no ``numpy.polynomial`` either.

No CLI command runs a roof, so a top-level scipy import would only make every
start slower and larger, and the read path of a document is numpy only.  Each
check runs in a fresh interpreter, since the other tests in the same pytest
run may have loaded scipy already.
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
print(json.dumps({"import": loaded, "ppt": ppt, "analyze": analyze, "roof": sorted(sys.modules)}))
"""


def test_scipy_stays_off_the_import_path():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _SCRIPT],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    heavy = ("scipy.linalg", "scipy.optimize", "scipy.sparse")
    assert "entkit.cli" in modules["import"]
    assert not [m for m in modules["import"] if m.startswith(heavy)]
    # the canonical form builds its Chebyshev tables itself
    assert not [m for m in modules["import"] if m.startswith("numpy.polynomial")]
    # the certified Lanczos route of a mixed PPT cut is numpy only
    assert not [m for m in modules["ppt"] if m.startswith(("scipy.linalg", "scipy.sparse"))]
    # and so is reading, checking and analyzing a d = 256 mixed document
    assert not [m for m in modules["analyze"] if m.startswith(heavy)]
    assert "scipy.optimize" in modules["roof"]
