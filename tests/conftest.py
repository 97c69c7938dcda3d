"""Shared independent oracles for the test suite, and its closing line.

These helpers deliberately avoid the library code paths they are used to
check: partial traces by explicit index summation, partial transposition by
element shuffling, majorization by a plain partial-sum loop, and the roots of
the canonical form's secular polynomial by a solve of every fit interval.

After the summary, the run prints the median time of the benchmark's
reference kernel, so that a wall time of the suite can be read against the
speed of the machine that ran it.

BLAS runs on one thread, as in ``bench/run.py``: on a shared machine a
second BLAS thread that waits for a busy core stalls mid-size LAPACK calls.
The defaults are set before numpy loads, and a thread count already in the
environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
REFERENCE_SAMPLES = 5
#: Loads ``bench/reference.py`` by path and prints the median of its samples.
_REFERENCE_RUN = """
import importlib.util, statistics, sys
spec = importlib.util.spec_from_file_location("reference", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
ref = module.Reference()
for _ in range(int(sys.argv[2])):
    ref.sample()
print(statistics.median(ref.totals()))
"""


def pytest_terminal_summary(terminalreporter):
    """Print the median of ``REFERENCE_SAMPLES`` timings of the kernel in
    ``bench/reference.py``.  It runs in a fresh interpreter with one BLAS
    thread, as ``bench/run.py`` runs it, so the number compares with the
    benchmark's ``reference_ms``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _REFERENCE_RUN, str(REFERENCE),
                          str(REFERENCE_SAMPLES)], env=env, capture_output=True, text=True)
    if run.returncode:
        terminalreporter.write_line(f"bench reference kernel: failed: {run.stderr.strip()}")
        return
    median = float(run.stdout) * 1e3
    terminalreporter.write_line(
        f"bench reference kernel: median {median:.1f} ms of {REFERENCE_SAMPLES} samples, "
        "one BLAS thread")


def ptrace_sum(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by direct summation over dropped multi-indices."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    drop = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((dk, dk), dtype=complex)
    for row in range(mat.shape[0]):
        ri = np.unravel_index(row, dims)
        for col in range(mat.shape[1]):
            ci = np.unravel_index(col, dims)
            if all(ri[d] == ci[d] for d in drop):
                rk = np.ravel_multi_index([ri[i] for i in keep], [dims[i] for i in keep]) if keep else 0
                ck = np.ravel_multi_index([ci[i] for i in keep], [dims[i] for i in keep]) if keep else 0
                out[rk, ck] += mat[row, col]
    return out


def ptranspose_elements(mat: np.ndarray, dims, subset) -> np.ndarray:
    """Partial transposition by explicit matrix-element relabeling."""
    dims = list(dims)
    out = np.zeros_like(np.asarray(mat, dtype=complex))
    for row in range(out.shape[0]):
        ri = list(np.unravel_index(row, dims))
        for col in range(out.shape[1]):
            ci = list(np.unravel_index(col, dims))
            si, sj = ri[:], ci[:]
            for s in subset:
                si[s], sj[s] = sj[s], si[s]
            out[np.ravel_multi_index(si, dims), np.ravel_multi_index(sj, dims)] = mat[row, col]
    return out


def majorizes_loop(p, q) -> bool:
    """Partial-sum dominance by an explicit loop over prefixes."""
    p = sorted(p, reverse=True)
    q = sorted(q, reverse=True)
    k = max(len(p), len(q))
    p = p + [0.0] * (k - len(p))
    q = q + [0.0] * (k - len(q))
    sp = sq = 0.0
    for i in range(k):
        sp += p[i]
        sq += q[i]
        if sp < sq - 1e-12:
            return False
    return True


def secular_roots_every_interval(d, p, q, cc, bound):
    """The real roots in ``[-bound, bound]`` of ``invariants._secular`` with
    no interval screened: the colleague matrices of all 21 fit intervals go to
    one ``eigvals``."""
    from entkit.invariants import (_CHEB_FIT, _CHEB_NODES, _COLLEAGUE, _COLLEAGUE_SCALE, _CUTS,
                                   _secular)

    lo, hi = bound * _CUTS[:-1, None], bound * _CUTS[1:, None]
    mid, half = (hi + lo) / 2, (hi - lo) / 2
    coef = _secular(mid + half * _CHEB_NODES, d, p, q, cc) @ _CHEB_FIT.T
    scale = np.abs(coef).max(1)
    mid, half, coef = mid[scale > 0], half[scale > 0], coef[scale > 0] / scale[scale > 0, None]
    lead = np.where(np.abs(coef[:, -1:]) < 1e-16, 1e-16, coef[:, -1:])
    mats = np.repeat(_COLLEAGUE[None], len(coef), 0)
    mats[:, :, -1] -= coef[:, :-1] / lead * _COLLEAGUE_SCALE
    x = np.linalg.eigvals(mats[:, ::-1, ::-1])
    return (mid + half * x.real)[(np.abs(x.imag) < 1e-6) & (np.abs(x.real) <= 1.0)]


#: Single-qubit matrices that no entry point may take as a state, each with
#: the start of the message that refuses it: one not positive, one not
#: Hermitian and one not of trace 1.
UNPHYSICAL_MATRICES = [
    (np.diag([1.5, -0.5]), r"^density matrix has an eigenvalue below -1e-10"),
    (np.array([[0.5, 0.5], [0.0, 0.5]]), r"^density matrix is not Hermitian within 1e-10"),
    (np.eye(2), r"^trace 2\.0 is not 1 within 1e-10"),
]


def mixed_document(matrix: np.ndarray) -> dict:
    """The document of a one-qubit mixed state, written here without the
    library so that the matrix need not be a valid state."""
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]
    return {"dims": [2], "type": "mixed", "matrix": rows}
