"""The three seeded workloads: inputs, the program call of each item, and its check.

Every input is generated here from the workload seed with numpy; entkit only
ever receives the generated inputs.  Each item's ``run`` looks its entkit
function up through the module at call time, so the traced run sees the
wrapped bindings that :mod:`tracing` installs.

Each item's ``check`` compares one output against a computation of the
harness's own, at the acceptance tolerances, and returns ``None`` when the
output passes or a message saying why it does not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass
from math import prod
from typing import Any, Callable

import numpy as np

import entkit.cli  # noqa: F401  (registers entkit.cli in sys.modules)

ek_states = sys.modules["entkit.states"]
ek_invariants = sys.modules["entkit.invariants"]
ek_schmidt = sys.modules["entkit.schmidt"]
ek_measures = sys.modules["entkit.measures"]
ek_serialize = sys.modules["entkit.serialize"]
ek_cli = sys.modules["entkit.cli"]


@dataclass
class Item:
    """One closed-loop request: ``run()`` calls entkit, ``check(out)`` judges it.

    ``warm`` is a cheaper call into the same entry point, made during set-up
    so that lazy imports and first-call costs are paid before timing; it
    defaults to ``run``.  Its output is not checked.
    """

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    warm: Callable[[], Any] | None = None


def _haar(rng, d: int) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def _haar_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# independent three-qubit invariants (harness oracle)
# ---------------------------------------------------------------------------

def invariants3(amp: np.ndarray) -> np.ndarray:
    """I1..I6 of a 3-qubit vector from the harness's own contractions.

    The hyperdeterminant is taken as the discriminant of the binary quadratic
    ``det(x A + y B)`` over the two slices, not as entkit's monomial expansion.
    """
    t = np.asarray(amp, dtype=complex).reshape(2, 2, 2)
    marg = []
    for k in range(3):
        m = np.moveaxis(t, k, 0).reshape(2, 4)
        marg.append(m @ m.conj().T)
    ab = t.reshape(4, 2)
    rho_ab = ab @ ab.conj().T
    ra, rb = marg[0], marg[1]
    i5 = (
        3 * np.trace(np.kron(ra, rb) @ rho_ab)
        - np.trace(ra @ ra @ ra) - np.trace(rb @ rb @ rb)
    ).real
    a, b = t[0], t[1]
    det_a, det_b = np.linalg.det(a), np.linalg.det(b)
    hyper = (np.linalg.det(a + b) - det_a - det_b) ** 2 - 4 * det_a * det_b
    return np.array(
        [np.vdot(amp, amp).real]
        + [np.trace(r @ r).real for r in marg]
        + [i5, 4 * abs(hyper) ** 2]
    )


# ---------------------------------------------------------------------------
# haar3q: invariant throughput on tiny states
# ---------------------------------------------------------------------------

def _haar3q_run(psi):
    def run():
        return (
            ek_invariants.lu_invariants(psi),
            ek_invariants.monogamy_gap(psi),
            ek_invariants.kempe_symmetric_check(psi),
        )
    return run


def check_haar3q(out) -> str | None:
    rec, gap, triple = out
    i_av = (rec.i2 + rec.i3 + rec.i4) / 3
    # tau2 is checked in its corrected form; the paper's stated
    # tau2 = 1 - I_av - 2 I6 is a documented typo and fails on generic states
    devs = {
        "tau1 = 2(1-I_av)": abs(rec.tau1 - 2 * (1 - i_av)),
        "tau2 = 1-I_av-sqrt(I6)": abs(rec.tau2 - (1 - i_av - np.sqrt(rec.i6))),
        "tau3 = 2 sqrt(I6)": abs(rec.tau3 - 2 * np.sqrt(rec.i6)),
    }
    for name, dev in devs.items():
        if not dev < 1e-8:
            return f"{name} off by {dev:.3e}"
    if not gap >= -1e-9:
        return f"monogamy gap {gap:.3e} < -1e-9"
    if not 2 / 9 - 1e-9 <= rec.i5 <= 1 + 1e-9:
        return f"I5 = {rec.i5!r} outside [2/9, 1]"
    if not max(triple) - min(triple) < 1e-9:
        return f"Kempe triple spread {max(triple) - min(triple):.3e}"
    return None


def haar3q(rng, tiny: bool, workdir) -> list[Item]:
    """Seeded Haar 3-qubit states, one invariant record per item.

    A round is short (100 states), so a run repeats it about 150 times and
    the last round ends close to ``--seconds``.
    """
    n = 20 if tiny else 100
    return [
        Item("haar3q", f"haar3q[{i}]", _haar3q_run(psi), check_haar3q)
        for i, psi in enumerate(
            ek_states.PureState(_haar(rng, 8), (2, 2, 2)) for _ in range(n)
        )
    ]


# ---------------------------------------------------------------------------
# solvers: canonical form, convex roof, geometric measure
# ---------------------------------------------------------------------------

def _canon_item(i: int, psi) -> Item:
    def check(form) -> str | None:
        u0, u1, u2 = form.local_unitaries
        amp = np.kron(np.kron(u0, u1), u2) @ psi.amplitudes
        off = max(abs(amp[0b011]), abs(amp[0b101]), abs(amp[0b110]))
        if not off < 1e-8:
            return f"off-support amplitude {off:.3e}"
        drift = np.abs(invariants3(psi.amplitudes) - invariants3(amp / np.linalg.norm(amp))).max()
        if not drift < 1e-8:
            return f"invariant drift {drift:.3e}"
        return None

    return Item("canon", f"canon[{i}]", lambda: ek_invariants.acin_canonical_form(psi), check)


ROOF_RESTARTS = 1


def _roof_item(i: int, p: float, rho, seed: int) -> Item:
    # noisy Bell mix under a local unitary: concurrence max(0, 1 - 3p/2)
    expected = max(0.0, 1.0 - 1.5 * p) ** 2

    def run():
        return ek_measures.convex_roof(
            rho, ek_schmidt.tangle_pure, ensemble_size=4, restarts=ROOF_RESTARTS, seed=seed
        )

    def check(res) -> str | None:
        dev = abs(res.value - expected)
        return None if dev < 2e-3 else f"roof {res.value!r} vs Wootters^2 {expected!r} (p={p:.3f})"

    def warm():
        return ek_measures.convex_roof(
            rho, ek_schmidt.tangle_pure, ensemble_size=4, restarts=1, seed=seed, maxiter=2
        )

    return Item("roof", f"roof[{i}] p={p:.3f}", run, check, warm)


GM_RESTARTS = 16


def _gm_item(label: str, psi, seed: int, expected: float | None) -> Item:
    def check(res) -> str | None:
        if expected is not None and not abs(res.value - expected) < 1e-6:
            return f"value {res.value!r} vs {expected!r}"
        overlap = abs(np.vdot(res.argument.amplitudes, psi.amplitudes)) ** 2
        dev = abs(overlap - (1.0 - res.value))
        return None if dev < 1e-9 else f"|<arg|psi>|^2 off 1 - value by {dev:.3e}"

    return Item(
        "gm", label,
        lambda: ek_measures.geometric_measure(psi, restarts=GM_RESTARTS, seed=seed),
        check,
        lambda: ek_measures.geometric_measure(psi, restarts=1, seed=seed, max_iterations=2),
    )


#: Master seed of the fixed pools of Haar states behind the canonical forms
#: and the random-state geometric measures (see :func:`solvers`).
POOL_SEED = 2409_04566


def _local_unitary(rng, n_qubits: int) -> np.ndarray:
    u = np.ones((1, 1))
    for _ in range(n_qubits):
        u = np.kron(u, _haar_unitary(rng, 2))
    return u


def solvers(rng, tiny: bool, workdir) -> list[Item]:
    """Canonical forms, roofs and geometric measures, each a share of the round.

    The cost of a canonical form or of a geometric measure is set mostly by
    the local-unitary orbit of the state and is heavy-tailed over Haar
    states: one Haar 3-qubit state in ten takes several times the median.
    A short round of fresh Haar draws would therefore spread by tens of
    percent between seeds.  Those states are instead drawn once from
    ``POOL_SEED``, a fixed Haar sample with its hard cases, and each seed
    applies its own random local unitaries to them (and seeds the restarts),
    so every seed gets different inputs of the same difficulty.  Roof noise
    levels are stratified over [0, 0.95], one per stratum.
    """
    n_canon, roof_strata, gm_qubits = (2, 1, (6,)) if tiny else (100, 10, (6, 7, 8))
    pool = np.random.default_rng(POOL_SEED)
    canon_orbits = [_haar(pool, 8) for _ in range(n_canon)]
    gm_orbits = [(n, _haar(pool, 2**n)) for n in gm_qubits]
    canon = [
        _canon_item(i, ek_states.PureState(_local_unitary(rng, 3) @ amp, (2, 2, 2)))
        for i, amp in enumerate(canon_orbits)
    ]
    bell = np.zeros((4, 4))
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    roofs = []
    for k in range(roof_strata):
        # one p per stratum of [0, 0.95], so every seed spans the range
        p = 0.95 * (k + rng.random()) / roof_strata
        u = _local_unitary(rng, 2)
        m = u @ ((1 - p) * bell + p * np.eye(4) / 4) @ u.conj().T
        rho = ek_states.DensityMatrix((m + m.conj().T) / 2, (2, 2))
        roofs.append(_roof_item(k, p, rho, int(rng.integers(2**31))))
    gms = [
        _gm_item("gm[ghz]", ek_states.ghz_state(3, 2), int(rng.integers(2**31)), 0.5),
        _gm_item("gm[w]", ek_states.w_state(), int(rng.integers(2**31)), 5 / 9),
    ] + [
        _gm_item(
            f"gm[haar{n}]", ek_states.PureState(_local_unitary(rng, n) @ amp, (2,) * n),
            int(rng.integers(2**31)), None,
        )
        for n, amp in gm_orbits
    ]
    return _interleave(canon, roofs, gms)


def _interleave(*groups: list[Item]) -> list[Item]:
    """Spread each group evenly over the round, so no kind runs in one block."""
    keyed = [
        ((j + 0.5) / len(g), gi, item)
        for gi, g in enumerate(groups) for j, item in enumerate(g)
    ]
    return [item for *_, item in sorted(keyed, key=lambda k: k[:2])]


# ---------------------------------------------------------------------------
# cli-dense: `entkit analyze` on large state documents
# ---------------------------------------------------------------------------

#: (label, dims, rank); rank None marks a pure document.  Pure documents sit
#: at d = 256 and 1024, low-rank mixed ones at d = 256 and 512.
#: An odd count keeps the median latency inside one document's cluster.
CLI_DOCS = (
    ("pure-4x4x4x4", (4, 4, 4, 4), None),
    ("mixed-4x4x4x4", (4, 4, 4, 4), 4),
    ("pure-8x8x16", (8, 8, 16), None),
    ("mixed-8x8x8", (8, 8, 8), 4),
    ("pure-4x8x8", (4, 8, 8), None),
    ("mixed-4x8x8", (4, 8, 8), 4),
    ("pure-2x8x16", (2, 8, 16), None),
)
CLI_DOCS_TINY = (
    ("pure-2x2x4", (2, 2, 4), None),
    ("mixed-2x2x4", (2, 2, 4), 2),
)


def _cut_matrix(amp: np.ndarray, dims, left, right) -> np.ndarray:
    t = amp.reshape(dims).transpose(list(left) + list(right))
    return t.reshape(prod(dims[i] for i in left), -1)


def _pt_min_eig(mat: np.ndarray, dims, subset) -> float:
    n = len(dims)
    t = mat.reshape(tuple(dims) * 2)
    for k in subset:
        t = np.swapaxes(t, k, n + k)
    d = prod(dims)
    return float(np.linalg.eigvalsh(t.reshape(d, d)).min())


def _parse_cut(text: str):
    return tuple(tuple(int(i) for i in side.split(",")) for side in text.split("|"))


def _check_pure_report(report: dict, amp: np.ndarray, dims, cache: dict) -> str | None:
    n = len(dims)

    def schmidt_probs(left, right):
        if (left, right) not in cache:
            m = _cut_matrix(amp, dims, left, right)
            cache[left, right] = np.linalg.svd(m, compute_uv=False) ** 2
        return cache[left, right]

    cuts = report["ppt"]
    if len(cuts) != 2 ** (n - 1) - 1:
        return f"{len(cuts)} PPT cuts for {n} parties"
    entangled_everywhere = True
    for text, entry in cuts.items():
        left, right = _parse_cut(text)
        p = schmidt_probs(left, right)
        entangled_everywhere &= bool(p[1] > 1e-9)
        expected = -np.sqrt(p[0] * p[1])
        if not abs(entry["min_eigenvalue"] - expected) < 1e-9:
            return f"cut {text}: PPT min eigenvalue {entry['min_eigenvalue']!r} vs {expected!r}"
    for text, entry in report["schmidt"].items():
        left, right = _parse_cut(text)
        p = schmidt_probs(left, right)
        lam = np.asarray(entry["lambda"])
        if lam.shape != p.shape or not np.abs(lam - p).max() < 1e-9:
            return f"cut {text}: Schmidt vector differs from the harness SVD"
    if report["class"]["genuinely_multipartite"] != entangled_everywhere:
        return "class disagrees with the harness's Schmidt ranks"
    return None


def _check_mixed_report(report: dict, mat: np.ndarray, dims, cache: dict) -> str | None:
    n = len(dims)
    cuts = report["ppt"]
    if len(cuts) != 2 ** (n - 1) - 1:
        return f"{len(cuts)} PPT cuts for {n} parties"
    for text, entry in cuts.items():
        _, right = _parse_cut(text)
        if text not in cache:
            cache[text] = _pt_min_eig(mat, dims, right)
        if not abs(entry["min_eigenvalue"] - cache[text]) < 1e-9:
            return f"cut {text}: PPT min eigenvalue {entry['min_eigenvalue']!r} vs {cache[text]!r}"
    if report["class"] != "inapplicable" or report["schmidt"] != "inapplicable":
        return "mixed document reported pure-state sections"
    return None


def _cli_item(label: str, path: str, dims, data: np.ndarray, pure: bool) -> Item:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ek_cli.main(["analyze", path])
        return code, buf.getvalue()

    cache: dict = {}

    def check(out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"malformed JSON output: {exc}"
        if report.get("dims") != list(dims):
            return f"dims {report.get('dims')} vs {list(dims)}"
        checker = _check_pure_report if pure else _check_mixed_report
        return checker(report, data, dims, cache)

    return Item("cli", label, run, check)


def cli_dense(rng, tiny: bool, workdir) -> list[Item]:
    """Seeded documents written with ``dump_state``, analyzed through ``cli.main``."""
    os.makedirs(workdir, exist_ok=True)
    items = []
    for label, dims, rank in CLI_DOCS_TINY if tiny else CLI_DOCS:
        d = prod(dims)
        if rank is None:
            data = _haar(rng, d)
            state = ek_states.PureState(data, dims)
        else:
            g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            m = g @ g.conj().T
            data = m / np.trace(m).real
            state = ek_states.DensityMatrix(data, dims)
        path = os.path.join(workdir, f"{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            ek_serialize.dump_state(state, fh)
        items.append(_cli_item(label, path, dims, data, rank is None))
    return items


WORKLOADS = {"haar3q": haar3q, "solvers": solvers, "cli-dense": cli_dense}


def warm_up(items: list[Item]) -> None:
    """Make the warm-up call of the first item of each kind."""
    for item in {it.kind: it for it in reversed(items)}.values():
        (item.warm or item.run)()
