"""Three-qubit algebra: local-unitary invariants, tangles, hyperdeterminant,
Wootters concurrence, canonical form, polytope coordinates and SLOCC class.

One batched kernel, :func:`_reductions`, builds the one- and two-qubit
reductions of stacked amplitudes ``(N, 8)``; batched helpers take from them
the six invariants (norm, three purities, Kempe, hyperdeterminant), the
tangles, the marginal ranks, the polytope point and the class.
``lu_invariants``, ``tangles``, ``monogamy_gap``, ``kempe_invariant``,
``kempe_symmetric_check``, ``polytope_coords`` and ``slocc_class_3qubit`` call
it once on their state; ``wootters_concurrence`` and ``hyperdet3`` are
batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import null_space

from .core import ConvergenceError
from .states import DensityMatrix, PureState

#: Below this value of the three-tangle, a rank-(2,2,2) state is labeled W class.
TAU3_CLASS_TOL = 1e-8

_RANK_TOL = 1e-10


class SloccClass(Enum):
    PRODUCT = "Product"
    BISEP_A_BC = "Bisep_A_BC"
    BISEP_B_AC = "Bisep_B_AC"
    BISEP_C_AB = "Bisep_C_AB"
    W = "W"
    GHZ = "GHZ"


@dataclass(frozen=True)
class InvariantRecord:
    """Scalar invariants, tangles, ranks, polytope point and class of a 3-qubit state."""

    i1: float
    i2: float
    i3: float
    i4: float
    i5: float
    i6: float
    tau1: float
    tau2: float
    tau3: float
    ranks: tuple[int, int, int]
    polytope: tuple[float, float, float]
    class_label: SloccClass

    def to_json(self) -> dict:
        return {
            "i1": self.i1, "i2": self.i2, "i3": self.i3,
            "i4": self.i4, "i5": self.i5, "i6": self.i6,
            "tau1": self.tau1, "tau2": self.tau2, "tau3": self.tau3,
            "ranks": list(self.ranks),
            "polytope": list(self.polytope),
            "class": self.class_label.value,
        }


def _require_3qubit(psi: PureState) -> None:
    if psi.dims != (2, 2, 2):
        raise ValueError(f"expected a 3-qubit state, got dims {psi.dims}")


#: Amplitude orders that put qubit A, B or C first, and the pair AB, AC or BC.
_ONE_FIRST, _PAIR_FIRST = (
    np.array([np.arange(8).reshape(2, 2, 2).transpose(axes).ravel() for axes in orders])
    for orders in (((0, 1, 2), (1, 0, 2), (2, 0, 1)), ((0, 1, 2), (0, 2, 1), (1, 2, 0)))
)
#: The two qubits of each pair, in the order of the two-qubit stack.
_PAIR_X, _PAIR_Y = [0, 0, 1], [1, 2, 2]


def _reductions(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rho_A, rho_B, rho_C`` as ``(N, 3, 2, 2)`` and ``rho_AB, rho_AC, rho_BC``
    as ``(N, 3, 4, 4)`` of stacked 3-qubit amplitudes ``(N, 8)``."""
    v1 = amps[:, _ONE_FIRST].reshape(-1, 3, 2, 4)
    v2 = amps[:, _PAIR_FIRST].reshape(-1, 3, 4, 2)
    return v1 @ v1.conj().swapaxes(-1, -2), v2 @ v2.conj().swapaxes(-1, -2)


def _stack(psi: PureState) -> np.ndarray:
    _require_3qubit(psi)
    return psi.amplitudes[None]


def _hyperdet(amps: np.ndarray) -> np.ndarray:
    """Cayley hyperdeterminant of each row of stacked amplitudes ``(N, 8)``."""
    t = amps.reshape(-1, 2, 2, 2).transpose(1, 2, 3, 0)
    squares = (
        t[0, 0, 0] ** 2 * t[1, 1, 1] ** 2
        + t[0, 0, 1] ** 2 * t[1, 1, 0] ** 2
        + t[0, 1, 0] ** 2 * t[1, 0, 1] ** 2
        + t[1, 0, 0] ** 2 * t[0, 1, 1] ** 2
    )
    pairs = (
        t[0, 0, 0] * t[1, 1, 1]
        * (t[0, 1, 1] * t[1, 0, 0] + t[1, 0, 1] * t[0, 1, 0] + t[1, 1, 0] * t[0, 0, 1])
        + t[0, 1, 1] * t[1, 0, 0] * (t[1, 0, 1] * t[0, 1, 0] + t[1, 1, 0] * t[0, 0, 1])
        + t[1, 0, 1] * t[0, 1, 0] * t[1, 1, 0] * t[0, 0, 1]
    )
    diagonals = (
        t[0, 0, 0] * t[1, 1, 0] * t[1, 0, 1] * t[0, 1, 1]
        + t[1, 1, 1] * t[0, 0, 1] * t[0, 1, 0] * t[1, 0, 0]
    )
    return squares - 2 * pairs + 4 * diagonals


def hyperdet3(tensor) -> complex:
    """Cayley hyperdeterminant of a ``2 x 2 x 2`` complex tensor.

    Quartic polynomial with a squares group, a pair-coupling group and the two
    odd diagonals; vanishes exactly on the closure of the W class.
    """
    t = np.asarray(tensor, dtype=complex)
    if t.size != 8:
        raise ValueError(f"expected 8 amplitudes, got shape {t.shape}")
    return complex(_hyperdet(t.reshape(1, 8))[0])


_SY = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SY, _SY)


def _concurrences(rho: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each matrix of a ``(..., 4, 4)`` stack, with
    eigenvalues below ``1e-12`` of the largest of the same matrix zeroed."""
    ev = np.linalg.eigvals(rho @ _YY @ rho.conj() @ _YY).real
    # the threshold is positive, so this also zeroes every negative eigenvalue
    ev = np.where(ev < 1e-12 * np.maximum(ev.max(axis=-1, keepdims=True), 1e-300), 0.0, ev)
    mu = np.sort(np.sqrt(ev), axis=-1)
    return np.maximum(0.0, mu[..., 3] - mu[..., 2] - mu[..., 1] - mu[..., 0])


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Concurrence of a two-qubit mixed state.

    ``C = max(0, mu_1 - mu_2 - mu_3 - mu_4)`` where the ``mu_i`` are the
    non-increasing square roots of the eigenvalues of
    ``rho (sy (x) sy) rho* (sy (x) sy)``.  Eigenvalues below ``1e-12`` of the
    largest are treated as exact zeros so rank-deficient inputs do not inject
    square-root noise.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"expected a 2-qubit state, got dims {rho.dims}")
    return float(_concurrences(rho.matrix[None])[0])


def _tangle_terms(one: np.ndarray, two: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-party tangles ``4 det rho_X`` (X = A, B, C), squared concurrences
    (AB, AC, BC) and the monogamy gap ``tau_{A|BC} - tau_AB - tau_AC``."""
    det = one[..., 0, 0] * one[..., 1, 1] - one[..., 0, 1] * one[..., 1, 0]
    single, pair = np.clip(4.0 * det.real, 0.0, 1.0), _concurrences(two) ** 2
    return single, pair, single[:, 0] - pair[:, 0] - pair[:, 1]


def _kempe_pairings(one: np.ndarray, two: np.ndarray) -> np.ndarray:
    """``3 Tr[(rho_X (x) rho_Y) rho_XY] - Tr rho_X^3 - Tr rho_Y^3``, XY = AB, AC, BC."""
    cubes = np.einsum("nkij,nkjl,nkli->nk", one, one, one).real
    factors = one[:, _PAIR_X], one[:, _PAIR_Y], two.reshape(-1, 3, 2, 2, 2, 2)
    mixed = np.einsum("nkij,nkab,nkjbia->nk", *factors).real
    return 3.0 * mixed - cubes[:, _PAIR_X] - cubes[:, _PAIR_Y]


def _records(amps: np.ndarray, tau3_tol: float = TAU3_CLASS_TOL) -> list[InvariantRecord]:
    """Invariant records of stacked 3-qubit amplitudes ``(N, 8)``."""
    one, two = _reductions(amps)
    single, pair, gap = _tangle_terms(one, two)
    spectra = np.linalg.eigvalsh(one)
    ranks = (spectra > _RANK_TOL).sum(-1)
    hyper = _hyperdet(amps)
    # indices into SloccClass in declaration order: GHZ or W by the three-tangle
    # 4 |hyperdet3|, unless one marginal is pure (the biseparable cut) or all are
    pure = ranks == 1
    label = np.where(4.0 * np.abs(hyper) > tau3_tol, 5, 4)
    label = np.where(pure.sum(-1) == 1, 1 + pure.argmax(-1), label)
    label = np.where(pure.all(-1), 0, label)
    # i1, (i2, i3, i4), i5, i6, tau1, tau2, tau3: the record's field order
    scalars = np.column_stack([
        np.einsum("ni,ni->n", amps.conj(), amps).real,
        np.einsum("nkij,nkji->nk", one, one).real,
        _kempe_pairings(one, two)[:, 0],
        4.0 * np.abs(hyper) ** 2,
        single.sum(-1) / 3.0,
        pair.sum(-1) / 3.0,
        np.maximum(0.0, gap),
    ])
    polytope = spectra.min(-1).clip(0.0, 0.5)
    classes = list(SloccClass)
    return [
        InvariantRecord(*s, tuple(r), tuple(p), classes[c])
        for s, r, p, c in zip(scalars.tolist(), ranks.tolist(), polytope.tolist(), label.tolist())
    ]


def tangles(psi: PureState) -> tuple[float, float, float]:
    """One-, two- and three-tangle of a 3-qubit pure state.

    ``tau1`` averages the single-party tangles ``4 det rho_X`` over the three
    splittings, ``tau2`` averages the squared Wootters concurrences of the
    two-qubit reductions, and ``tau3`` is the residual
    ``tau_{A|BC} - tau_{A|B} - tau_{A|C}``.
    """
    rec = _records(_stack(psi))[0]
    return (rec.tau1, rec.tau2, rec.tau3)


def monogamy_gap(psi: PureState) -> float:
    """``tau_{A|BC} - tau_{A|B} - tau_{A|C}``; non-negative up to round-off."""
    return float(_tangle_terms(*_reductions(_stack(psi)))[2][0])


def kempe_invariant(psi: PureState) -> float:
    """Sixth-order invariant ``3 Tr[(rho_A (x) rho_B) rho_AB] - Tr rho_A^3 - Tr rho_B^3``."""
    return float(_kempe_pairings(*_reductions(_stack(psi)))[0, 0])


def kempe_symmetric_check(psi: PureState) -> tuple[float, float, float]:
    """The Kempe invariant evaluated under the three subsystem pairings.

    All three values agree for any state; returning them exposes the symmetry
    for verification.
    """
    return tuple(_kempe_pairings(*_reductions(_stack(psi)))[0].tolist())


def polytope_coords(psi: PureState) -> tuple[float, float, float]:
    """Smaller eigenvalue of each single-party reduction, each in ``[0, 1/2]``."""
    return _records(_stack(psi))[0].polytope


def slocc_class_3qubit(psi: PureState, tau3_tol: float = TAU3_CLASS_TOL) -> SloccClass:
    """SLOCC class from the marginal ranks and the three-tangle.

    Rank pattern (1,1,1) is product; exactly one rank-1 marginal marks the
    biseparable cut; among genuinely tripartite states the three-tangle
    separates the GHZ orbit (positive) from the W orbit (zero).
    """
    return _records(_stack(psi), tau3_tol)[0].class_label


def lu_invariants(psi: PureState) -> InvariantRecord:
    """Full invariant record of a normalized 3-qubit pure state.

    ``i6 = 4 |hyperdet3|^2``, so GHZ gives 1/4 and the W class gives 0.  In
    this normalization ``tau3 = 2 sqrt(i6)``, and the tangles obey
    ``tau1 = 2*tau2 + tau3`` (the Coffman-Kundu-Wootters monogamy relation
    summed over the three parties), so ``tau2 = 1 - I_av - sqrt(i6)`` with
    ``I_av = (i2 + i3 + i4) / 3``.
    """
    return _records(_stack(psi))[0]


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AcinCanonicalForm:
    """Five amplitudes, one phase and the local unitaries reaching them.

    Applying ``local_unitaries`` (one per qubit) to the input state yields
    ``r0 e^{i theta}|000> + r1|100> + r2|010> + r3|001> + r4|111>``.
    """

    r: np.ndarray
    theta: float
    local_unitaries: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)


def _apply_locals(psi: PureState, us) -> np.ndarray:
    t = psi.reshaped()
    return np.einsum("ia,jb,kc,abc->ijk", us[0], us[1], us[2], t)


def _mixed_svd(t0, t1, ts, phis, order):
    """Mix the two slices over a batch of angles and SVD the new lower slice.

    With ``g = cos(ts)`` and ``d = sin(ts) e^{i phis}`` the first qubit's new
    basis turns the slices into ``g t0 + d t1`` (lower) and ``d* t0 - g* t1``
    (upper).  Returns ``g, d``, the singular vectors ``u, vh`` of the lower
    slice (``order = 1`` puts the smaller singular value first) and the upper
    slice.
    """
    g = np.cos(ts)
    d = np.sin(ts) * np.exp(1j * phis)
    gs, ds = g[:, None, None], d[:, None, None]
    u, _, vh = np.linalg.svd(gs * t0 + ds * t1)
    if order:
        u = u[:, :, ::-1]
        vh = vh[:, ::-1, :]
    return g, d, u, vh, np.conj(ds) * t0 - np.conj(gs) * t1


def _residual_newton(t0, t1, ts, phis, order):
    """``|011>`` amplitude of the upper slice once the lower one is diagonal."""
    _, _, u, vh, upper = _mixed_svd(t0, t1, ts, phis, order)
    return (u.conj().transpose(0, 2, 1) @ upper @ vh.conj().transpose(0, 2, 1))[:, 1, 1]


def _residual_grid(t0, t1, ts, phis, order):
    """The same residual in einsum summation order, for the seed scan.

    On the ``ts = pi/2`` row the residual is flat in ``phis`` up to rounding,
    so the seed taken from that row rests on the last bits, and Newton steps
    from far-off seeds are just as sensitive.  Changing the summation order
    here or in :func:`_residual_newton` changes the returned form of a few
    Haar states in a thousand.
    """
    _, _, u, vh, upper = _mixed_svd(t0, t1, ts, phis, order)
    return np.einsum("nji,njk,nlk->nil", u.conj(), upper, vh.conj())[:, 1, 1]


#: Damping factors of the Newton line search, tried together, largest first.
_HALVINGS = 0.5 ** np.arange(25)


def _newton_root(t0, t1, x0, order, steps=60):
    h = 1e-7
    x = np.array(x0, dtype=float)
    for _ in range(steps):
        # the residual and its two forward-difference points in one batch
        f, f1, f2 = _residual_newton(
            t0, t1, x[0] + np.array([0.0, h, 0.0]), x[1] + np.array([0.0, 0.0, h]), order
        )
        if abs(f) < 1e-13:
            return x
        jac = np.array(
            [
                [(f1 - f).real / h, (f2 - f).real / h],
                [(f1 - f).imag / h, (f2 - f).imag / h],
            ]
        )
        try:
            step = np.linalg.solve(jac, np.array([f.real, f.imag]))
        except np.linalg.LinAlgError:
            return None
        # every halving in one batch; take the largest that lowers |f|
        trial = _residual_newton(
            t0, t1, x[0] - _HALVINGS * step[0], x[1] - _HALVINGS * step[1], order
        )
        lower = np.flatnonzero(np.abs(trial) < abs(f))
        lam = _HALVINGS[lower[0]] if lower.size else 0.5 * _HALVINGS[-1]
        x = x - lam * step
    return x if abs(_residual_newton(t0, t1, x[:1], x[1:], order)[0]) < 1e-12 else None


def _phase_gauge(tq: np.ndarray):
    """Diagonal local phases making r1..r4 real positive, then theta best effort."""
    rows = {
        (1, 0, 0): (1.0, 1.0, 0.0, 0.0),
        (0, 1, 0): (1.0, 0.0, 1.0, 0.0),
        (0, 0, 1): (1.0, 0.0, 0.0, 1.0),
        (1, 1, 1): (1.0, 1.0, 1.0, 1.0),
    }
    a_rows, b_vals = [], []
    for k, row in rows.items():
        if abs(tq[k]) > 1e-12:
            a_rows.append(row)
            b_vals.append(-np.angle(tq[k]))
    if a_rows:
        a = np.array(a_rows)
        b = np.array(b_vals)
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        null = null_space(a)
    else:
        x = np.zeros(4)
        null = np.eye(4)
    if abs(tq[0, 0, 0]) > 1e-12 and null.shape[1]:
        # spend leftover freedom on zeroing theta
        c = null.T @ np.array([1.0, 0.0, 0.0, 0.0])
        target = -np.angle(tq[0, 0, 0]) - x[0]
        if np.linalg.norm(c) > 1e-12:
            x = x + null @ (c * target / (c @ c))
    mu, al, be, ga = x
    za = np.exp(1j * mu) * np.diag([1.0, np.exp(1j * al)])
    zb = np.diag([1.0, np.exp(1j * be)])
    zc = np.diag([1.0, np.exp(1j * ga)])
    return za, zb, zc


def acin_canonical_form(
    psi: PureState, grid_points: int = 14, tol: float = 1e-8
) -> AcinCanonicalForm:
    """Local-unitary reduction to the five-component canonical form.

    The first qubit's basis mixes the two tensor slices; the mixing angles are
    chosen so that, once the second and third qubits SVD-diagonalize the new
    lower slice (which zeroes ``|101>`` and ``|110>``), the ``|011>``
    amplitude of the upper slice vanishes too.  The root search scans a coarse
    angle grid for both singular-value orderings and polishes seeds with a damped
    Newton iteration; among the roots found, the one minimizing
    ``(r4, r3, r2, r1)`` lexicographically is returned.  Remaining local
    phases are absorbed so ``r1..r4 >= 0`` with a single phase left on ``r0``.
    """
    _require_3qubit(psi)
    t = psi.reshaped()
    t0, t1 = t[0], t[1]
    tg = np.linspace(0.0, np.pi / 2, grid_points)
    pg = np.linspace(0.0, 2 * np.pi, 2 * grid_points, endpoint=False)
    tt, pp = np.meshgrid(tg, pg, indexing="ij")
    ts, phis = tt.ravel(), pp.ravel()

    candidates = []
    for order in (0, 1):
        fvals = np.abs(_residual_grid(t0, t1, ts, phis, order))
        # stratify seeds by mixing angle so distinct root branches all get
        # polished; the boundary rows carry the degenerate-state roots
        fgrid = fvals.reshape(tg.size, pg.size)
        row_best = [ti * pg.size + int(np.argmin(fgrid[ti])) for ti in range(tg.size)]
        seeds = sorted(row_best, key=lambda i: fvals[i])[:8]
        for boundary in (row_best[0], row_best[-1]):
            if boundary not in seeds:
                seeds.append(boundary)
        for i in seeds:
            x = _newton_root(t0, t1, (ts[i], phis[i]), order)
            if x is None:
                continue
            g, d, u, vh, _ = (a[0] for a in _mixed_svd(t0, t1, x[:1], x[1:], order))
            ua = np.array([[np.conj(d), -np.conj(g)], [g, d]])
            ub = u.conj().T
            uc = vh.conj()
            tp = _apply_locals(psi, (ua, ub, uc))
            za, zb, zc = _phase_gauge(tp)
            locals_ = (za @ ua, zb @ ub, zc @ uc)
            tq = _apply_locals(psi, locals_)
            off = max(abs(tq[0, 1, 1]), abs(tq[1, 0, 1]), abs(tq[1, 1, 0]))
            if off < tol:
                r = np.array(
                    [
                        abs(tq[0, 0, 0]),
                        abs(tq[1, 0, 0]),
                        abs(tq[0, 1, 0]),
                        abs(tq[0, 0, 1]),
                        abs(tq[1, 1, 1]),
                    ]
                )
                theta = float(np.angle(tq[0, 0, 0])) if r[0] > 1e-12 else 0.0
                candidates.append((r, theta, locals_))
    if not candidates:
        raise ConvergenceError(
            "failed to zero the three target amplitudes below tolerance"
        )
    candidates.sort(
        key=lambda c: tuple(np.round(c[0][[4, 3, 2, 1, 0]], 9)) + (round(abs(c[1]), 9),)
    )
    r, theta, locals_ = candidates[0]
    return AcinCanonicalForm(r=r, theta=theta, local_unitaries=locals_)
