"""Three-qubit algebra: local-unitary invariants, tangles, hyperdeterminant,
Wootters concurrence, canonical form, polytope coordinates and SLOCC class.

The six invariants are the norm, the three single-party reduction purities,
the Kempe invariant and the squared-modulus hyperdeterminant invariant; the
tangles derive from them and from the two-qubit reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import null_space

from .core import ConvergenceError
from .states import DensityMatrix, PureState, partial_trace, purity

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


def hyperdet3(tensor) -> complex:
    """Cayley hyperdeterminant of a ``2 x 2 x 2`` complex tensor.

    Quartic polynomial with a squares group, a pair-coupling group and the two
    odd diagonals; vanishes exactly on the closure of the W class.
    """
    t = np.asarray(tensor, dtype=complex)
    if t.size != 8:
        raise ValueError(f"expected 8 amplitudes, got shape {t.shape}")
    t = t.reshape(2, 2, 2)
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
    return complex(squares - 2 * pairs + 4 * diagonals)


_SY = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SY, _SY)


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
    m = rho.matrix @ _YY @ rho.matrix.conj() @ _YY
    ev = np.linalg.eigvals(m).real
    ev[ev < 1e-12 * max(ev.max(), 1e-300)] = 0.0
    mu = np.sort(np.sqrt(np.clip(ev, 0.0, None)))[::-1]
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))


def _marginals(psi: PureState):
    return (
        partial_trace(psi, [0]),
        partial_trace(psi, [1]),
        partial_trace(psi, [2]),
    )


def _one_tangles(psi: PureState) -> tuple[float, float, float]:
    # tau_{X|YZ} = 4 det rho_X for qubits
    return tuple(
        float(np.clip(4.0 * np.linalg.det(r.matrix).real, 0.0, 1.0))
        for r in _marginals(psi)
    )


def _pair_tangles(psi: PureState) -> tuple[float, float, float]:
    # (A|B, B|C, C|A)
    c_ab = wootters_concurrence(partial_trace(psi, [0, 1]))
    c_bc = wootters_concurrence(partial_trace(psi, [1, 2]))
    c_ca = wootters_concurrence(partial_trace(psi, [0, 2]))
    return (c_ab**2, c_bc**2, c_ca**2)


def tangles(psi: PureState) -> tuple[float, float, float]:
    """One-, two- and three-tangle of a 3-qubit pure state.

    ``tau1`` averages the single-party tangles ``4 det rho_X`` over the three
    splittings, ``tau2`` averages the squared Wootters concurrences of the
    two-qubit reductions, and ``tau3`` is the residual
    ``tau_{A|BC} - tau_{A|B} - tau_{A|C}``.
    """
    _require_3qubit(psi)
    one = _one_tangles(psi)
    pair = _pair_tangles(psi)
    tau1 = sum(one) / 3.0
    tau2 = sum(pair) / 3.0
    tau3 = max(0.0, one[0] - pair[0] - pair[2])
    return (float(tau1), float(tau2), float(tau3))


def monogamy_gap(psi: PureState) -> float:
    """``tau_{A|BC} - tau_{A|B} - tau_{A|C}``; non-negative up to round-off."""
    _require_3qubit(psi)
    one = _one_tangles(psi)
    pair = _pair_tangles(psi)
    return float(one[0] - pair[0] - pair[2])


def _kempe(rho_x: np.ndarray, rho_y: np.ndarray, rho_xy: np.ndarray) -> float:
    val = (
        3.0 * np.einsum("ij,ji->", np.kron(rho_x, rho_y), rho_xy)
        - np.einsum("ij,jk,ki->", rho_x, rho_x, rho_x)
        - np.einsum("ij,jk,ki->", rho_y, rho_y, rho_y)
    )
    return float(val.real)


def kempe_invariant(psi: PureState) -> float:
    """Sixth-order invariant ``3 Tr[(rho_A (x) rho_B) rho_AB] - Tr rho_A^3 - Tr rho_B^3``."""
    _require_3qubit(psi)
    return _kempe(
        partial_trace(psi, [0]).matrix,
        partial_trace(psi, [1]).matrix,
        partial_trace(psi, [0, 1]).matrix,
    )


def kempe_symmetric_check(psi: PureState) -> tuple[float, float, float]:
    """The Kempe invariant evaluated under the three subsystem pairings.

    All three values agree for any state; returning them exposes the symmetry
    for verification.
    """
    _require_3qubit(psi)
    out = []
    for x, y in ((0, 1), (0, 2), (1, 2)):
        out.append(
            _kempe(
                partial_trace(psi, [x]).matrix,
                partial_trace(psi, [y]).matrix,
                partial_trace(psi, [x, y]).matrix,
            )
        )
    return tuple(out)


def polytope_coords(psi: PureState) -> tuple[float, float, float]:
    """Smaller eigenvalue of each single-party reduction, each in ``[0, 1/2]``."""
    _require_3qubit(psi)
    return tuple(
        float(np.linalg.eigvalsh(r.matrix).min().clip(0.0, 0.5))
        for r in _marginals(psi)
    )


def _marginal_ranks(psi: PureState) -> tuple[int, int, int]:
    return tuple(
        int((np.linalg.eigvalsh(r.matrix) > _RANK_TOL).sum()) for r in _marginals(psi)
    )


def slocc_class_3qubit(psi: PureState, tau3_tol: float = TAU3_CLASS_TOL) -> SloccClass:
    """SLOCC class from the marginal ranks and the three-tangle.

    Rank pattern (1,1,1) is product; exactly one rank-1 marginal marks the
    biseparable cut; among genuinely tripartite states the three-tangle
    separates the GHZ orbit (positive) from the W orbit (zero).
    """
    _require_3qubit(psi)
    ranks = _marginal_ranks(psi)
    if ranks == (1, 1, 1):
        return SloccClass.PRODUCT
    if ranks.count(1) == 1:
        return (SloccClass.BISEP_A_BC, SloccClass.BISEP_B_AC, SloccClass.BISEP_C_AB)[
            ranks.index(1)
        ]
    tau3 = 4.0 * abs(hyperdet3(psi.amplitudes))
    return SloccClass.GHZ if tau3 > tau3_tol else SloccClass.W


def lu_invariants(psi: PureState) -> InvariantRecord:
    """Full invariant record of a normalized 3-qubit pure state.

    ``i6 = 4 |hyperdet3|^2``, so GHZ gives 1/4 and the W class gives 0.  In
    this normalization ``tau3 = 2 sqrt(i6)``, and the tangles obey
    ``tau1 = 2*tau2 + tau3`` (the Coffman-Kundu-Wootters monogamy relation
    summed over the three parties), so ``tau2 = 1 - I_av - sqrt(i6)`` with
    ``I_av = (i2 + i3 + i4) / 3``.
    """
    _require_3qubit(psi)
    i1 = float(np.vdot(psi.amplitudes, psi.amplitudes).real)
    i2, i3, i4 = (purity(r) for r in _marginals(psi))
    i5 = kempe_invariant(psi)
    i6 = float(4.0 * abs(hyperdet3(psi.amplitudes)) ** 2)
    tau1, tau2, tau3 = tangles(psi)
    return InvariantRecord(
        i1=i1, i2=float(i2), i3=float(i3), i4=float(i4), i5=i5, i6=i6,
        tau1=tau1, tau2=tau2, tau3=tau3,
        ranks=_marginal_ranks(psi),
        polytope=polytope_coords(psi),
        class_label=slocc_class_3qubit(psi),
    )


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
