"""Three-qubit algebra: local-unitary invariants, tangles, hyperdeterminant,
Wootters concurrence, canonical form, polytope coordinates and SLOCC class.

Two kernels of one state's 8 amplitudes feed the invariants, with no
eigensolve.  :func:`_reductions` builds the one- and two-qubit reductions:
the norm, purities, Kempe invariant, single-party tangles and the
closed-form marginal spectra (ranks, polytope point).  :func:`_slice_dets`
takes the 2 x 2 slice determinants along each qubit: the pair tangles and
the hyperdeterminant, and so ``tau3`` and the class, and the canonical
form's quadratic form of ``det M`` (:func:`_slice_forms`).  :func:`_record`
gathers the full record; ``monogamy_gap`` and the Kempe functions compute
only what they return, and ``hyperdet3`` reads :func:`_slice_dets` of its
tensor.  Among the invariants, only ``wootters_concurrence``, on a mixed
state, runs ``eigvals``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import comb

import numpy as np

from .core import ConvergenceError, _check_finite, _check_tol
from .schmidt import RANK_TOL
from .states import DensityMatrix, PureState

#: Below this value of the three-tangle, a rank-(2,2,2) state is labeled W class.
TAU3_CLASS_TOL = 1e-8


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


def _require_3qubit(psi: PureState) -> np.ndarray:
    """The amplitudes ``(8,)`` of ``psi``, which must be a 3-qubit ``PureState``."""
    if not isinstance(psi, PureState):
        raise ValueError(f"expected a 3-qubit state, got {type(psi).__name__}")
    if psi.dims != (2, 2, 2):
        raise ValueError(f"expected a 3-qubit state, got dims {psi.dims}")
    return psi.amplitudes


#: Amplitude orders that put qubit A, B or C first, and the pair AB, AC or BC.
_ONE_FIRST, _PAIR_FIRST = (
    np.array([np.arange(8).reshape(2, 2, 2).transpose(axes).ravel() for axes in orders])
    for orders in (((0, 1, 2), (1, 0, 2), (2, 0, 1)), ((0, 1, 2), (0, 2, 1), (1, 2, 0)))
)
#: The two qubits of each pair, in the order of the two-qubit stack.
_PAIR_X, _PAIR_Y = [0, 0, 1], [1, 2, 2]


def _reductions(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rho_A, rho_B, rho_C`` as ``(3, 2, 2)`` and ``rho_AB, rho_AC, rho_BC``
    as ``(3, 4, 4)`` of one 3-qubit state's amplitudes ``(8,)``."""
    v1 = amps[_ONE_FIRST].reshape(3, 2, 4)
    v2 = amps[_PAIR_FIRST].reshape(3, 4, 2)
    return v1 @ v1.conj().swapaxes(1, 2), v2 @ v2.conj().swapaxes(1, 2)


def _slice_dets(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``D_0, D_1, x`` ``(3,)`` over Z = A, B, C of amplitudes ``(8,)``: ``D_k =
    det M_k`` of the 2 x 2 slices along Z, ``x = (det(M_0 + M_1) - D_0 -
    D_1) / 2``, so ``det(s M_0 + t M_1) = D_0 s^2 + 2 x s t + D_1 t^2``."""
    m = amps[_ONE_FIRST].reshape(3, 2, 2, 2)
    m = np.concatenate([m, m[:, :1] + m[:, 1:]], 1)
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return det[:, 0], det[:, 1], (det[:, 2] - det[:, 0] - det[:, 1]) / 2


def hyperdet3(tensor) -> complex:
    """Cayley hyperdeterminant of a ``2 x 2 x 2`` complex tensor, refusing
    NaN or infinite entries: ``4 (x^2 - D_0 D_1)`` along the first axis
    (:func:`_slice_dets`).  Vanishes exactly on the closure of the W class.
    """
    t = np.asarray(tensor, dtype=complex)
    if t.size != 8:
        raise ValueError(f"expected 8 amplitudes, got shape {t.shape}")
    _check_finite(t, "tensor entries")
    d0, d1, x = _slice_dets(t.reshape(8))
    return complex(4.0 * (x[0] ** 2 - d0[0] * d1[0]))


_SY = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SY, _SY)


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Concurrence of a two-qubit mixed state.

    ``C = max(0, mu_1 - mu_2 - mu_3 - mu_4)`` where the ``mu_i`` are the
    non-increasing square roots of the eigenvalues of
    ``rho (sy (x) sy) rho* (sy (x) sy)``.  Eigenvalues below ``1e-12`` of the
    largest are treated as exact zeros so rank-deficient inputs do not inject
    square-root noise.  The zeroing is on this mixed-state route only: the
    pair tangles of a 3-qubit pure state have a closed form.
    """
    if not isinstance(rho, DensityMatrix):
        raise ValueError(f"expected a 2-qubit DensityMatrix, got {type(rho).__name__}")
    if rho.dims != (2, 2):
        raise ValueError(f"expected a 2-qubit state, got dims {rho.dims}")
    m = rho.matrix
    ev = np.linalg.eigvals(m @ _YY @ m.conj() @ _YY).real
    # the threshold is positive, so this also zeroes every negative eigenvalue
    mu = np.sort(np.sqrt(np.where(ev < 1e-12 * max(ev.max(), 1e-300), 0.0, ev)))
    return float(max(0.0, mu[3] - mu[2] - mu[1] - mu[0]))


def _tangle_terms(one: np.ndarray, dets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``4 det rho_X`` of a stack ``one`` ``(K, 2, 2)`` (X = A first), the
    pair tangles AB, AC, BC and the monogamy gap ``tau_{A|BC} - tau_AB -
    tau_AC``.  The pair opposite Z has a reduction of rank two at most, and
    its squared concurrence is ``(s_1 - s_2)^2`` for the singular values of
    ``S = -2 [[D_0, x], [x, D_1]]`` from ``dets`` (:func:`_slice_dets`), that
    is ``|S|_F^2 - 2 |det S|`` (Wootters, PRL 80, 2245 (1998))."""
    d0, d1, x = dets
    det = one[:, 0, 0] * one[:, 1, 1] - one[:, 0, 1] * one[:, 1, 0]
    single = np.clip(4.0 * det.real, 0.0, 1.0)
    pair = 4.0 * (abs(d0) ** 2 + 2.0 * abs(x) ** 2 + abs(d1) ** 2) - 8.0 * abs(x * x - d0 * d1)
    pair = np.maximum(0.0, pair[::-1])  # Z = C, B, A is the pair AB, AC, BC
    return single, pair, single[0] - pair[0] - pair[1]


def _kempe_pairings(one: np.ndarray, two: np.ndarray) -> np.ndarray:
    """``3 Tr[(rho_X (x) rho_Y) rho_XY] - Tr rho_X^3 - Tr rho_Y^3``, XY = AB, AC, BC."""
    cubes = np.einsum("kij,kjl,kli->k", one, one, one).real
    factors = one[_PAIR_X], one[_PAIR_Y], two.reshape(3, 2, 2, 2, 2)
    mixed = np.einsum("kij,kab,kjbia->k", *factors).real
    return 3.0 * mixed - cubes[_PAIR_X] - cubes[_PAIR_Y]


#: The class of a state whose marginal on A, B or C alone is pure.
_BISEPARABLE = (SloccClass.BISEP_A_BC, SloccClass.BISEP_B_AC, SloccClass.BISEP_C_AB)


def _record(amps: np.ndarray, tau3_tol: float = TAU3_CLASS_TOL) -> InvariantRecord:
    """Invariant record of one 3-qubit state's amplitudes ``(8,)``."""
    one, two = _reductions(amps)
    d0, d1, x = dets = _slice_dets(amps)
    single, pair, gap = _tangle_terms(one, dets)
    # ascending spectra (p + q -+ hypot(p - q, 2|z|)) / 2 of each [[p, z], [z*, q]]
    p, q = one[:, 0, 0].real, one[:, 1, 1].real
    root = np.hypot(p - q, 2.0 * abs(one[:, 0, 1]))
    low, high = ((p + q - root) / 2).tolist(), ((p + q + root) / 2).tolist()
    ranks = tuple((lo > RANK_TOL) + (hi > RANK_TOL) for lo, hi in zip(low, high))
    hyper = float(abs(4.0 * (x ** 2 - d0 * d1))[0])  # |hyperdet3|, along A
    # GHZ or W by the three-tangle 4 |hyperdet3|, unless one marginal is pure
    # (the biseparable cut) or all are
    if ranks == (1, 1, 1):
        label = SloccClass.PRODUCT
    elif ranks.count(1) == 1:
        label = _BISEPARABLE[ranks.index(1)]
    elif 4.0 * hyper > tau3_tol:
        label = SloccClass.GHZ
    else:
        label = SloccClass.W
    # i1, (i2, i3, i4), i5, i6, tau1, tau2, tau3: the record's field order
    return InvariantRecord(
        float(np.einsum("i,i->", amps.conj(), amps).real),
        *np.einsum("kij,kji->k", one, one).real.tolist(),
        float(_kempe_pairings(one, two)[0]), 4.0 * (hyper * hyper),
        float(single.sum()) / 3.0, float(pair.sum()) / 3.0, max(0.0, float(gap)),
        ranks, tuple(min(max(v, 0.0), 0.5) for v in low), label,
    )


def tangles(psi: PureState) -> tuple[float, float, float]:
    """One-, two- and three-tangle of a 3-qubit pure state.

    ``tau1`` averages the single-party tangles ``4 det rho_X`` over the three
    splittings, ``tau2`` the squared concurrences of the two-qubit reductions,
    in closed form from the slice determinants, and ``tau3`` is the residual
    ``tau_{A|BC} - tau_{A|B} - tau_{A|C}``.  No eigensolve.
    """
    rec = _record(_require_3qubit(psi))
    return (rec.tau1, rec.tau2, rec.tau3)


def monogamy_gap(psi: PureState) -> float:
    """``tau_{A|BC} - tau_{A|B} - tau_{A|C}``, from ``rho_A`` and the slice
    determinants; non-negative up to round-off."""
    amps = _require_3qubit(psi)
    v = amps.reshape(1, 2, 4)
    return float(_tangle_terms(v @ v.conj().swapaxes(1, 2), _slice_dets(amps))[2])


def kempe_invariant(psi: PureState) -> float:
    """Sixth-order invariant ``3 Tr[(rho_A (x) rho_B) rho_AB] - Tr rho_A^3 - Tr rho_B^3``."""
    return float(_kempe_pairings(*_reductions(_require_3qubit(psi)))[0])


def kempe_symmetric_check(psi: PureState) -> tuple[float, float, float]:
    """The Kempe invariant evaluated under the three subsystem pairings.

    All three values agree for any state; returning them exposes the symmetry
    for verification.
    """
    return tuple(_kempe_pairings(*_reductions(_require_3qubit(psi))).tolist())


def polytope_coords(psi: PureState) -> tuple[float, float, float]:
    """Smaller eigenvalue of each single-party reduction, each in ``[0, 1/2]``."""
    return _record(_require_3qubit(psi)).polytope


def slocc_class_3qubit(psi: PureState, tau3_tol: float = TAU3_CLASS_TOL) -> SloccClass:
    """SLOCC class from the marginal ranks and the three-tangle.

    Rank pattern (1,1,1) is product; exactly one rank-1 marginal marks the
    biseparable cut; among genuinely tripartite states the three-tangle
    separates the GHZ orbit (above ``tau3_tol``, which must be finite and
    >= 0) from the W orbit.
    """
    _check_tol(tau3_tol, "tau3_tol")
    return _record(_require_3qubit(psi), tau3_tol).class_label


def lu_invariants(psi: PureState) -> InvariantRecord:
    """Full invariant record of a normalized 3-qubit pure state.

    ``i6 = 4 |hyperdet3|^2``, so GHZ gives 1/4 and the W class gives 0.  In
    this normalization ``tau3 = 2 sqrt(i6)``, and the tangles obey
    ``tau1 = 2*tau2 + tau3`` (the Coffman-Kundu-Wootters monogamy relation
    summed over the three parties), so ``tau2 = 1 - I_av - sqrt(i6)`` with
    ``I_av = (i2 + i3 + i4) / 3``.  The pair tangles, ``hyperdet3`` and the
    marginal spectra are closed forms, so no eigensolve's zeroing breaks these.
    """
    return _record(_require_3qubit(psi))


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
    #: Newton steps taken by the batch of seeds, 0 to 6: the polish stops
    #: after the step that finds ``morse_count`` complete, or when no row moves.
    newton_steps: int = field(default=0, repr=False)
    #: Distinct roots within ``tol`` among the rows of the step where the
    #: polish stopped, told apart by their rounded ``(r, |theta|)``.
    roots: int = field(default=1, repr=False)
    #: ``((extrema, saddles), (extrema, saddles))`` among the roots reached
    #: before the last step, on the upper sheet and on the lower one; complete
    #: when extrema less saddles is 2 and 0, with two roots or more on each.
    morse_count: tuple[tuple[int, int], tuple[int, int]] = field(
        default=((0, 0), (0, 0)), repr=False)


#: Pauli matrices, identity first.
_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1.0, -1.0])])

#: Chebyshev points ``cos theta_j``, ``theta_j = pi (j + 1/2) / 25``, where
#: ``T_k = cos k theta_j``.  For ``k, l < 25``, ``sum_j T_k T_l`` is 25 at ``k
#: = l = 0``, 25/2 at ``k = l > 0`` and 0 otherwise, so the least-squares fit
#: of ``T_0 .. T_12`` there is ``(2/25) cos k theta_j``, its ``k = 0`` row halved.
_CHEB_ANGLES = np.pi * (np.arange(25) + 0.5) / 25
_CHEB_NODES = np.cos(_CHEB_ANGLES)
_CHEB_FIT = np.cos(np.outer(np.arange(13), _CHEB_ANGLES)) * (2 / 25)
_CHEB_FIT[0] /= 2
#: The colleague matrix of ``T_12``, tridiagonal with ``sqrt(1/2)`` and then
#: ``1/2`` beside the diagonal, and the scale of its last column, as in
#: ``numpy``'s ``chebroots``.
_COLLEAGUE = np.diag(np.r_[np.sqrt(0.5), np.full(10, 0.5)], 1)
_COLLEAGUE += _COLLEAGUE.T
_COLLEAGUE_SCALE = np.r_[np.sqrt(0.5), np.full(11, 0.5)]
#: ``_BERNSTEIN[j, k]`` is the ``j``-th coefficient of ``T_k(2t - 1)`` in the
#: degree-12 Bernstein basis ``C(12, j) t^j (1 - t)^(12 - j)`` of ``t`` in
#: ``[0, 1]`` (Rababah, Int. J. Math. Math. Sci. 2003, 3523), exact integers
#: over ``C(12, j)``.
_BERNSTEIN = np.array([
    [sum((-1) ** (k - i) * comb(2 * k, 2 * i) * comb(12 - k, j - i)
         for i in range(max(0, j + k - 12), min(j, k) + 1)) / comb(12, j) for k in range(13)]
    for j in range(13)
])

#: Fit intervals of the secular polynomial on ``[-1, 1]``, cut at ``+-4^-j``
#: (j = 0..10): one fit over all of it misses roots clustered near zero.
_CUTS = np.r_[-(4.0 ** -np.arange(11)), 4.0 ** -np.arange(10, -1, -1)]


def _rotate(t, a, order):
    """Local unitaries ``(N, 2, 2)`` and rotated tensors ``(N, 2, 2, 2)`` for
    each first-qubit vector ``(g, d)`` of ``a`` ``(N, 2)``.

    The first qubit's new basis turns the slices into ``g t0 + d t1`` (lower,
    the ``|1>`` slice) and ``d* t0 - g* t1`` (upper); the other two take the
    singular vectors of the lower slice, with the smaller singular value first
    on rows with a true ``order``, so ``|111>`` carries the other one.  The
    ``|011>`` amplitude is the residual of the root search.
    """
    g, d = a[:, 0], a[:, 1]
    ua = np.stack([np.stack([d.conj(), -g.conj()], -1), np.stack([g, d], -1)], -2)
    slices = (ua @ t.reshape(2, 4)).reshape(-1, 2, 2, 2)
    u, _, vh = np.linalg.svd(slices[:, 1])
    flip = np.asarray(order, dtype=bool)[:, None, None]
    ub = np.where(flip, u[:, :, ::-1], u).conj().swapaxes(1, 2)
    uc = np.where(flip, vh[:, ::-1, :], vh).conj()
    return ua, ub, uc, ub[:, None] @ slices @ uc[:, None].swapaxes(2, 3)


def _secular(nu, d, p, q, cc):
    """The degree-12 secular polynomial at ``nu``.

    With ``w_k = d_k - nu`` and ``pi = prod w_k``, :func:`_candidates` has
    ``mu^2 = R(nu) = num / den`` and ``|n|^2 = 1`` reads ``mu^2 p2 + 2 mu pq
    + q2 = pi^2``, all five polynomials in ``nu``.  Eliminating ``mu`` gives
    ``(num p2 + den (q2 - pi^2))^2 = 4 num den pq^2``, of degree 18 with a
    double root at each ``d_k``, which is divided out.
    """
    w = d[:, None, None] - nu
    pi, pik = w.prod(0), np.stack([w[1] * w[2], w[0] * w[2], w[0] * w[1]])
    num, den = np.tensordot(q * q, pik, 1) - (cc + nu) * pi, np.tensordot(p * p, pik, 1) - pi
    p2, q2, pq = np.tensordot(np.array([p * p, q * q, p * q]), pik ** 2, 1)
    return ((num * p2 + den * (q2 - pi ** 2)) ** 2 - 4.0 * num * den * pq ** 2) / pi ** 2


def _secular_roots(d, p, q, cc, bound):
    """Real roots in ``[-bound, bound]`` of :func:`_secular`: a degree-12
    Chebyshev fit on each interval of ``_CUTS``, and the real eigenvalues of
    the colleague matrices of the intervals that can hold a root, from one
    stacked ``eigvals``.

    Since ``|T_k| <= 1`` on ``[-1, 1]``, a fit ``p = sum c_k T_k`` has
    ``|p| >= |c_0| - sum_{k>=1} |c_k|`` there, so it has no zero when that
    bound is positive (Boyd, SIAM J. Numer. Anal. 40, 1666 (2002)).  An
    interval whose fit has ``|c_0| > 1.001 sum_{k>=1} |c_k|`` keeps ``|p|``
    above ``1e-3 sum_{k>=1} |c_k|``, a margin far beyond the rounding of its
    colleague matrix, so it would give no eigenvalue that passes the cuts
    below, and it is not solved; about two intervals in three on Haar
    states.  The Bernstein form of the fit gives the same margin where the
    Boyd test may not: the degree-12 Bernstein basis on the interval is
    non-negative and sums to one, so when the 13 coefficients ``_BERNSTEIN
    c`` all lie beyond ``1e-3 sum_{k>=1} |c_k|`` with one sign, ``|p|`` stays
    beyond it too, and that interval is not solved either.  Each test skips
    intervals the other keeps; together they cut the colleague matrices of a
    Haar form from about 7.2 to 5.6.  ``eigvals`` solves each matrix of the
    stack on its own, so the roots are bit for bit those of a solve of all 21
    intervals.
    """
    lo, hi = bound * _CUTS[:-1, None], bound * _CUTS[1:, None]
    mid, half = (hi + lo) / 2, (hi - lo) / 2
    coef = _secular(mid + half * _CHEB_NODES, d, p, q, cc) @ _CHEB_FIT.T
    scale = np.abs(coef).max(1)
    tail = np.abs(coef[:, 1:]).sum(1)
    bern, margin = coef @ _BERNSTEIN.T, 1e-3 * tail[:, None]
    keep = ((scale > 0) & (np.abs(coef[:, 0]) <= 1.001 * tail)
            & (bern <= margin).any(1) & (bern >= -margin).any(1))
    mid, half, coef = mid[keep], half[keep], coef[keep] / scale[keep, None]
    # a leading coefficient below rounding moves no root inside [-1, 1]
    lead = np.where(np.abs(coef[:, -1:]) < 1e-16, 1e-16, coef[:, -1:])
    mats = np.repeat(_COLLEAGUE[None], len(coef), 0)
    mats[:, :, -1] -= coef[:, :-1] / lead * _COLLEAGUE_SCALE
    x = np.linalg.eigvals(mats[:, ::-1, ::-1])
    return (mid + half * x.real)[(np.abs(x.imag) < 1e-6) & (np.abs(x.real) <= 1.0)]


def _slice_forms(t):
    """``alpha, beta, c, B`` of ``M M^dag = (alpha + beta.n) I + (c + B n).sigma``
    and the symmetric ``Q`` of ``det M = a^T Q a``, with ``M = a_0 t_0 + a_1
    t_1`` the lower slice of the first-qubit vector ``a`` and ``n`` its Bloch
    vector.  ``Q = [[D_0, x], [x, D_1]]`` along the first qubit from
    :func:`_slice_dets`, so ``det Q = -hyperdet3 / 4``."""
    form = 0.25 * np.einsum("vij,mba,iac,jbc->vm", _PAULI, _PAULI, t, t.conj()).real
    d0, d1, x = (v[0] for v in _slice_dets(t.reshape(8)))
    return form[0, 0], form[1:, 0], form[0, 1:], form[1:, 1:].T, np.array([[d0, x], [x, d1]])


def _candidates(beta, c, b, quad):
    """First-qubit vectors ``(S, 2)`` and orderings that seed the root search.

    With ``n`` the Bloch vector of ``a`` and ``M M^dag`` as in
    :func:`_slice_forms`, a root is a critical point on the sphere of an
    eigenvalue ``s = alpha + beta.n + mu``, ``mu = +-|c + B n|`` (a positive
    ``mu`` puts the larger singular value on ``|111>``).  Lagrange gives
    ``(B^T B - nu) n = -(mu beta + B^T c)``; in the eigenbasis ``d, V`` of
    ``B^T B``, ``n_k = -(mu p_k + q_k) / (d_k - nu)`` with ``mu^2 = R(nu)``,
    at each real root ``nu`` of :func:`_secular`.  Add the hard case ``nu =
    d_k``, where ``n_k`` takes what the unit norm leaves, with either sign;
    ``+-beta/|beta|``, the roots when ``B = 0`` (if ``c = 0`` too, as on
    ``|a> (x) Bell``, no Newton step moves); and the null vector of ``Q``,
    the root with ``r4 = 0`` of the W class.  Every seed turns with the
    state.  A seed whose ``|n|`` misses 1 by half or more (the wrong sign of
    ``mu``) is dropped.
    """
    d, v = np.linalg.eigh(b.T @ b)
    d = np.maximum(d, 0.0)
    p, q, cc = v.T @ beta, v.T @ (b.T @ c), c @ c
    bound = (np.sqrt(cc) + np.sqrt(d[-1])) * (np.linalg.norm(beta) + np.sqrt(d[-1]))
    nu = _secular_roots(d, p, q, cc, bound) if bound > 0 else np.zeros(0)
    gap = d[None, :] - d[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        winv = np.vstack([1.0 / (d - nu[:, None]),
                          np.where(np.abs(gap) > 1e-12 * d[-1], 1.0 / gap, 0.0)])
        nu = np.concatenate([nu, d])
        mu2 = ((q * q * winv).sum(1) - cc - nu) / ((p * p * winv).sum(1) - 1.0)
        m = -((np.sqrt(np.maximum(mu2, 0.0)) * [[1.0], [-1.0]])[..., None] * p + q) * winv
        m[:, -3:][:, range(3), range(3)] = np.sqrt(np.maximum(1.0 - (m[:, -3:] ** 2).sum(-1), 0.0))
        n = np.concatenate([m, m[:, -3:] * (1.0 - 2.0 * np.eye(3))], 1) @ v.T
        order = np.repeat([True, False], n.shape[1])
        n = n.reshape(-1, 3)
        if beta @ beta > 0:
            n = np.vstack([n, np.outer([1, -1, 1, -1], beta / np.sqrt(beta @ beta))])
            order = np.concatenate([order, [True, True, False, False]])
        norm = np.linalg.norm(n, axis=1, keepdims=True)
        n /= norm
        keep = np.isfinite(n).all(1) & (np.abs(norm[:, 0] - 1.0) < 0.5)
    n, order = n[keep], order[keep]
    # a with a^dag sigma a = n, from the column of 1 + n.sigma away from zero
    a = np.where(n[:, 2:] >= 0,
                 np.column_stack([1.0 + n[:, 2], n[:, 0] + 1j * n[:, 1]]),
                 np.column_stack([n[:, 0] - 1j * n[:, 1], 1.0 - n[:, 2]]))
    # on the W class Q has rank one, and its null vector is a root with r4 = 0
    null = np.linalg.svd(quad)[2][-1].conj()
    return np.vstack([a / np.linalg.norm(a, axis=1, keepdims=True), null]), np.append(order, False)


def _chart_terms(a, mu, alpha, beta, c, b, quad):
    """Gradient and Hessian of ``h = log sigma^2`` at ``z = 0`` in the chart
    ``a(z) = (a + z a_perp) / sqrt(1 + |z|^2)``, ``z = x + iy``, of each row
    of ``a`` ``(S, 2)``, and ``sigma`` ``(S,)``: the larger singular value of
    the lower slice on rows with a positive ``mu``, the smaller one elsewhere.

    In complex form, the gradient is ``G = h_x - i h_y``, and the Hessian is
    ``A = (h_xx + h_yy) / 2`` and ``C = (h_xx - h_yy) / 2 - i h_xy``.  The
    Bloch vector moves as ``n(z) = n (1 - 2|z|^2) + 2 Re(z m)`` to second
    order, with ``m = a^dag sigma a_perp``, so the chart turns the sphere
    derivatives of the larger eigenvalue ``S = alpha + beta.n + |w|`` of
    :func:`_slice_forms`' ``M M^dag``, ``w = c + B n``, into ``2 g.m`` and ``4
    (H - g.n)`` on ``Re m, -Im m``, with ``g = beta + B^T w / |w|`` and ``H =
    B^T B / |w| - B^T w w^T B / |w|^3``.  The smaller eigenvalue is ``|det
    M|^2 / S``, not ``alpha + beta.n - |w|``, which loses all its digits as it
    nears zero; ``det M(a(z)) = (D0 + 2 D1 z + D2 z^2) / (1 + |z|^2)``, so
    ``log |det M|^2`` adds ``2 Re log`` of that quadratic less ``2 log(1 +
    |z|^2)``.
    """
    g, d = a.T
    gc, dc = g.conj(), d.conj()
    gd = gc * d
    n = np.array([2.0 * gd.real, 2.0 * gd.imag, (g * gc - d * dc).real])
    m = np.array([gc * gc - dc * dc, -1j * (gc * gc + dc * dc), -2.0 * gc * dc])
    w = c[:, None] + b @ n
    norm = np.sqrt((w * w).sum(0))
    u = b.T @ w
    smax = alpha + beta @ n + norm
    grad = beta[:, None] + u / norm
    bm, um = b @ m, (u * m).sum(0) / norm
    gs = 2.0 * (grad * m).sum(0) / smax
    k = 2.0 / (smax * norm)
    diag = k * ((bm * bm.conj()).sum(0).real - abs(um) ** 2) - 4.0 * (grad * n).sum(0) / smax - abs(gs) ** 2 / 2
    off = k * ((bm * bm).sum(0) - um * um) - gs * gs / 2
    perp = np.array([-dc, gc])
    aq, pq = quad @ a.T, quad @ perp
    d0, d1, d2 = (aq * a.T).sum(0), (aq * perp).sum(0), (pq * perp).sum(0)
    f1 = 2.0 * d1 / d0
    f2 = 2.0 * d2 / d0 - f1 * f1
    low = mu < 0
    sigma = np.sqrt(np.where(low, abs(d0) ** 2 / smax, smax))
    return mu * gs + 2.0 * low * f1, mu * diag - 4.0 * low, mu * off + 2.0 * low * f2, sigma


#: Newton steps at most per canonical form.
_NEWTON_STEPS = 6


def _morse_count(a, order, z, grad, diag, off, sigma):
    """Extrema and saddles among the distinct roots that the rows of ``a``
    have reached, as ``((extrema, saddles), (extrema, saddles))`` on the
    upper sheet (a true ``order``) and on the lower one, and whether a row
    is still closing in on a root that no row has reached.

    A row has reached a root when ``sigma |G|`` is below ``1e-12``, half the
    acceptance of :func:`_roots`, since ``sigma |G| / 2`` tracks the
    residual; where the Hessian is large, rounding keeps ``sigma |G|`` of a
    root's rows above ``1e-13``.  A row whose Bloch vector lies within
    ``1e-6 + 4|z|`` of a row of its sheet that reached a root, ``z`` its
    Newton step, which moves the Bloch vector by about ``2|z|``, is on that
    root.  Each root is an extremum when ``A^2 > |C|^2`` (a definite
    Hessian) and a saddle otherwise.  A row closes in on another root when
    its step is below ``1e-3`` and it is on no root yet.  On the sphere,
    extrema less saddles is the Euler characteristic 2 (Milnor, *Morse
    Theory*, 1963); on the lower sheet it is 0, since ``log sigma`` is
    singular at the two zeros of ``det M``.
    """
    done = sigma * abs(grad) < 1e-12
    step = abs(z)
    # |n_i - n_j|^2 = 4 (1 - |a_i^dag a_j|^2) for unit spinors
    near = ((4.0 - 4.0 * abs(a.conj() @ a.T) ** 2 < ((1e-6 + 4.0 * step) ** 2)[:, None])
            & (order[:, None] == order) & done)
    # a row that reached a root is near itself; the lowest such row counts it
    first = done & (near.argmax(1) == np.arange(len(a)))
    closing = ~done & (step < 1e-3) & ~near.any(1)
    saddle = diag * diag <= abs(off) ** 2
    e_up, s_up, e_lo, s_lo = np.bincount(2 * ~order + saddle, first, 4).astype(int).tolist()
    return ((e_up, s_up), (e_lo, s_lo)), bool(closing.any())


def _newton(a, order, forms):
    """Newton steps on the Bloch sphere from each row of ``a`` at once, toward
    a critical point of the singular value of the lower slice that
    :func:`_rotate` puts on ``|111>``, the larger one on rows with a true
    ``order``: the zeros of the residual.  Each row takes one 2-D solve on
    :func:`_chart_terms` per step, ``A z* + C z = -G``, with no SVD.

    A row stays where it is once ``sigma |G| / 2``, which tracks the residual,
    is below ``1e-15``, and so does a row with ``|w| = 0``, ``det M = 0`` or a
    singular Hessian.  Before each step, :func:`_morse_count` counts the
    roots the rows have reached.  The polish ends after the step whose count
    is complete, which is extrema less saddles of 2 on the upper sheet and 0
    on the lower one, with at least two roots on each; it must also find as
    many roots as the count before, with no row closing in on another root.
    It also ends when no row moves, and after ``_NEWTON_STEPS`` at most.
    Returns the polished rows, the steps taken and the last count.
    """
    mu = np.where(order, 1.0, -1.0)
    last = -1
    for taken in range(_NEWTON_STEPS):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            grad, diag, off, sigma = _chart_terms(a, mu, *forms)
            z = (off * grad.conj() - diag * grad).conj() / (diag * diag - abs(off) ** 2)
            move = np.isfinite(z) & (sigma * abs(grad) > 2e-15)
            count, closing = _morse_count(a, order, z, grad, diag, off, sigma)
            if not move.any():
                return a, taken, count
            moved = a + z[:, None] * np.column_stack([-a[:, 1].conj(), a[:, 0].conj()])
            a = np.where(move[:, None], moved / np.linalg.norm(moved, axis=1, keepdims=True), a)
        found = sum(map(sum, count))
        if ([e - s for e, s in count] == [2, 0] and min(map(sum, count)) >= 2
                and found == last and not closing):
            return a, taken + 1, count
        last = found
    return a, _NEWTON_STEPS, count


def _roots(t):
    """Every root the seeds of :func:`_candidates` reach after :func:`_newton`,
    as :func:`_rotate` gives it (rows with a residual below ``1e-12``), the
    smallest residual of all seeds, the Newton steps taken and the count of
    :func:`_morse_count`."""
    forms = _slice_forms(t)
    a, order = _candidates(*forms[1:])
    a, steps, count = _newton(a, order, forms)
    *unitaries, x = _rotate(t, a, order)
    res = np.abs(x[:, 0, 1, 1])
    found = res < 1e-12
    return [u[found] for u in unitaries], x[found], res.min(), steps, count


def _theta(x):
    """``arg(x000^2 x111 conj(x100 x010 x001)) / 2`` of each rotated tensor, in
    ``(-pi/2, pi/2]``, or 0 if one of the five amplitudes is below ``1e-12``.
    A value within ``1e-9`` of ``-pi/2``, as on the W class, moves to ``pi/2``."""
    x = x.reshape(-1, 8)[:, [0b000, 0b000, 0b111, 0b100, 0b010, 0b001]]
    theta = 0.5 * np.angle(x[:, :3].prod(1) * x[:, 3:].prod(1).conj())
    theta = np.where(theta < 1e-9 - np.pi / 2, theta + np.pi, theta)
    return np.where((np.abs(x) < 1e-12).any(1), 0.0, theta)


def _phase_gauge(x, theta):
    """Diagonal local phases making the nonzero ``r1..r4`` of ``x`` real
    positive and the phase of ``|000>`` equal to ``theta``.

    Phases ``mu + i alpha + j beta + k gamma`` on ``|ijk>``: the four
    amplitudes of ``r1..r4`` fix ``mu`` mod pi, which ``theta`` picks; if one
    of them vanishes, its phase is free and ``theta`` is 0.
    """
    ph, small = np.angle(x), np.abs(x) < 1e-12
    ones = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    mu = 0.5 * (ph[1, 1, 1] - sum(ph[k] for k in ones)) if small[0, 0, 0] else theta - ph[0, 0, 0]
    angles = np.array([0.0 if small[k] else -ph[k] - mu for k in ones])
    free = np.flatnonzero([small[k] for k in ones])
    if free.size and not small[1, 1, 1]:
        angles[free[0]] -= ph[1, 1, 1] + mu + angles.sum()
    za, zb, zc = (np.diag([1.0, np.exp(1j * g)]) for g in angles)
    return np.exp(1j * mu) * za, zb, zc


def acin_canonical_form(psi: PureState, tol: float = 1e-8) -> AcinCanonicalForm:
    """Local-unitary reduction to the five-component canonical form.

    The first qubit's basis mixes the two tensor slices; it is chosen so that,
    once the second and third qubits SVD-diagonalize the new lower slice
    (which zeroes ``|101>`` and ``|110>``), the ``|011>`` amplitude of the
    upper slice vanishes too.  These roots are the critical points of the
    overlap with product states, found in closed form: on the Bloch sphere of
    the first-qubit vector they are the critical points of an eigenvalue of
    ``M M^dag`` (``M`` the lower slice), and their Lagrange multipliers are
    the real roots of one degree-12 secular polynomial, as in the constrained
    eigenvalue problem of Gander, Golub and von Matt, Linear Algebra Appl.
    114/115, 815 (1989).  Those roots, the multiplier's hard case, the
    extrema of ``Tr M M^dag`` and the zero of ``det M`` of the W class seed
    one batch of Newton steps on the singular value that ``|111>`` takes,
    with an analytic Hessian and no SVD (``newton_steps``).  The steps stop
    once the roots reached are complete by a signed count (``morse_count``):
    on the sphere of the first-qubit vector, extrema less saddles is 2 on the
    sheet of the larger singular value and 0 on the other.  The count must
    also hold as many roots as one step earlier, with no seed closing in on
    another root; short of that, the polish runs six steps.  Among the
    distinct ``roots`` reached, the one minimizing ``(r4, r3, r2, r1)``
    lexicographically is returned.  Diagonal local phases then make
    ``r1..r4 >= 0`` with one phase ``theta`` left on ``r0``.  Those phases
    fix ``theta`` only mod pi, so it is folded into ``(-pi/2, pi/2]``, which
    makes it a local-unitary invariant of the root; it is 0 when one of the
    five amplitudes vanishes.  ``tol`` must be finite and >= 0.  If no root
    reaches it, the :class:`ConvergenceError` carries the smallest
    off-support amplitude of the roots, or the smallest Newton residual if
    none converged.

    On generic states the roots are isolated and the form is canonical: a
    local rotation of the state returns the same ``r`` and ``theta``.  Where
    the roots form a continuum, as for product states, GHZ or
    ``acin_state([.5, .5, .5, .5, 0])``, the root returned can depend on the
    frame.

    The form differs from the one of Acin et al., PRL 85, 1560 (2000), which
    keeps ``|000>, |100>, |101>, |110>, |111>`` with the phase on ``|100>``
    (the ``|0>`` slice of the first qubit has rank one).  This one keeps
    ``|000>, |100>, |010>, |001>, |111>`` with the phase on ``|000>``: it
    zeroes the three amplitudes of Hamming weight two, which makes ``|111>`` a
    critical point of the overlap with product states (Carteret, Higuchi and
    Sudbery, J. Math. Phys. 41, 7932 (2000)).  Both have five moduli and one
    phase, but their ``r`` are different numbers.
    """
    _check_tol(tol)
    _require_3qubit(psi)
    (ua, ub, uc), x, best, steps, count = _roots(psi.reshaped())
    off = np.abs(x.reshape(-1, 8)[:, [0b011, 0b101, 0b110]]).max(1, initial=0.0)
    keep = off < tol
    if not keep.any():
        raise ConvergenceError(
            "failed to zero the three target amplitudes below tolerance",
            best_residual=float(off.min() if off.size else best),
        )
    ua, ub, uc, x = ua[keep], ub[keep], uc[keep], x[keep]
    r = np.abs(x.reshape(-1, 8)[:, [0b000, 0b100, 0b010, 0b001, 0b111]])
    theta = _theta(x)
    key = np.round(np.column_stack([r[:, [4, 3, 2, 1, 0]], np.abs(theta)]), 9)
    i = np.lexsort(key.T[::-1])[0]
    za, zb, zc = _phase_gauge(x[i], theta[i])
    return AcinCanonicalForm(
        r=r[i], theta=float(theta[i]), local_unitaries=(za @ ua[i], zb @ ub[i], zc @ uc[i]),
        newton_steps=steps, roots=len(set(map(tuple, key.tolist()))), morse_count=count,
    )
