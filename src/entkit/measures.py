"""Optimization-based entanglement measures.

Geometric measure by alternating maximization over product states, the
unextendibility check of a product basis by alternating minimization on the
same contraction kernel, the projector-based multipartite concurrence,
Meyer-Wallach global entanglement, small-scale convex roofs over pure-state
ensembles, and a best-effort tensor rank upper bound.  All optimizers take an
explicit seed and are deterministic for a fixed seed; multi-restart results
always report the best value found.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from math import prod
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import _check_cap, _check_count, _check_same_dims, _check_tol, _rng
from .partitions import as_bipartition
from .schmidt import tangle_pure
from .states import DensityMatrix, PureState, _marginal_spectrum, _require_pure, as_density

_GM_DIM_CAP = 1024
_ROOF_DIM_CAP = 16
_RANK_DIM_CAP = 256
_ITERATIONS_CAP = 10_000
_RANK_RESIDUAL_TOL = 1e-6
_RANK_TERM_NORM_CAP = 100.0
#: Newton finish of :func:`geometric_measure`: the drift of the gain ratio
#: per sweep, relative to ``1 - r``, and the sweeps in a row it must keep
#: within it to count as steady; the gain per sweep below which a restart
#: switches to the finish, once its gain ratio is steady; the most complex
#: chart coordinates it takes; the margin below 0 of the top Hessian
#: eigenvalue of the squared overlap ``F``, relative to ``F``, and the
#: gradient norm of ``F`` at a certified maximum; the fall of the overlap a
#: step may show from rounding; and the distance in value within which
#: restarts agree with a certified best.
_GM_RATIO_DRIFT = 0.05
_GM_STEADY_SWEEPS = 4
_GM_SWITCH = 1e-4
_GM_CHART_CAP = 32
_GM_CURVATURE = 1e-2
_GM_GRADIENT = 1e-10
_GM_ROUNDING = 1e-14
_GM_AGREE = 1e-12
#: L-BFGS of :func:`minimize`: the ``(s, y)`` pairs kept; the line search's
#: sufficient-decrease and curvature constants and its trial points; the
#: stopping rules of L-BFGS-B, a relative fall of ``f`` and a largest gradient
#: entry; and the forward-difference step relative to ``max(1, |x_i|)``.
_LBFGS_PAIRS = 10
_WOLFE_C1 = 1e-3
_WOLFE_C2 = 0.9
_WOLFE_TRIALS = 20
_LBFGS_FTOL = 1e7 * np.finfo(float).eps
_LBFGS_GTOL = 1e-5
_FD_STEP = np.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class OptimizationResult:
    """Best value over restarts, the optimizing argument, and bookkeeping.

    ``converged`` is the flag of the best restart and ``converged_restarts``
    the number of restarts that converged: a roof restart that met a
    stopping rule of L-BFGS-B, a geometric-measure restart certified as a
    local maximum or whose sweep gain fell below ``tol``.  ``evaluations``
    counts the cost evaluations of a roof's restarts together, and the
    iterations (sweeps and Newton steps) of the geometric measure's;
    ``restart_values`` holds the best value each restart reached, in order,
    and ``restart_iterations`` the iterations (L-BFGS iterations of a roof,
    sweeps and Newton steps of the geometric measure) each restart ran.

    Only :func:`geometric_measure` sets the rest; a roof leaves the
    defaults.  ``agreeing_restarts`` counts the restarts whose value agrees
    with the best, the best one included: within 1e-12 of a certified local
    maximum, and within ``2 tol`` of a best restart whose sweep met ``tol``.
    A high count does not show that the global maximum was found: where 16
    restarts on Haar states of 7 and 8 qubits missed it, 3 to 10 of them
    agreed on the value they reached.  More restarts are the remedy; 32
    missed on none of 100 seeds there.  ``gradient_norm`` and
    ``hessian_top_eigenvalue`` are the gradient norm and the top Hessian
    eigenvalue of ``|<product|psi>|^2`` at the argument, on the product of
    spheres; the eigenvalue lies below 0 at an isolated local maximum and
    near 0 along a continuum of maxima, as on W.  Both are ``None`` where
    the measure has no Newton finish.
    """

    value: float
    argument: object = field(repr=False)
    restarts_used: int
    converged: bool
    evaluations: int
    restart_values: tuple[float, ...]
    restart_iterations: tuple[int, ...]
    converged_restarts: int
    agreeing_restarts: int = 0
    gradient_norm: float | None = None
    hessian_top_eigenvalue: float | None = None


def _random_factors(dims, count: int, rng) -> list[np.ndarray]:
    """``count`` random unit vectors for each party, party ``k`` as a
    ``(count, d_k)`` array, from one ``standard_normal`` call.  Row ``i``
    reads the stream as drawing factor after factor of restart after
    restart would: for each party in turn, ``d_k`` real parts, then ``d_k``
    imaginary parts."""
    z = rng.standard_normal((count, 2 * sum(dims)))
    factors, at = [], 0
    for d in dims:
        f = z[:, at:at + d] + 1j * z[:, at + d:at + 2 * d]
        factors.append(f / np.linalg.norm(f, axis=1, keepdims=True))
        at += 2 * d
    return factors


def _reversed(t: np.ndarray) -> np.ndarray:
    """The members ``t`` ``(m, d_0, ..., d_{n-1})`` with their parties in
    reverse order, ``(m, d_{n-1}, ..., d_0)``, the layout of the sweep kernel."""
    return np.ascontiguousarray(t.transpose(0, *range(t.ndim - 1, 0, -1)))


def _right_environments(tr: np.ndarray, conjugated) -> list[np.ndarray]:
    """``R_k``, the members ``tr`` (see :func:`_reversed`) contracted against
    the conjugated factors ``k+1 .. n-1``, ``(r, d_j)`` each: ``(r, m, d_k
    ... d_0)``, one row per restart, as ``(r, m, d_k P_k)`` with ``P_k`` the
    product of ``d_0 .. d_{k-1}``.  ``R_{n-1}`` is ``tr`` itself, one row.
    That is ``n - 1`` batched matrix products, each on the leading party."""
    m = tr.shape[0]
    dims = tr.shape[:0:-1]
    right = [tr.reshape(1, m, -1)]
    for k in range(len(dims) - 1, 0, -1):
        env = right[-1].reshape(len(right[-1]), m, dims[k], -1)
        right.append((conjugated[k][:, None, None, :] @ env).reshape(len(conjugated[k]), m, -1))
    return right[::-1]


def _sweep(tr: np.ndarray, conjugated: list, update) -> None:
    """One alternating sweep over the parties of ``tr`` (see
    :func:`_right_environments`).  For each party ``k`` in turn,
    ``update(k, v)`` gets the contraction ``v`` ``(r, m, d_k)`` of the
    members against every other factor, the new ones before ``k`` and the old
    ones after it, and returns the new conjugated factor ``k``, which replaces
    the old one in ``conjugated``.  The right environments come from the old
    factors once a sweep, and the left product of the new factors, ``(r,
    P_k)`` with the last party's index leading, grows by one broadcast
    product a party, so each contraction is one batched ``(m d_k, P_k) @
    (P_k, 1)`` product."""
    m = tr.shape[0]
    dims = tr.shape[:0:-1]
    r = len(conjugated[0])
    right = _right_environments(tr, conjugated)
    v = right[0]
    if len(v) != r:  # one party: the members themselves
        v = np.broadcast_to(v, (r, m, dims[0]))
    conjugated[0] = left = update(0, v)
    for k in range(1, len(dims)):
        env = right[k]
        v = env.reshape(len(env), m * dims[k], -1) @ left[:, :, None]
        conjugated[k] = c = update(k, v.reshape(r, m, dims[k]))
        if k < len(dims) - 1:
            left = (c[:, :, None] * left[:, None, :]).reshape(r, -1)


def _overlaps(tr: np.ndarray, conjugated) -> np.ndarray:
    """``|<a_0 ... a_{n-1}|psi>|`` for each restart's factors, held
    conjugated, with ``tr`` the state as the one member (see
    :func:`_reversed`)."""
    return np.abs((_right_environments(tr, conjugated)[0][:, 0] * conjugated[0]).sum(1))


def _completion(b: np.ndarray) -> np.ndarray:
    """Unitaries ``[b | P]`` ``(..., d, d)`` whose first column is the unit
    vector ``b`` ``(..., d)`` and whose others, ``P``, are an orthonormal
    basis of its complement: those of the Householder reflection that maps
    ``-e^{i arg b_0} e_0`` to ``b``, in closed form (an SVD per restart and
    party took a third of a Newton step)."""
    v = -b
    v[..., 0] -= np.exp(1j * np.angle(b[..., 0]))
    u = np.eye(b.shape[-1]) - (2.0 / (np.abs(v) ** 2).sum(-1))[..., None, None] * (
        v[..., :, None] * v.conj()[..., None, :])
    u[..., 0] = b
    return u


def _by_dimension(dims, fn, *arrays) -> list:
    """``fn`` applied, for each local dimension, to the stacked per-party
    ``arrays`` of the parties of that dimension, its result split back into
    one entry a party, in party order."""
    out = [None] * len(dims)
    for d in set(dims):
        ks = [k for k, dk in enumerate(dims) if dk == d]
        for k, res in zip(ks, fn(*(np.stack([a[k] for k in ks]) for a in arrays))):
            out[k] = res
    return out


def _chart_index(dims: tuple[int, ...]):
    """Flat indices, into the state's amplitudes, of the entries with one
    index off 0 (``(m,)``, ``m = sum(d_k - 1)``), and of those with two on
    different parties (``(m, m)``; a pair on one party reads entry 0), with
    the mask of one party's pairs."""
    strides = [prod(dims[k + 1:]) for k in range(len(dims))]
    one = np.array([a * s for d, s in zip(dims, strides) for a in range(1, d)], dtype=int)
    party = np.repeat(np.arange(len(dims)), [d - 1 for d in dims])
    same = party[:, None] == party[None, :]
    return one, np.where(same, 0, one[:, None] + one[None, :]), same


def _chart_terms(psi_t: np.ndarray, factors: list):
    """The squared overlap ``F = |<b_0 ... b_{n-1}|psi>|^2`` near the product
    states of ``factors`` ``(r, d_k)``, in the chart
    ``b_k(z) = (b_k + P_k z_k) / sqrt(1 + |z_k|^2)`` with ``[b_k | P_k]`` from
    :func:`_completion` (Absil, Mahony & Sepulchre, *Optimization Algorithms
    on Matrix Manifolds*, 2008, ch. 6).

    One change of basis gives every term: the state contracted with
    ``[b_k | P_k]^dag`` on every party holds the overlap ``a0`` in its all-0
    entry, the gradient amplitudes ``g`` in the entries with one index off 0
    and the Hessian amplitudes ``h`` in those with two on different parties.
    With the phase of ``a0`` divided out, ``s = |a0|`` and ``w = conj(z) =
    x + iy``, to second order
    ``F = s^2 + 2s Re(g.w) + |g.w|^2 + s Re(w^T h w) - s^2 |w|^2``.
    Returns ``s`` ``(r,)``, the half-gradient ``s (Re g, -Im g)`` and
    half-Hessian ``(r, 2m, 2m)`` of ``F`` in ``u = (x, y)``, the gradient
    norm ``2 s |g|`` of ``F``, and the conjugated completions."""
    dims = psi_t.shape
    r = len(factors[0])
    units = _by_dimension(dims, lambda b: _completion(b).conj(), factors)
    x = psi_t.reshape(1, dims[0], -1)
    for k, u in enumerate(units):
        # contract the leading party, which moves to the back
        x = x.transpose(0, 2, 1) @ u
        if k + 1 < len(dims):
            x = x.reshape(r, dims[k + 1], -1)
    x = x.reshape(r, -1)
    one, two, same = _chart_index(dims)
    m = len(one)
    a0 = x[:, 0]
    s = np.abs(a0)
    phase = a0.conj() / np.where(s > 0, s, 1.0)
    g = x[:, one] * phase[:, None]
    h = np.where(same, 0.0, x[:, two]) * (s * phase)[:, None, None]
    grad = np.concatenate([g.real, -g.imag], axis=1)
    ab = np.stack([grad, np.concatenate([g.imag, g.real], axis=1)], axis=2)
    curv = ab @ ab.transpose(0, 2, 1)
    curv[:, :m, :m] += h.real
    curv[:, :m, m:] -= h.imag
    curv[:, m:, :m] -= h.imag
    curv[:, m:, m:] -= h.real
    curv -= (s**2)[:, None, None] * np.eye(2 * m)
    return s, s[:, None] * grad, curv, 2.0 * s * np.linalg.norm(g, axis=1), units


def _chart_step(dims, units: list, u: np.ndarray) -> list:
    """The factors at the chart point ``z = conj(x + iy)``, ``u = (x, y)``
    ``(r, 2m)``, of the conjugated completions ``units`` (see
    :func:`_chart_terms`), each renormalized."""
    m = u.shape[1] // 2
    w = u[:, :m] + 1j * u[:, m:]
    at = np.cumsum([0] + [d - 1 for d in dims])

    def move(unit: np.ndarray, wk: np.ndarray) -> np.ndarray:
        # conj(b + P z) = conj(b) + conj(P) w
        f = unit[..., 0] + (unit[..., 1:] @ wk[..., None])[..., 0]
        return f.conj() / np.linalg.norm(f, axis=-1, keepdims=True)

    return _by_dimension(dims, move, units, [w[:, at[k]:at[k + 1]] for k in range(len(dims))])


def _gm_sweeps(tr, factors, rows, last, iterations, cap, tol, switch, rng):
    """Alternating sweeps of the restarts ``rows``, factor ``k`` of each in
    ``factors[k]`` ``(restarts, d_k)``, from the overlaps ``last`` they stand
    at, until each leaves: its gain per sweep falls below ``tol`` (it met
    ``tol``), or else below ``switch`` with its gain ratio steady (it
    switches to the Newton finish), or its ``iterations`` reach ``cap``.
    Each restart leaves on its own gains, as it would alone.  ``factors``
    and ``iterations`` are updated in place.

    Returns, over ``rows``, the masks of the restarts that met ``tol`` and
    of those that switched."""
    size = len(rows)
    met, switched = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
    # the factors of the live restarts, conjugated once, when they change,
    # and the sweeps each may still run
    live, cur, budget = np.arange(size), [f[rows].conj() for f in factors], cap - iterations[rows]
    gain, ratio, steady = np.zeros(size), np.zeros(size), np.zeros(size, dtype=int)
    last = np.array(last, dtype=float)

    def update(k: int, v: np.ndarray) -> np.ndarray:
        # optimal factor k is the normalized contraction of the state
        # against the other factors; the new overlap is the contraction norm
        nonlocal overlap
        v = v[:, 0]
        nv = np.hypot.reduce(np.abs(v), axis=1)
        if np.minimum.reduce(nv) >= 1e-15:
            overlap = nv
            c = v.conj()
            c /= nv[:, None]
            return c
        # a vanishing contraction keeps the overlap and draws a fresh factor
        zero = nv < 1e-15
        c = v.conj() / np.where(zero, 1.0, nv)[:, None]
        for i in np.flatnonzero(zero):
            c[i] = _random_factors(v.shape[1:], 1, rng)[0][0].conj()
        overlap = np.where(zero, overlap, nv)
        return c

    def retire(out: np.ndarray) -> None:
        nonlocal live, last, cur, budget, gain, ratio, steady
        gone = rows[live[out]]
        for f, c in zip(factors, cur):
            f[gone] = c[out].conj()
        iterations[gone] = cap - budget[out]
        keep = ~out
        live, last, cur, budget = live[keep], last[keep], [c[keep] for c in cur], budget[keep]
        gain, ratio, steady = gain[keep], ratio[keep], steady[keep]

    while live.size:
        if np.minimum.reduce(budget) <= 0:
            retire(budget <= 0)
            continue
        budget -= 1
        overlap = last
        _sweep(tr, cur, update)
        step = overlap - last
        # linear convergence, where the Newton finish pays: the ratio r of
        # each gain to the one before steady in (0, 1)
        r = step / np.where(gain > 0, gain, np.inf)
        steady = (steady + 1) * ((r > 0) & (abs(r - ratio) < _GM_RATIO_DRIFT * (1.0 - r)))
        last, gain, ratio = overlap, step, r
        done = step < tol
        # a restart whose ratio creeps, as on the way past a saddle point,
        # sweeps on
        out = done | ((step < switch) & (steady >= _GM_STEADY_SWEEPS))
        if out.any():
            met[live[done]] = True
            switched[live[out & ~done]] = True
            retire(out)
    return met, switched


def _gm_polish(psi_t, factors, rows, iterations, cap):
    """Guarded Newton steps (see :func:`_chart_terms`) from the factors of the
    restarts ``rows``, each step one iteration toward ``cap``, until each
    leaves: certified once the top Hessian eigenvalue of the squared overlap
    ``F`` lies below ``-_GM_CURVATURE F`` and its gradient norm is at most
    ``_GM_GRADIENT``; back to the sweep when the eigenvalue does not, or a
    step lowered the overlap by more than rounding (the step is then undone);
    or at the cap.  ``factors`` and ``iterations`` are updated in place.

    Returns, over ``rows``: the masks of the certified restarts and of those
    sent back, the overlap each left with, and the gradient norm and top
    Hessian eigenvalue of ``F`` where each left."""
    size = len(rows)
    certified, back = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
    left_at, grad_norm, top_at = np.zeros(size), np.zeros(size), np.zeros(size)
    live, cur = np.arange(size), [f[rows] for f in factors]
    prev, prev_s = cur, np.full(size, -np.inf)
    while live.size:
        s, grad, curv, gn, units = _chart_terms(psi_t, cur)
        iterations[rows[live]] += 1
        fell = s < prev_s - _GM_ROUNDING
        if fell.any():
            # an undone step leaves from the point before it
            cur = [np.where(fell[:, None], p, c) for p, c in zip(prev, cur)]
        top = np.linalg.eigvalsh(curv)[:, -1]
        curved = ~fell & (top < -0.5 * _GM_CURVATURE * s**2)
        sure = curved & (gn <= _GM_GRADIENT)
        go = curved & ~sure & (iterations[rows[live]] < cap)
        out = ~go
        if out.any():
            for f, c in zip(factors, cur):
                f[rows[live[out]]] = c[out]
            left_at[live[out]] = np.where(fell, prev_s, s)[out]
            grad_norm[live[out]], top_at[live[out]] = gn[out], 2.0 * top[out]
            certified[live[sure]], back[live[~curved]] = True, True
        if not go.any():
            break
        u = np.linalg.solve(-curv[go], grad[go][:, :, None])[:, :, 0]
        prev, prev_s = [c[go] for c in cur], s[go]
        cur = _chart_step(psi_t.shape, [w[go] for w in units], u)
        live = live[go]
    return certified, back, left_at, grad_norm, top_at


def geometric_measure(
    psi: PureState,
    restarts: int = 32,
    tol: float = 1e-10,
    seed=None,
    max_iterations: int = 500,
) -> OptimizationResult:
    """Geometric measure ``1 - max |<product|psi>|^2`` of a pure state.

    Alternating maximization: with all factors but one fixed, the optimal
    factor is the normalized contraction of the state against the others, so
    each sweep is closed form.  Restarts draw random product states, all in
    one ``standard_normal`` call, and run together, factor ``k`` of all of
    them held as one ``(restarts, d_k)`` array.  A sweep contracts the state
    once: the right partial contractions against the old factors are built
    at its start, and each party's contraction is then one batched product
    with the left product of the new factors.

    The sweep converges linearly (De Lathauwer, De Moor & Vandewalle, SIAM
    J. Matrix Anal. Appl. 21, 1324 (2000)), so it ends with a Newton finish.
    A restart leaves the sweep once its overlap gain per sweep falls below
    ``tol``, which counts as converged, or else below 1e-4 with a steady
    gain ratio, which makes it a candidate for the finish: the ratio of its
    gain to its gain the sweep before has stayed in (0, 1), moving by at
    most 5% of ``1 - ratio`` a sweep, for 4 sweeps in a row.  A restart
    whose ratio creeps, as on the way past a saddle point, sweeps on.  Each
    restart leaves on its own gains, as it would alone; none is stopped for
    lying below the others, since a restart may pass a saddle point on its
    way to the best value.  Every candidate takes guarded Newton steps on
    the product of spheres, all together (see :func:`_chart_terms`), each
    step one iteration.  A step is kept only if the Hessian of the squared
    overlap ``F`` is negative definite, its top eigenvalue below
    ``-F / 100``, and the step raises the overlap; the restart converges, as
    a certified local maximum, once that holds and the gradient norm of
    ``F`` is at most 1e-10.  A restart whose Hessian fails the test, as near
    a saddle point or on W's continuum of closest product states, or whose
    step lowers the overlap, goes back to sweeping from where it stands,
    until its gain falls below ``tol``; it never restarts.  Where the chart
    has more than 32 complex coordinates (``sum(d_k - 1)``), or none, there
    is no finish and every restart sweeps to ``tol``.

    ``value`` and ``restart_values`` come from each restart's final factors,
    so ``|<argument|psi>|^2 = 1 - value`` to rounding.  ``converged`` is true
    when the best restart is a certified local maximum or met ``tol``.
    ``restart_iterations`` counts each restart's sweeps and Newton steps,
    each one iteration toward ``max_iterations``, and ``evaluations`` their
    sum.  ``agreeing_restarts`` counts the restarts whose value lies within
    1e-12 of the best, the best one included, or within ``2 tol`` where the
    best is not certified, the accuracy of a sweep that met ``tol``;
    ``gradient_norm`` and ``hessian_top_eigenvalue`` are those of
    ``|<product|psi>|^2`` in the chart at the argument (``None`` where there
    is no finish).

    Parameters
    ----------
    psi : PureState
        State to analyze; total dimension at most 1024.
    restarts : int
        Number of independent starts, 1 to 1000; the best result is kept.
    tol : float
        Gain per sweep below which a sweeping restart has converged; finite,
        >= 0.
    seed
        Seed for the restart generator; fixed seed, fixed result.
    max_iterations : int
        Sweeps and Newton steps per restart, 1 to 10,000.
    """
    _require_pure(psi)
    _check_cap(psi.dim, _GM_DIM_CAP, "geometric measure dimension")
    restarts = _check_count(restarts, "restarts")
    max_iterations = _check_count(max_iterations, "max_iterations", hi=_ITERATIONS_CAP)
    _check_tol(tol)
    rng = _rng(seed)
    dims = psi.dims
    factors = _random_factors(dims, restarts, rng)  # factor k as (restarts, d_k)
    tr = _reversed(psi.reshaped()[None])  # the state as the one member of the sweep kernel
    chart = 0 < sum(d - 1 for d in dims) <= _GM_CHART_CAP
    iterations = np.zeros(restarts, dtype=int)
    converged, switched = _gm_sweeps(
        tr, factors, np.arange(restarts), np.zeros(restarts), iterations, max_iterations, tol,
        _GM_SWITCH if chart else -np.inf, rng)
    rows = np.flatnonzero(switched & (iterations < max_iterations))
    certified, back, polished, grad_norm, top = _gm_polish(
        psi.reshaped(), factors, rows, iterations, max_iterations)
    converged[rows[certified]] = True
    if back.any():
        converged[rows[back]] |= _gm_sweeps(
            tr, factors, rows[back], polished[back], iterations, max_iterations, tol, -np.inf,
            rng)[0]
    overlaps = _overlaps(tr, [f.conj() for f in factors])
    best = int(np.argmax(overlaps))
    values = np.maximum(0.0, 1.0 - overlaps**2)
    at = np.flatnonzero(rows[certified] == best)
    # restarts agree to rounding with a certified best, and to the accuracy
    # of the sweep with one that met tol
    agree = _GM_AGREE if at.size else max(_GM_AGREE, 2.0 * tol)
    gradient = curvature = None
    if chart:
        if at.size:  # the last Newton step's terms
            gradient, curvature = grad_norm[certified][at[0]], top[certified][at[0]]
        else:
            _, _, curv, gn, _ = _chart_terms(psi.reshaped(), [f[best:best + 1] for f in factors])
            gradient, curvature = gn[0], 2.0 * np.linalg.eigvalsh(curv[0])[-1]
    closest = functools.reduce(lambda a, b: np.multiply.outer(a, b).ravel(),
                               [f[best] for f in factors])
    return OptimizationResult(
        value=float(values[best]),
        argument=PureState.normalized(closest, psi.dims),
        restarts_used=restarts,
        converged=bool(converged[best]),
        evaluations=int(iterations.sum()),
        restart_values=tuple(float(v) for v in values),
        restart_iterations=tuple(int(k) for k in iterations),
        converged_restarts=int(converged.sum()),
        agreeing_restarts=int((values <= values[best] + agree).sum()),
        gradient_norm=None if gradient is None else float(gradient),
        hessian_top_eigenvalue=None if curvature is None else float(curvature),
    )


def upb_unextendibility_check(
    basis: Sequence[PureState],
    restarts: int = 100,
    tol: float = 1e-6,
    rng=None,
) -> bool:
    """True iff no product vector is orthogonal to every member of ``basis``.

    Alternating minimization of the residual ``sum_v |<v|a,b,c,...>|^2`` over
    product vectors: with all factors but one fixed, the residual is the
    quadratic form ``W W^dag`` in the free factor, ``W`` the contraction of the
    members against the others, so the lowest eigenvector minimizes it.
    Restarts draw random product vectors, all in one ``standard_normal``
    call, and run together on the sweep kernel of :func:`geometric_measure`,
    the members its leading axis, until no residual falls by 1e-14 in a
    sweep, one falls below ``tol * 1e-3``, or 200 sweeps have run.
    The basis is unextendible iff the smallest residual stays at or above
    ``tol``, which must be finite and >= 0.  Qubit systems with at most 3
    parties; ``restarts`` is 1 to 1000.
    """
    if not basis:
        raise ValueError("basis must be non-empty")
    for v in basis:
        _require_pure(v)
        _check_same_dims(basis[0], v)
    dims = basis[0].dims
    if len(dims) > 3 or any(d != 2 for d in dims):
        raise ValueError("supported systems: up to 3 parties of qubits")
    restarts = _check_count(restarts, "restarts")
    _check_tol(tol)
    rng = _rng(rng, "rng")
    # factor k as (restarts, d_k), held conjugated
    conjugated = [f.conj() for f in _random_factors(dims, restarts, rng)]
    tr = _reversed(np.stack([v.reshaped() for v in basis]))
    vals = None

    def update(k: int, v: np.ndarray) -> np.ndarray:
        # v is (restarts, members, d_k); W W^dag sums over the members
        nonlocal vals
        vals, vecs = np.linalg.eigh(v.transpose(0, 2, 1) @ v.conj())
        return vecs[:, :, 0].conj()

    last = np.full(restarts, np.inf)
    for _ in range(200):
        _sweep(tr, conjugated, update)
        residual = vals[:, 0]
        if np.all(last - residual < 1e-14) or residual.min() < tol * 1e-3:
            break
        last = residual
    return bool(residual.min() >= tol)


def meyer_wallach(psi: PureState) -> float:
    """Average single-qubit linear entropy ``(1/n) sum_k 2 (1 - Tr rho_k^2)``."""
    _require_pure(psi)
    if any(d != 2 for d in psi.dims):
        raise ValueError(f"qubit systems only, got dims {psi.dims}")
    n = psi.n_parties
    purities = [(_marginal_spectrum(psi, [k]) ** 2).sum() for k in range(n)]
    return float(sum(2.0 * (1.0 - p) for p in purities) / n)


def multipartite_concurrence(
    psi: PureState, p: Mapping[Sequence[int], float]
) -> float:
    """Projector-based multipartite concurrence ``2 sqrt(<psi (x) psi| A |psi (x) psi>)``.

    ``A`` is the weighted sum, over sign patterns ``s in {-1,+1}^N``, of
    tensor products of symmetric (``+1``) / antisymmetric (``-1``) projectors
    acting on each doubled local space; every sign must be exactly -1 or +1
    and every weight finite and non-negative.

    ``(x)_k (1 + s_k SWAP_k) / 2 = 2^-N sum_T (prod_{k in T} s_k) SWAP_T``, and
    ``<psi psi| SWAP_T |psi psi> = 1 - L_T``, the linear entropy on ``T``,
    ``2 sum_{i<j} lam_i lam_j``: summed from its least terms, it is 0 on a product cut.
    """
    _require_pure(psi)
    if not isinstance(p, Mapping):
        raise ValueError(f"p must map sign patterns to weights, got {type(p).__name__}")
    n = psi.n_parties
    live = [k for k in range(n) if psi.dims[k] > 1]
    m = len(live)
    c = np.zeros((2,) * m)  # axis j: the sign on party live[j], 0 for +1 and 1 for -1
    for pattern, w in p.items():
        pattern = tuple(pattern)
        if len(pattern) != n or any(s not in (-1, 1) for s in pattern):
            raise ValueError(f"pattern {pattern} is not a +-1 tuple of length {n}")
        _check_tol(w, "weight")
        # psi (x) psi is even under the swap of all parties, which is prod_k s_k
        # where a pattern projects, so an odd pattern adds 0; SWAP is 1 on a
        # one-level party, where only +1 adds anything.  A repeated pattern:
        # the last one wins.
        if prod(pattern) == 1 and all(pattern[k] == 1 or k in live for k in range(n)):
            c[tuple((1 - int(pattern[k])) // 2 for k in live)] = w
    # sum_T c[T] = 2^N w_{+...+} times (Tr rho_T)^2 = |psi|^4, the rest of 1 - L_T
    total = float(np.vdot(psi.amplitudes, psi.amplitudes).real) ** 2 * c[(0,) * m]
    for j in range(m):  # Walsh-Hadamard transform: c[T] = sum_s w_s prod_{k in T} s_k
        c = np.moveaxis(np.tensordot([[1.0, 1.0], [1.0, -1.0]], c, axes=(1, j)), 0, j)
    for t, ct in np.ndenumerate(c):
        block = [k for k, bit in zip(live, t) if bit]
        if ct != 0.0 and 0 < len(block) < m:  # L is 0 on no party and on all
            lam = _marginal_spectrum(psi, block)
            total -= ct * 2.0 * (lam[:-1] @ np.cumsum(lam[::-1])[-2::-1]) / 2**m
    return float(2.0 * np.sqrt(max(0.0, total)))


def _generator(x: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The Hermitian ``m x m`` matrix whose diagonal, real parts below it and
    imaginary parts above it are the ``m^2`` real coordinates ``x``.

    ``low`` is the boolean mask below the diagonal, ``np.tri(m, k=-1,
    dtype=bool)``, built once per roof; the sums are those of ``np.tril`` and
    ``np.triu``, term for term, which build a mask on every call."""
    a = x.reshape(low.shape)
    upper = np.where(low.T, a, 0.0)
    return np.where(low.T, 0.0, a) + np.where(low, a, 0.0).T + 1j * (upper - upper.T)


def expm(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``U = exp(ih)`` of a Hermitian ``h``, with the eigenvalues ``lam`` and
    eigenvectors ``v`` of ``h`` it is built from: ``U = v diag(exp(i lam)) v^dag``."""
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(1j * lam)) @ v.conj().T, lam, v


class Minimum(NamedTuple):
    """Where :func:`minimize` stopped: the point, its cost, the iterations and
    cost evaluations it took, and whether a stopping rule (not the iteration
    cap or a failed line search) ended it."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """``-H g`` by the two-loop recursion over the ``(s, y, y.s)`` pairs, the
    oldest first, with ``H_0 = (y.s / y.y) I`` from the newest pair."""
    q = -g
    alphas = []
    for s, y, ys in reversed(pairs):
        alphas.append(s @ q / ys)
        q = q - alphas[-1] * y
    if pairs:
        _, y, ys = pairs[-1]
        q = q * (ys / (y @ y))
    for (s, y, ys), a in zip(pairs, reversed(alphas)):
        q = q + (a - y @ q / ys) * s
    return q


def _cubic_trial(a: float, fa: float, ga: float, b: float, fb: float, gb: float) -> float:
    """The minimizer of the cubic with the values ``fa``, ``fb`` and slopes
    ``ga``, ``gb`` at the ends ``a < b`` of a bracket (Nocedal & Wright,
    *Numerical Optimization*, 2nd ed., eq. 3.59), clamped to the middle 80% of
    the bracket; its midpoint where the cubic has no minimizer."""
    d1 = ga + gb - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - ga * gb
    if disc >= 0.0:
        d2 = disc**0.5
        denom = gb - ga + 2.0 * d2
        if denom != 0.0:
            t = b - (b - a) * (gb + d2 - d1) / denom
            return min(max(t, a + 0.1 * (b - a)), b - 0.1 * (b - a))
    return 0.5 * (a + b)


def _wolfe_step(evaluate, x: np.ndarray, f0: float, d: np.ndarray, dg0: float, t: float):
    """A step ``t`` along the descent direction ``d`` that meets the strong
    Wolfe conditions, as ``(x + t d, f, g)``, or ``None`` when none of the
    trial points does.  The trial step doubles until it brackets such a
    step; inside the bracket each trial is the safeguarded cubic step of
    :func:`_cubic_trial` (Moré & Thuente, ACM Trans. Math. Softw. 20, 286
    (1994))."""
    lo, f_lo, dg_lo, hi, f_hi, dg_hi = 0.0, f0, float(dg0), np.inf, 0.0, 0.0
    for _ in range(_WOLFE_TRIALS):
        xt = x + t * d
        f, g = evaluate(xt)
        dg = float(g @ d)
        decrease = f <= f0 + _WOLFE_C1 * t * dg0 and f < f_lo
        if decrease and abs(dg) <= -_WOLFE_C2 * dg0:
            return xt, f, g
        if decrease and dg < 0:
            lo, f_lo, dg_lo = t, f, dg
        else:
            hi, f_hi, dg_hi = t, f, dg
        t = 2.0 * t if hi == np.inf else _cubic_trial(lo, f_lo, dg_lo, hi, f_hi, dg_hi)
    return None


def minimize(fun: Callable, x0: np.ndarray, *, jac: bool, maxiter: int) -> Minimum:
    """Minimize ``fun`` from ``x0`` by L-BFGS (Liu & Nocedal, Math. Program.
    45, 503 (1989)).

    ``fun(x)`` returns the cost and its gradient when ``jac`` is true, and the
    cost alone otherwise; the gradient is then taken by forward differences,
    with the step ``sqrt(eps) max(1, |x_i|)``, and ``nfev`` counts every cost
    call.  The search direction comes from the last 10 ``(s, y)`` pairs with
    ``y.s > 0``.  The line search (:func:`_wolfe_step`) takes at most 20
    trial points, the first at ``min(1, 1/|g|)`` on the first iteration and
    at 1 after it.  When it finds no step, the pairs are dropped and the
    iteration is retried along ``-g``; a second failure ends the run, not
    converged.  The stopping rules are those of L-BFGS-B (Byrd, Lu, Nocedal
    & Zhu, SIAM J. Sci. Comput. 16, 1190 (1995)): converged once no
    gradient entry exceeds 1e-5 or an iteration lowers ``f`` by at most
    ``1e7 eps max(|f|, 1)``, and not converged after ``maxiter`` iterations,
    a rule checked first.
    """
    nfev = 0

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal nfev
        if jac:
            nfev += 1
            f, g = fun(x)
            return float(f), g
        f = float(fun(x))
        h = _FD_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
        h = (x + h) - x  # the step as represented
        g = np.empty_like(x)
        for i in range(x.size):
            xi = x.copy()
            xi[i] += h[i]
            g[i] = (fun(xi) - f) / h[i]
        nfev += 1 + x.size
        return f, g

    x = np.array(x0, dtype=float)
    f, g = evaluate(x)
    pairs: deque = deque(maxlen=_LBFGS_PAIRS)
    nit = 0
    if np.abs(g).max() <= _LBFGS_GTOL:
        return Minimum(x, f, nit, nfev, True)
    while True:
        d = _lbfgs_direction(g, pairs)
        dg = d @ g
        t = min(1.0, 1.0 / np.linalg.norm(g)) if nit == 0 else 1.0
        step = _wolfe_step(evaluate, x, f, d, dg, t) if dg < 0 else None
        if step is None:
            if not pairs:
                return Minimum(x, f, nit, nfev, False)
            pairs.clear()
            continue
        nit += 1
        x_new, f_new, g_new = step
        s, y = x_new - x, g_new - g
        ys = y @ s
        if ys > 0:
            pairs.append((s, y, ys))
        fall, scale = f - f_new, max(abs(f), abs(f_new), 1.0)
        x, f, g = step
        if nit >= maxiter:
            return Minimum(x, f, nit, nfev, False)
        if np.abs(g).max() <= _LBFGS_GTOL or fall <= _LBFGS_FTOL * scale:
            return Minimum(x, f, nit, nfev, True)


def _members(u: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights ``p`` ``(m,)`` and subnormalized member columns
    ``S = b u[:, :r]^dag`` ``(d, m)`` of the ensemble that the unitary ``u``
    mixes from the ``r`` columns of ``b``."""
    s = b @ u[:, : b.shape[1]].conj().T
    return (np.abs(s) ** 2).sum(axis=0), s


def _tangle_terms(g: np.ndarray) -> tuple[float, np.ndarray]:
    """Weighted tangle ``sum_j p_j tau(g_j / sqrt(p_j))`` of a batch of
    unnormalized cut matrices ``g`` ``(m, dA, dB)`` with ``p_j = |g_j|^2``,
    and its gradient with respect to ``conj(g)``.

    With ``rho_j = g_j g_j^dag``, ``P_j = tr rho_j^2`` and ``k = d/(d-1)``
    the value is ``k sum_j (p_j - P_j/p_j)`` and the gradient is
    ``k (g_j - 2 rho_j g_j / p_j + P_j g_j / p_j^2)``; members with
    ``p_j <= 1e-14`` add nothing to either.
    """
    d = min(g.shape[1:])
    grad = np.zeros_like(g)
    if d < 2:
        return 0.0, grad
    p = (np.abs(g) ** 2).sum(axis=(1, 2))
    keep = p > 1e-14
    g, p = g[keep], p[keep, None, None]
    rho = g @ g.conj().transpose(0, 2, 1)
    big_p = (np.abs(rho) ** 2).sum(axis=(1, 2))[:, None, None]
    k = d / (d - 1)
    grad[keep] = k * (g - 2.0 * (rho @ g) / p + big_p * g / p**2)
    return k * float((p - big_p / p).sum()), grad


def _tangle_roof(x: np.ndarray, b: np.ndarray, dims, low: np.ndarray) -> tuple[float, np.ndarray]:
    """Roof cost ``sum_j p_j tangle_pure(psi_j)`` at the generator coordinates
    ``x``, and its gradient in ``x``; ``low`` is the mask of :func:`_generator`.

    One ``eigh`` per step, ``H = V diag(lam) V^dag``, gives both
    ``U = exp(iH)`` and the gradient.  The member gradient ``dS`` maps back
    through ``S = b U[:, :r]^dag`` to ``G_U = [(b^dag dS)^dag, 0]``.  The
    adjoint of the Frechet derivative ``L(iH, .)`` is ``L(-iH, .)`` (Al-Mohy &
    Higham 2009), and by the Daleckii-Krein formula (Higham, *Functions of
    Matrices*, Thm 3.11) ``Z = L(-iH, G_U) = V (Gamma o (V^dag G_U V)) V^dag``
    with the divided differences of ``exp`` at ``-i lam``:
    ``Gamma_kl = exp(-i(lam_k + lam_l)/2) sinc((lam_k - lam_l)/2pi)``, a form
    that does not cancel when eigenvalues are close or equal.
    ``q = 2i conj(Z)`` holds the gradient in ``H``: the real parts of
    ``q_kk`` on the diagonal, of ``q_kl + q_lk`` below it and of ``i(q_kl -
    q_lk)``, that is ``Im(q_lk - q_kl)``, above it.
    """
    m = len(low)
    u, lam, v = expm(_generator(x, low))
    _, s = _members(u, b)
    value, ds = _tangle_terms(s.T.reshape(m, *dims))
    w = b.conj().T @ ds.reshape(m, -1).T
    # V^dag G_U V, G_U being zero beyond its first r columns
    a = v.conj().T @ (w.conj().T @ v[: b.shape[1]])
    phase = np.exp(-0.5j * lam)
    gamma = np.outer(phase, phase) * np.sinc((lam[:, None] - lam[None, :]) / (2 * np.pi))
    z = v @ (gamma * a) @ v.conj().T
    q = 2j * z.conj()
    grad = np.where(low, (q + q.T).real, np.where(low.T, (q.T - q).imag, q.real))
    return value, grad.ravel()


def convex_roof(
    rho: DensityMatrix | PureState,
    f: Callable[[PureState], float],
    ensemble_size: int | None = None,
    restarts: int = 8,
    seed=None,
    maxiter: int = 400,
) -> OptimizationResult:
    """Convex-roof extension ``inf sum_i p_i f(psi_i)`` over ensembles of ``rho``.

    Every size-``m`` decomposition of ``rho`` arises from an ``m x r`` isometry
    mixing the eigen-ensemble (``r`` the rank): the first ``r`` columns of
    ``expm(iH)``.  L-BFGS (:func:`minimize`) optimizes the ``m^2`` real
    coordinates of the Hermitian generator ``H`` (its diagonal, the real
    parts below it and the imaginary parts above it) from random starts.
    When ``f`` is :func:`~entkit.schmidt.tangle_pure` (on a 2-party ``rho``)
    the cost comes with its analytic gradient: one ``eigh`` of ``H`` per step
    gives the isometry and the adjoint of its derivative, around one batched
    tangle kernel over the members.  Any other callable is evaluated on each
    member, built from the same ``eigh``, as a :class:`PureState` and
    differentiated by forward differences.  The result is an upper bound
    that never increases with more restarts; ``argument`` holds the best
    ensemble as ``(p_i, psi_i)`` pairs, ``evaluations`` the cost evaluations
    of all restarts, finite-difference ones included, ``restart_values`` the
    value each restart reached and ``restart_iterations`` the L-BFGS
    iterations each restart took.

    Parameters
    ----------
    rho : DensityMatrix or PureState
        State, total dimension at most 16; a pure state enters as its
        projector.
    f : callable
        Pure-state functional being extended.
    ensemble_size : int, optional
        Number of ensemble members ``m``; defaults to the rank, and must lie
        between the rank and ``rho.dim ** 2``, the most an optimal decomposition
        needs (Uhlmann 1998).
    restarts : int
        Number of independent starts, 1 to 1000; the best result is kept.
    maxiter : int
        L-BFGS iterations per restart, 1 to 10,000.
    """
    rho = as_density(rho)
    _check_cap(rho.dim, _ROOF_DIM_CAP, "convex roof dimension")
    restarts = _check_count(restarts, "restarts")
    maxiter = _check_count(maxiter, "maxiter", hi=_ITERATIONS_CAP)
    analytic = f is tangle_pure
    if analytic:
        as_bipartition(None, len(rho.dims))  # the error tangle_pure would raise
    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > 1e-12
    vals, vecs = vals[keep], vecs[:, keep]
    rank = int(vals.size)
    m = rank if ensemble_size is None else _check_count(
        ensemble_size, "ensemble_size", rank, rho.dim**2
    )
    b = vecs * np.sqrt(vals)  # columns sqrt(p_i)|e_i>, so b @ b^dag = rho
    low = np.tri(m, k=-1, dtype=bool)
    rng = _rng(seed)

    def ensemble(x: np.ndarray) -> list[tuple[float, PureState]]:
        p, s = _members(expm(_generator(x, low))[0], b)
        return [(float(pj), PureState(v / np.sqrt(pj), rho.dims))
                for pj, v in zip(p, s.T) if pj > 1e-14]

    if analytic:
        def cost(x: np.ndarray) -> tuple[float, np.ndarray]:
            return _tangle_roof(x, b, rho.dims, low)
    else:
        def cost(x: np.ndarray) -> float:
            return sum(pj * f(psi) for pj, psi in ensemble(x))

    starts = (0.7 * rng.standard_normal(m * m) for _ in range(restarts))
    runs = [minimize(cost, x0, jac=analytic, maxiter=maxiter) for x0 in starts]
    best = min(runs, key=lambda res: res.fun)
    return OptimizationResult(
        value=float(best.fun),
        argument=ensemble(best.x),
        restarts_used=restarts,
        converged=bool(best.success),
        evaluations=sum(int(res.nfev) for res in runs),
        restart_values=tuple(float(res.fun) for res in runs),
        restart_iterations=tuple(int(res.nit) for res in runs),
        converged_restarts=sum(bool(res.success) for res in runs),
    )


def tensor_rank_upper_bound(
    psi: PureState,
    max_rank: int = 6,
    restarts: int = 4,
    seed=None,
    iterations: int = 400,
) -> int:
    """Smallest ``r <= max_rank`` admitting a rank-``r`` product-sum fit.

    Alternating least squares on the factor matrices; a fit counts only if the
    residual drops below 1e-6 while the largest term norm stays at most 100
    (diverging terms indicate a border-rank limit point, not an exact
    decomposition).  Returns ``max_rank + 1`` when no tested rank fits; the
    result is an upper bound, never claimed tight.  A one-party state has
    tensor rank 1.  ``max_rank`` must be 1 to 256, the dimension cap, which no
    tensor under the cap exceeds in rank; ``iterations``, the sweeps per
    restart, must be 1 to 10,000.
    """
    _require_pure(psi)
    _check_cap(psi.dim, _RANK_DIM_CAP, "tensor rank dimension")
    max_rank = _check_count(max_rank, "max_rank", hi=_RANK_DIM_CAP)
    restarts = _check_count(restarts, "restarts")
    iterations = _check_count(iterations, "iterations", hi=_ITERATIONS_CAP)
    if psi.n_parties == 1:
        return 1
    rng = _rng(seed)
    t = psi.reshaped()
    dims = psi.dims
    n = len(dims)
    for r in range(1, max_rank + 1):
        for _ in range(restarts):
            factors = [
                rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
                for d in dims
            ]
            for _ in range(iterations):
                for k in range(n):
                    others = [factors[j] for j in range(n) if j != k]
                    kr = others[0]
                    for fmat in others[1:]:
                        kr = (kr[:, None, :] * fmat[None, :, :]).reshape(-1, r)
                    tk = np.moveaxis(t, k, 0).reshape(dims[k], -1)
                    sol, *_ = np.linalg.lstsq(kr, tk.T, rcond=None)
                    factors[k] = sol.T
                # the last fit reconstructs the whole tensor
                residual = float(np.linalg.norm(kr @ sol - tk.T))
                if residual < _RANK_RESIDUAL_TOL:
                    break
            term = max(
                prod(float(np.linalg.norm(factors[i][:, j])) for i in range(n))
                for j in range(r)
            )
            if residual < _RANK_RESIDUAL_TOL and term <= _RANK_TERM_NORM_CAP:
                return r
    return max_rank + 1
