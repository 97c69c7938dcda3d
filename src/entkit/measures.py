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

from dataclasses import dataclass, field
from math import prod
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import _check_cap, _check_count, _check_same_dims, _check_tol, _rng
from .partitions import as_bipartition
from .schmidt import tangle_pure
from .states import DensityMatrix, PureState, _marginal_spectrum, _require_pure

_GM_DIM_CAP = 1024
_ROOF_DIM_CAP = 16
_RANK_DIM_CAP = 256
_ITERATIONS_CAP = 10_000
_RANK_RESIDUAL_TOL = 1e-6
_RANK_TERM_NORM_CAP = 100.0
#: Restart triage of :func:`geometric_measure`: the drift of the gain ratio
#: allowed per sweep, relative to ``1 - r``; the sweeps it must stay steady;
#: the factor on the Aitken gain to go; and the margin on the overlap.
_GM_RATIO_DRIFT = 0.05
_GM_STEADY_SWEEPS = 4
_GM_AITKEN_SAFETY = 10.0
_GM_MARGIN = 1e-6


@dataclass(frozen=True)
class OptimizationResult:
    """Best value over restarts, the optimizing argument, and bookkeeping.

    ``converged`` is the flag of the best restart and ``converged_restarts``
    the number of restarts that converged; ``evaluations`` counts the cost
    evaluations (or sweeps) of all restarts together, ``restart_values``
    holds the best value each restart reached, in order, and
    ``restart_iterations`` the iterations (or sweeps) each restart ran.
    ``stopped_restarts`` counts the restarts :func:`geometric_measure` stopped
    because they could not win; each counts as not converged, and its value
    and sweeps are those it had reached when it stopped.  Always 0 for
    :func:`convex_roof`.
    """

    value: float
    argument: object = field(repr=False)
    restarts_used: int
    converged: bool
    evaluations: int
    restart_values: tuple[float, ...]
    restart_iterations: tuple[int, ...]
    converged_restarts: int
    stopped_restarts: int = 0


def _random_factor(d: int, rng) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


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
    each sweep is closed form.  Restarts draw fresh random product states and
    run together, factor ``k`` of all of them held as one ``(restarts, d_k)``
    array; each restart stops on its own, and counts as converged, when its
    overlap gain per sweep drops below ``tol`` before ``max_iterations``.

    A restart that cannot win stops early.  Alternating maximization
    converges linearly (De Lathauwer, De Moor & Vandewalle, SIAM J. Matrix
    Anal. Appl. 21, 1324 (2000)), so once the ratio ``r`` of a restart's gain
    ``g`` to its gain the sweep before is steady, its overlap ``o`` tends to
    the Aitken limit ``o + g r / (1 - r)``.  A restart stops when ``r`` has
    stayed in (0, 1), moving by at most 5% of ``1 - r`` a sweep, for 4 sweeps
    in a row, and ``o + 10 g r / (1 - r)`` lies more than 1e-6 below the
    best overlap a converged restart has reached.  A ratio that creeps
    toward 1, as on the way past a saddle point, is not steady.  A stopped
    restart's overlap lies below a converged one, so the best restart is
    never stopped; a stopped restart keeps the overlap, factors and sweeps it
    had, counts as not converged and is counted in ``stopped_restarts``.

    ``evaluations`` counts the sweeps of all restarts, ``restart_iterations``
    those of each restart and ``restart_values`` the measure each restart
    reached.

    Parameters
    ----------
    psi : PureState
        State to analyze; total dimension at most 1024.
    restarts : int
        Number of independent starts, 1 to 1000; the best result is kept.
    tol : float
        Convergence threshold on the overlap improvement; finite, >= 0.
    seed
        Seed for the restart generator; fixed seed, fixed result.
    max_iterations : int
        Sweeps per restart, 1 to 10,000.
    """
    _require_pure(psi)
    _check_cap(psi.dim, _GM_DIM_CAP, "geometric measure dimension")
    restarts = _check_count(restarts, "restarts")
    max_iterations = _check_count(max_iterations, "max_iterations", hi=_ITERATIONS_CAP)
    _check_tol(tol)
    rng = _rng(seed)
    starts = [[_random_factor(d, rng) for d in psi.dims] for _ in range(restarts)]
    factors = [np.array(f) for f in zip(*starts)]  # factor k as (restarts, d_k)
    t = psi.reshaped()
    moved = [np.ascontiguousarray(np.moveaxis(t, k, -1)) for k in range(t.ndim)]  # party k last
    overlaps = np.zeros(restarts)
    converged = np.zeros(restarts, dtype=bool)
    # the factors of the live restarts, conjugated once, when they change
    live, last, cur = np.arange(restarts), np.zeros(restarts), [f.conj() for f in factors]
    # per live restart: last gain, last gain ratio, sweeps of steady ratio;
    # the best overlap a converged restart has reached, and restarts stopped
    gain, ratio, steady = np.zeros(restarts), np.zeros(restarts), np.zeros(restarts, dtype=int)
    reached, stopped = -np.inf, 0
    sweeps = np.zeros(restarts, dtype=int)
    for _ in range(max_iterations):
        sweeps[live] += 1
        overlap = last
        for k, d in enumerate(psi.dims):
            # optimal factor k is the normalized contraction of the state
            # against the other (conjugated) factors; the new overlap is
            # the contraction norm
            v = _contract_all_but(moved[k], cur, k)
            nv = np.linalg.norm(v, axis=1)
            zero = nv < 1e-15
            if not zero.any():
                cur[k], overlap = (v / nv[:, None]).conj(), nv
                continue
            # a vanishing contraction keeps the overlap and draws a fresh factor
            cur[k] = (v / np.where(zero, 1.0, nv)[:, None]).conj()
            for i in np.flatnonzero(zero):
                cur[k][i] = _random_factor(d, rng).conj()
            overlap = np.where(zero, overlap, nv)
        step = overlap - last
        done = step < tol
        if done.any():
            reached = max(reached, overlap[done].max())
        # linear convergence: a steady gain ratio r puts the limit near the
        # Aitken value overlap + step r / (1 - r)
        r = step / np.where(gain > 0, gain, np.inf)
        steady = np.where((r > 0) & (r < 1) & (abs(r - ratio) <= _GM_RATIO_DRIFT * (1.0 - r)),
                          steady + 1, 0)
        stop = (steady >= _GM_STEADY_SWEEPS) & ~done
        if stop.any():
            limit = overlap + _GM_AITKEN_SAFETY * step * r / (1.0 - r)
            stop &= limit < reached - _GM_MARGIN
            stopped += int(stop.sum())
        retire = done | stop
        if retire.any():
            retired = live[retire]
            converged[live[done]] = True
            overlaps[retired] = overlap[retire]
            for f, c in zip(factors, cur):
                f[retired] = c[retire].conj()
            keep = ~retire
            live, overlap, cur = live[keep], overlap[keep], [c[keep] for c in cur]
            step, r, steady = step[keep], r[keep], steady[keep]
        last, gain, ratio = overlap, step, r
        if not live.size:
            break
    # restarts still live at the sweep cap
    overlaps[live] = last
    for f, c in zip(factors, cur):
        f[live] = c.conj()
    best = int(np.argmax(overlaps))
    closest = factors[0][best]
    for f in factors[1:]:
        closest = np.kron(closest, f[best])
    return OptimizationResult(
        value=float(max(0.0, 1.0 - overlaps[best] ** 2)),
        argument=PureState.normalized(closest, psi.dims),
        restarts_used=restarts,
        converged=bool(converged[best]),
        evaluations=int(sweeps.sum()),
        restart_values=tuple(float(max(0.0, 1.0 - v**2)) for v in overlaps),
        restart_iterations=tuple(int(k) for k in sweeps),
        converged_restarts=int(converged.sum()),
        stopped_restarts=stopped,
    )


def _contract_all_but(tk: np.ndarray, conjugated, k: int) -> np.ndarray:
    """Contract ``tk`` (the other parties in order, then party ``k``, then any
    trailing axes) against the other factors, ``(r, d_j)`` each, one row per
    restart: ``(r, d_k * trailing)``, ``(r, d_k)`` with none.  The factors
    come in ``conjugated`` already, so a caller conjugates each factor once,
    when it changes, not once per contraction."""
    r = len(conjugated[k])
    others = [j for j in range(len(conjugated)) if j != k]
    if not others:
        return np.broadcast_to(tk.ravel(), (r, tk.size))
    v = conjugated[others[0]] @ tk.reshape(tk.shape[0], -1)
    for j in others[1:]:
        f = conjugated[j][:, None, :]
        v = (f @ v.reshape(r, f.shape[2], -1)).reshape(r, -1)
    return v


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
    Restarts draw random product vectors and run together, factor ``k`` of all
    of them held as one ``(restarts, d_k)`` array, until no residual falls by
    1e-14 in a sweep, one falls below ``tol * 1e-3``, or 200 sweeps have run.
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
    starts = [[_random_factor(d, rng) for d in dims] for _ in range(restarts)]
    # factor k as (restarts, d_k), held conjugated
    conjugated = [np.array(f).conj() for f in zip(*starts)]
    t = np.stack([v.reshaped() for v in basis], axis=-1)  # members last
    moved = [np.ascontiguousarray(np.moveaxis(t, k, -2)) for k in range(len(dims))]
    last = np.full(restarts, np.inf)
    for _ in range(200):
        for k, d in enumerate(dims):
            w = _contract_all_but(moved[k], conjugated, k).reshape(restarts, d, -1)
            vals, vecs = np.linalg.eigh(w @ w.conj().transpose(0, 2, 1))
            conjugated[k] = vecs[:, :, 0].conj()
        residual = vals[:, 0]
        if np.all(last - residual < 1e-14) or residual.min() < tol * 1e-3:
            break
        last = residual
    return bool(residual.min() >= tol)


def meyer_wallach(psi: PureState) -> float:
    """Average single-qubit linear entropy ``(1/n) sum_k 2 (1 - Tr rho_k^2)``."""
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
    """
    _require_pure(psi)
    n = psi.n_parties
    weights = {}
    for pattern, w in p.items():
        pattern = tuple(pattern)
        if len(pattern) != n or any(s not in (-1, 1) for s in pattern):
            raise ValueError(f"pattern {pattern} is not a +-1 tuple of length {n}")
        _check_tol(w, "weight")
        weights[tuple(int(s) for s in pattern)] = float(w)
    doubled = np.tensordot(psi.reshaped(), psi.reshaped(), axes=0)
    # axes: parties 0..n-1 of the first copy, then of the second copy
    total = 0.0
    for pattern, w in weights.items():
        if w == 0.0:
            continue
        x = doubled
        for k, s in enumerate(pattern):
            x = (x + s * np.swapaxes(x, k, n + k)) / 2.0
        total += w * float(np.vdot(doubled, x).real)
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


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call so that
    importing entkit does not load scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


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
    rho: DensityMatrix,
    f: Callable[[PureState], float],
    ensemble_size: int | None = None,
    restarts: int = 8,
    seed=None,
    maxiter: int = 400,
) -> OptimizationResult:
    """Convex-roof extension ``inf sum_i p_i f(psi_i)`` over ensembles of ``rho``.

    Every size-``m`` decomposition of ``rho`` arises from an ``m x r`` isometry
    mixing the eigen-ensemble (``r`` the rank): the first ``r`` columns of
    ``expm(iH)``.  L-BFGS-B optimizes the ``m^2`` real coordinates of the
    Hermitian generator ``H`` (its diagonal, the real parts below it and the
    imaginary parts above it) from random starts.  When ``f`` is
    :func:`~entkit.schmidt.tangle_pure` (on a 2-party ``rho``) the cost comes
    with its analytic gradient: one ``eigh`` of ``H`` per step gives the
    isometry and the adjoint of its derivative, around one batched tangle
    kernel over the members.  Any other callable is evaluated on each member,
    built from the same ``eigh``, as a :class:`PureState` and differentiated
    by finite differences.  ``scipy.optimize`` is imported on the first call.
    The result is an upper bound that never increases with more restarts;
    ``argument`` holds the best ensemble as ``(p_i, psi_i)`` pairs,
    ``evaluations`` the cost evaluations of all restarts, ``restart_values``
    the value each restart reached and ``restart_iterations`` the L-BFGS-B
    iterations each restart took.

    Parameters
    ----------
    rho : DensityMatrix
        Mixed state, total dimension at most 16.
    f : callable
        Pure-state functional being extended.
    ensemble_size : int, optional
        Number of ensemble members ``m``; defaults to the rank, and must lie
        between the rank and ``rho.dim ** 2``, the most an optimal decomposition
        needs (Uhlmann 1998).
    restarts : int
        Number of independent starts, 1 to 1000; the best result is kept.
    maxiter : int
        L-BFGS-B iterations per restart, 1 to 10,000.
    """
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
    runs = [minimize(cost, x0, jac=analytic, method="L-BFGS-B",
                     options={"maxiter": maxiter}) for x0 in starts]
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
