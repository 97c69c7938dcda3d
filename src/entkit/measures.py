"""Optimization-based entanglement measures.

Geometric measure by alternating maximization over product states, the
projector-based multipartite concurrence, Meyer-Wallach global entanglement,
small-scale convex roofs over pure-state ensembles, and a best-effort tensor
rank upper bound.  All optimizers take an explicit seed and are deterministic
for a fixed seed; multi-restart results always report the best value found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from .core import _check_count
from .states import DensityMatrix, PureState, _marginal_spectrum

_GM_DIM_CAP = 1024
_ROOF_DIM_CAP = 16
_RANK_DIM_CAP = 256


@dataclass(frozen=True)
class OptimizationResult:
    """Best value over restarts, the optimizing argument, and bookkeeping."""

    value: float
    argument: object = field(repr=False)
    restarts_used: int
    converged: bool


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
    each sweep is closed form.  Restarts draw fresh random product states; a
    restart counts as converged when the overlap gain per sweep drops below
    ``tol`` before ``max_iterations``.

    Parameters
    ----------
    psi : PureState
        State to analyze; total dimension at most 1024.
    restarts : int
        Number of independent starts, 1 to 1000; the best result is kept.
    tol : float
        Convergence threshold on the overlap improvement.
    seed
        Seed for the restart generator; fixed seed, fixed result.
    """
    if psi.dim > _GM_DIM_CAP:
        raise ValueError(f"total dimension {psi.dim} exceeds cap {_GM_DIM_CAP}")
    restarts = _check_count(restarts, "restarts")
    rng = np.random.default_rng(seed)
    t = psi.reshaped()
    n = psi.n_parties
    best_overlap = -1.0
    best_factors = None
    best_converged = False
    for _ in range(restarts):
        factors = [_random_factor(d, rng) for d in psi.dims]
        last = 0.0
        converged = False
        overlap = 0.0
        for _ in range(max_iterations):
            for k in range(n):
                # optimal factor k is the normalized contraction of the state
                # against the other (conjugated) factors; the new overlap is
                # the contraction norm
                v = _contract_all_but(t, factors, k)
                nv = np.linalg.norm(v)
                if nv < 1e-15:
                    factors[k] = _random_factor(psi.dims[k], rng)
                    continue
                factors[k] = v / nv
                overlap = float(nv)
            if overlap - last < tol:
                converged = True
                break
            last = overlap
        if overlap > best_overlap:
            best_overlap = overlap
            best_factors = [f.copy() for f in factors]
            best_converged = converged
    closest = best_factors[0]
    for f in best_factors[1:]:
        closest = np.kron(closest, f)
    return OptimizationResult(
        value=float(max(0.0, 1.0 - best_overlap**2)),
        argument=PureState.normalized(closest, psi.dims),
        restarts_used=restarts,
        converged=best_converged,
    )


def _contract_all_but(t: np.ndarray, factors, k: int) -> np.ndarray:
    v = np.moveaxis(t, k, -1)
    for j in (x for x in range(len(factors)) if x != k):
        v = np.tensordot(factors[j].conj(), v, axes=(0, 0))
    return v


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
    acting on each doubled local space; weights must be non-negative.
    """
    n = psi.n_parties
    weights = {}
    for pattern, w in p.items():
        pattern = tuple(int(s) for s in pattern)
        if len(pattern) != n or any(s not in (-1, 1) for s in pattern):
            raise ValueError(f"pattern {pattern} is not a +-1 tuple of length {n}")
        if w < 0:
            raise ValueError("weights must be non-negative")
        weights[pattern] = float(w)
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
    imaginary parts above it) from random starts.  The result is an upper
    bound that never increases with more restarts; ``argument`` holds the
    best ensemble as ``(p_i, psi_i)`` pairs.

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
    """
    if rho.dim > _ROOF_DIM_CAP:
        raise ValueError(f"total dimension {rho.dim} exceeds cap {_ROOF_DIM_CAP}")
    restarts = _check_count(restarts, "restarts")
    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > 1e-12
    vals, vecs = vals[keep], vecs[:, keep]
    rank = int(vals.size)
    m = rank if ensemble_size is None else _check_count(
        ensemble_size, "ensemble_size", rank, rho.dim**2
    )
    b = vecs * np.sqrt(vals)  # columns sqrt(p_i)|e_i>, so b @ b^dag = rho
    rng = np.random.default_rng(seed)

    def members(x: np.ndarray) -> list[tuple[float, PureState]]:
        a = x.reshape(m, m)
        h = np.tril(a) + np.tril(a, -1).T + 1j * (np.triu(a, 1) - np.triu(a, 1).T)
        s = b @ expm(1j * h)[:, :rank].conj().T  # d x m, subnormalized member columns
        p = (np.abs(s) ** 2).sum(axis=0)
        return [(float(pj), PureState(v / np.sqrt(pj), rho.dims))
                for pj, v in zip(p, s.T) if pj > 1e-14]

    def cost(x: np.ndarray) -> float:
        return sum(pj * f(psi) for pj, psi in members(x))

    starts = (0.7 * rng.standard_normal(m * m) for _ in range(restarts))
    best = min((minimize(cost, x0, method="L-BFGS-B", options={"maxiter": maxiter})
                for x0 in starts), key=lambda res: res.fun)
    return OptimizationResult(
        value=float(best.fun),
        argument=members(best.x),
        restarts_used=restarts,
        converged=bool(best.success),
    )


def tensor_rank_upper_bound(
    psi: PureState,
    max_rank: int = 6,
    restarts: int = 4,
    seed=None,
    iterations: int = 400,
    residual_tol: float = 1e-6,
    term_norm_cap: float = 100.0,
) -> int:
    """Smallest ``r <= max_rank`` admitting a rank-``r`` product-sum fit.

    Alternating least squares on the factor matrices; a fit counts only if the
    residual drops below ``residual_tol`` while the largest term norm stays
    under ``term_norm_cap`` (diverging terms indicate a border-rank limit
    point, not an exact decomposition).  Returns ``max_rank + 1`` when no
    tested rank fits; the result is an upper bound, never claimed tight.
    """
    if psi.dim > _RANK_DIM_CAP:
        raise ValueError(f"total dimension {psi.dim} exceeds cap {_RANK_DIM_CAP}")
    restarts = _check_count(restarts, "restarts")
    rng = np.random.default_rng(seed)
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
                if residual < residual_tol:
                    break
            term = max(
                prod(float(np.linalg.norm(factors[i][:, j])) for i in range(n))
                for j in range(r)
            )
            if residual < residual_tol and term <= term_norm_cap:
                return r
    return max_rank + 1
