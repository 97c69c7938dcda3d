"""Bipartite structure of pure states: Schmidt data, tangle, majorization, catalysis.

A bipartition is a two-block :class:`~entkit.partitions.Partition` (or any
pair of index sets); the Schmidt decomposition refers to the state with its
parties reordered as (left block, right block).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Sequence

import numpy as np

from .partitions import Partition, as_bipartition
from .states import PureState, _cut_matrix, shannon_entropy

RANK_TOL = 1e-10
_MAJ_SLACK = 1e-12


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt vector (non-increasing) and the two local basis-change unitaries.

    With ``U = left_unitary`` and ``V = right_unitary``, the reordered state
    equals ``(U (x) V^dag) sum_i sqrt(lambda_i) |ii>`` up to global phase.
    """

    lam: np.ndarray
    left_unitary: np.ndarray = field(repr=False)
    right_unitary: np.ndarray = field(repr=False)
    bipartition: Partition


def schmidt(psi: PureState, bipartition=None) -> SchmidtData:
    """Schmidt decomposition across a bipartition via SVD of the coefficient matrix."""
    part = as_bipartition(bipartition, psi.n_parties)
    g = _cut_matrix(psi, part.blocks[0])
    u, s, vh = np.linalg.svd(g, full_matrices=True)
    # with V = conj(vh), the SVD g = u diag(s) vh matches (U (x) V^dag) sum sqrt(l)|ii>
    return SchmidtData(
        lam=(s**2).copy(),
        left_unitary=u,
        right_unitary=vh.conj(),
        bipartition=part,
    )


def schmidt_vector(psi: PureState, bipartition=None) -> np.ndarray:
    """Just the non-increasing Schmidt probability vector."""
    part = as_bipartition(bipartition, psi.n_parties)
    s = np.linalg.svd(_cut_matrix(psi, part.blocks[0]), compute_uv=False)
    return s**2


def entanglement_entropy(psi: PureState, bipartition=None, base: float | None = None) -> float:
    """Shannon entropy of the Schmidt vector; zero iff the cut is product."""
    return shannon_entropy(schmidt_vector(psi, bipartition), base=base)


def tangle_pure(psi: PureState, bipartition=None) -> float:
    """Tangle of a pure state across a cut, normalized to ``[0, 1]``.

    ``tau = (1 - sum lambda_i^2) * d/(d-1)`` with ``d`` the smaller side's
    dimension; for a qubit cut this is ``2(1 - sum lambda_i^2) = 4 |det G|^2``,
    and the concurrence is ``sqrt(tau)``.
    """
    part = as_bipartition(bipartition, psi.n_parties)
    lam = schmidt_vector(psi, part)
    d = min(
        prod(psi.dims[i] for i in part.blocks[0]),
        prod(psi.dims[i] for i in part.blocks[1]),
    )
    if d < 2:
        return 0.0
    return float(np.clip((1.0 - (lam**2).sum()) * d / (d - 1), 0.0, 1.0))


def concurrence_pure(psi: PureState, bipartition=None) -> float:
    return float(np.sqrt(tangle_pure(psi, bipartition)))


def schmidt_rank(psi: PureState, bipartition=None, tol: float = RANK_TOL) -> int:
    """Number of Schmidt coefficients above ``tol``."""
    return int((schmidt_vector(psi, bipartition) > tol).sum())


def majorizes(p: Sequence[float], q: Sequence[float]) -> bool:
    """True iff sorted partial sums of ``p`` dominate those of ``q``.

    Both arguments must be probability vectors normalized within 1e-10; the
    comparison allows 1e-12 slack so equal vectors majorize each other.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for name, v in (("p", p), ("q", q)):
        if v.min() < -1e-12:
            raise ValueError(f"{name} has negative entries")
        if abs(v.sum() - 1.0) > 1e-10:
            raise ValueError(f"{name} sums to {v.sum()!r}, not 1 within 1e-10")
    k = max(p.size, q.size)
    ps = np.sort(np.pad(p, (0, k - p.size)))[::-1].cumsum()
    qs = np.sort(np.pad(q, (0, k - q.size)))[::-1].cumsum()
    return bool(np.all(ps >= qs - _MAJ_SLACK))


def nielsen_convertible(psi: PureState, phi: PureState, bipartition=None) -> bool:
    """Deterministic LOCC convertibility ``psi -> phi`` across a cut.

    Holds iff the target's Schmidt vector majorizes the source's, so a Bell
    state converts to anything and nothing converts to a strictly better
    entangled state.
    """
    if psi.dims != phi.dims:
        raise ValueError(f"dims mismatch: {psi.dims} vs {phi.dims}")
    part = as_bipartition(bipartition, psi.n_parties)
    return majorizes(schmidt_vector(phi, part), schmidt_vector(psi, part))


def _tensored_schmidt(lam: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return np.outer(lam, eta).ravel()


def catalysis_convertible(
    psi: PureState, phi: PureState, eta: PureState, bipartition=None
) -> bool:
    """True iff ``psi (x) eta -> phi (x) eta`` is Nielsen-convertible.

    ``eta`` is a bipartite catalyst; its first party joins the left block and
    its second party the right block, so the joint Schmidt vector is the
    outer product of the individual ones.
    """
    if psi.dims != phi.dims:
        raise ValueError(f"dims mismatch: {psi.dims} vs {phi.dims}")
    if eta.n_parties != 2:
        raise ValueError("catalyst must be a bipartite pure state")
    part = as_bipartition(bipartition, psi.n_parties)
    lam_eta = schmidt_vector(eta)
    src = _tensored_schmidt(schmidt_vector(psi, part), lam_eta)
    tgt = _tensored_schmidt(schmidt_vector(phi, part), lam_eta)
    return majorizes(tgt, src)


def _ordered_simplex_grid(d: int, n: int):
    # k_1 >= ... >= k_d >= 0 with sum n, descending lexicographic order
    def rec(prefix, remaining, maxv, slots):
        if slots == 1:
            if remaining <= maxv:
                yield prefix + [remaining]
            return
        lo = -(-remaining // slots)
        for k in range(min(maxv, remaining), lo - 1, -1):
            yield from rec(prefix + [k], remaining - k, k, slots - 1)

    for ks in rec([], n, n, d):
        yield np.array(ks, dtype=float) / n


def find_catalyst(
    psi: PureState,
    phi: PureState,
    catalyst_dim: int = 2,
    grid_resolution: int = 100,
    bipartition=None,
) -> np.ndarray | None:
    """Sweep the ordered probability simplex for a catalyst Schmidt vector.

    Returns the first grid point (descending lexicographic sweep, so already
    convertible pairs return the flag vector ``(1, 0, ...)``) whose catalyst
    enables the conversion, or ``None`` when the grid holds no catalyst.
    Catalysis is invariant under relabeling, so only ordered vectors are swept.
    """
    if catalyst_dim > 4:
        raise ValueError("catalyst_dim capped at 4")
    if grid_resolution > 200:
        raise ValueError("grid_resolution capped at 200")
    part = as_bipartition(bipartition, psi.n_parties)
    lam_s = schmidt_vector(psi, part)
    lam_t = schmidt_vector(phi, part)
    for eta in _ordered_simplex_grid(catalyst_dim, grid_resolution):
        if majorizes(_tensored_schmidt(lam_t, eta), _tensored_schmidt(lam_s, eta)):
            return eta
    return None
