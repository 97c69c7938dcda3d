"""Bipartite structure of pure states: Schmidt data, tangle, majorization, catalysis.

A bipartition is a two-block :class:`~entkit.partitions.Partition` (or any
pair of index sets); the Schmidt decomposition refers to the state with its
parties reordered as (left block, right block).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .core import _check_count, _check_probabilities, _check_same_dims, _check_tol
from .partitions import Partition, as_bipartition
from .states import PureState, _cut_matrix, _marginal_spectrum, _require_pure, shannon_entropy

RANK_TOL = 1e-10
_MAJ_SLACK = 1e-12
#: Grid points :func:`find_catalyst` checks at once.
_CATALYST_BLOCK = 2048


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
    _require_pure(psi)
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
    """Just the non-increasing Schmidt probability vector, the cut spectrum of
    :func:`~entkit.states._marginal_spectrum`: ``min(d_left, d_right)`` entries.
    A ``psi`` that is not a ``PureState`` is a ``ValueError``."""
    _require_pure(psi)
    return _marginal_spectrum(psi, as_bipartition(bipartition, psi.n_parties).blocks[0])


def entanglement_entropy(psi: PureState, bipartition=None, base: float | None = None) -> float:
    """Shannon entropy of the Schmidt vector; zero iff the cut is product."""
    return shannon_entropy(schmidt_vector(psi, bipartition), base=base)


def tangle_pure(psi: PureState, bipartition=None) -> float:
    """Tangle of a pure state across a cut, normalized to ``[0, 1]``.

    ``tau = (1 - sum lambda_i^2) * d/(d-1)`` with ``lambda`` the Schmidt
    vector and ``d`` its length, the smaller side's dimension; for a qubit cut
    this is ``2(1 - sum lambda_i^2) = 4 |det G|^2``, and the concurrence is
    ``sqrt(tau)``.  Clipped to ``[0, 1]``; 0 when one side is a single level.
    """
    lam = schmidt_vector(psi, bipartition)
    d = lam.size
    if d < 2:
        return 0.0
    return float(np.clip((1.0 - lam @ lam) * d / (d - 1), 0.0, 1.0))


def concurrence_pure(psi: PureState, bipartition=None) -> float:
    return float(np.sqrt(tangle_pure(psi, bipartition)))


def schmidt_rank(psi: PureState, bipartition=None, tol: float = RANK_TOL) -> int:
    """Number of Schmidt coefficients above ``tol``, which must be finite and >= 0."""
    _check_tol(tol)
    return int((schmidt_vector(psi, bipartition) > tol).sum())


def majorizes(p: Sequence[float], q: Sequence[float]) -> bool:
    """True iff sorted partial sums of ``p`` dominate those of ``q``.

    Both arguments must be probability vectors: finite, >= -1e-12 and
    normalized within 1e-10.  The comparison allows 1e-12 slack so equal
    vectors majorize each other.
    """
    p = _check_probabilities(p, "p", slack=_MAJ_SLACK, normalized=True)
    q = _check_probabilities(q, "q", slack=_MAJ_SLACK, normalized=True)
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
    _require_pure(psi)
    _require_pure(phi)
    _check_same_dims(psi, phi)
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
    for state in (psi, phi, eta):
        _require_pure(state)
    _check_same_dims(psi, phi)
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

    yield from rec([], n, n, d)


def _sorted_partial_sums(lam: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Partial sums of each tensored Schmidt vector ``lam (x) eta``, one row
    per row of ``etas``, its entries sorted in non-increasing order."""
    tensored = (lam[None, :, None] * etas[:, None, :]).reshape(len(etas), -1)
    return np.sort(tensored, axis=1)[:, ::-1].cumsum(axis=1)


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
    The sweep checks the majorization of :func:`majorizes` on blocks of up to
    2,048 grid points, in order, with one sort and one partial sum per block.
    ``catalyst_dim`` must be 1 to 4 and ``grid_resolution`` 1 to 200.
    """
    catalyst_dim = _check_count(catalyst_dim, "catalyst_dim", hi=4)
    grid_resolution = _check_count(grid_resolution, "grid_resolution", hi=200)
    _require_pure(psi)
    _require_pure(phi)
    _check_same_dims(psi, phi)
    part = as_bipartition(bipartition, psi.n_parties)
    lam_s = schmidt_vector(psi, part)
    lam_t = schmidt_vector(phi, part)
    grid = _ordered_simplex_grid(catalyst_dim, grid_resolution)
    while block := list(islice(grid, _CATALYST_BLOCK)):
        etas = np.array(block, dtype=float) / grid_resolution
        ok = np.all(_sorted_partial_sums(lam_t, etas)
                    >= _sorted_partial_sums(lam_s, etas) - _MAJ_SLACK, axis=1)
        if ok.any():
            return etas[int(np.argmax(ok))].copy()
    return None
