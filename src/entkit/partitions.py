"""Partitions of the subsystem set, product/producibility classification and PPT.

A :class:`Partition` divides party indices ``{0..N-1}`` into disjoint,
non-empty blocks and is kept in a canonical form (each block sorted, blocks
ordered by smallest element) so partitions can be compared and hashed.

Mixed-state separability itself is not decided here: for density matrices the
module reports only the necessary PPT conditions per cut, which is why
:func:`ppt_check` returns a flag and not a separability verdict.

The PPT test needs only the least eigenvalue of each partial transpose.  For
a mixed state above order 128 it is a Lanczos value that a shifted Cholesky
factorization proves to within 1e-12, with the dense ``eigvalsh`` as the
fallback (see :func:`ppt_check`); the route is numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable

import numpy as np

from .core import _as_int, _check_cap, _check_indices, _check_keep, _check_tol
from .states import PureState, State, _marginal_spectrum, as_density

_PARTITION_ENUM_CAP = 8
_PPT_SWEEP_CAP = 6
#: Step cap of the Lanczos least-eigenvalue run; matrices of this order or
#: less go to the dense solve.
_LANCZOS_STEPS = 128
#: The run diagonalizes its tridiagonal matrix every this many steps.
_LANCZOS_CHECK = 4
#: Width of the interval ``(theta - margin, theta]`` that the Cholesky
#: certificate proves the least eigenvalue lies in; below the PPT flag's 1e-10.
_LANCZOS_MARGIN = 1e-12


@dataclass(frozen=True)
class Partition:
    """Division of ``{0..N-1}`` into disjoint non-empty blocks, canonicalized."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(_check_indices(b))) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0] if b else -1))
        if any(len(b) == 0 for b in blocks):
            raise ValueError("blocks must be non-empty")
        flat = [i for b in blocks for i in b]
        n = len(flat)
        if sorted(flat) != list(range(n)):
            raise ValueError(f"blocks {blocks} are not a partition of 0..{n - 1}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_parties(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def is_bipartition(self) -> bool:
        return len(self.blocks) == 2

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __str__(self) -> str:
        return "|".join(",".join(str(i) for i in b) for b in self.blocks)


def as_bipartition(bipartition, n_parties: int) -> Partition:
    """Coerce a Partition or a pair of index sets into a 2-block partition.

    ``None`` selects the only bipartition of a 2-party system.
    """
    if bipartition is None:
        if n_parties != 2:
            raise ValueError(
                "bipartition may be omitted only for 2-party states"
            )
        return Partition(((0,), (1,)))
    if not isinstance(bipartition, Partition):
        bipartition = Partition(tuple(tuple(b) for b in bipartition))
    if bipartition.n_parties != n_parties:
        raise ValueError(
            f"partition covers {bipartition.n_parties} parties, state has {n_parties}"
        )
    if not bipartition.is_bipartition:
        raise ValueError(f"expected 2 blocks, got {bipartition.n_blocks}")
    return bipartition


def single_party_bipartition(k: int, n: int) -> Partition:
    """The cut ``{k} | rest`` of ``n`` parties."""
    rest = tuple(i for i in range(n) if i != k)
    return Partition(((k,), rest))


def enumerate_partitions(n: int) -> list[Partition]:
    """All set partitions of ``n`` parties (Bell-number many), canonical order.

    Generated from restricted growth strings in lexicographic order, which is
    the canonical enumeration used across the package.
    """
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(n, _PARTITION_ENUM_CAP, "partition enumeration party count")
    out: list[Partition] = []

    def rec(code: list[int], used: int):
        if len(code) == n:
            blocks: list[list[int]] = [[] for _ in range(used)]
            for i, c in enumerate(code):
                blocks[c].append(i)
            out.append(Partition(tuple(tuple(b) for b in blocks)))
            return
        for c in range(used + 1):
            rec(code + [c], max(used, c + 1))

    rec([], 0)
    return out


def all_bipartitions(n: int) -> list[Partition]:
    """The ``2^(n-1) - 1`` two-block partitions, ordered by the block holding party 0."""
    n = _as_int(n, "n")
    if n < 2:
        raise ValueError("need at least 2 parties")
    out = []
    rest = list(range(1, n))
    for mask in range(2 ** (n - 1) - 1):
        left = [0] + [rest[i] for i in range(n - 1) if (mask >> i) & 1]
        right = [i for i in range(n) if i not in left]
        out.append(Partition((tuple(left), tuple(right))))
    return out


def refines(beta: Partition, alpha: Partition) -> bool:
    """True iff every block of ``beta`` lies inside a single block of ``alpha``."""
    if beta.n_parties != alpha.n_parties:
        raise ValueError("partitions are over different party sets")
    owner = {}
    for j, block in enumerate(alpha.blocks):
        for i in block:
            owner[i] = j
    return all(len({owner[i] for i in b}) == 1 for b in beta.blocks)


# ---------------------------------------------------------------------------
# pure-state product structure
# ---------------------------------------------------------------------------

def is_product_across(psi: PureState, partition: Partition, tol: float = 1e-9) -> bool:
    """True iff ``psi`` factorizes across ``partition``.

    A pure state is product across a partition iff the reduced state of every
    block is pure; block purity, the sum of the squared marginal eigenvalues,
    is compared against ``1 - tol``, which must be finite and >= 0.
    """
    _check_tol(tol)
    if partition.n_parties != psi.n_parties:
        raise ValueError("partition does not match the state's party count")
    return all(
        (_marginal_spectrum(psi, block) ** 2).sum() >= 1.0 - tol
        for block in partition.blocks
        if len(block) < psi.n_parties
    )


@dataclass(frozen=True)
class ClassificationReport:
    """Finest product partition of a pure state and derived producibility data."""

    finest_product_partition: Partition
    producibility_m: int
    genuinely_multipartite: bool
    bipartition_product_flags: dict[Partition, bool] = field(repr=False)


def classify_pure(psi: PureState, tol: float = 1e-9) -> ClassificationReport:
    """Finest product partition, producibility ``M`` and biseparability flags.

    Each bipartition gets one flag from :func:`is_product_across`.  Two parties
    share a block of the finest product partition iff no product cut separates
    them: the cuts a pure state factorizes across are closed under
    intersection, so the finest partition's blocks are the classes of parties
    that lie on the same side of every product cut.  ``tol`` must be finite
    and >= 0.
    """
    _check_tol(tol)
    n = psi.n_parties
    _check_cap(n, _PARTITION_ENUM_CAP, "classification party count")
    flags = {
        bp: is_product_across(psi, bp, tol) for bp in all_bipartitions(n)
    } if n >= 2 else {}
    blocks: dict[tuple[bool, ...], list[int]] = {}
    for i in range(n):
        side = tuple(i in bp.blocks[0] for bp, product in flags.items() if product)
        blocks.setdefault(side, []).append(i)
    finest = Partition(tuple(tuple(b) for b in blocks.values()))
    m = max(len(b) for b in finest.blocks)
    return ClassificationReport(
        finest_product_partition=finest,
        producibility_m=m,
        genuinely_multipartite=(finest.n_blocks == 1 and n >= 2),
        bipartition_product_flags=flags,
    )


# ---------------------------------------------------------------------------
# partial transposition and PPT
# ---------------------------------------------------------------------------

def partial_transpose(rho: State, subset: Iterable[int]) -> np.ndarray:
    """Transpose the subsystems in ``subset``; returns a plain Hermitian matrix.

    Applying the same transposition twice restores the input.  The output need
    not be positive, which is exactly what :func:`ppt_check` inspects.
    """
    rho = as_density(rho)
    n = rho.n_parties
    subset = _check_keep(subset, n, "subset")
    if len(subset) == n:
        raise ValueError("subset must be a proper subset of the parties")
    dims = rho.dims
    t = rho.matrix.reshape(dims + dims)
    perm = list(range(2 * n))
    for s in subset:
        perm[s], perm[s + n] = perm[s + n], perm[s]
    d = prod(dims)
    return t.transpose(perm).reshape(d, d)


def ppt_check(rho: State, bipartition=None) -> tuple[bool, float]:
    """PPT test across a cut: ``(flag, min eigenvalue of the partial transpose)``.

    Positivity of the partial transpose is necessary for separability across
    the cut; a negative eigenvalue certifies entanglement, a non-negative
    spectrum is inconclusive for mixed states.

    A pure state never becomes a projector.  With Schmidt coefficients
    ``l_1 >= l_2 >= ...``, the partial transpose of ``|psi><psi|`` has the
    spectrum ``{l_i} u {+-sqrt(l_i l_j), i < j}`` padded with zeros, so its
    minimum is ``-sqrt(l_1 l_2)`` (Vidal & Werner, PRA 65, 032314 (2002)).
    It is 0 at Schmidt rank one, and 1 when the total dimension is 1.

    A mixed state's minimum comes from :func:`_least_eigenvalue`: above
    order 128, the least Ritz value of at most 128 Lanczos steps, certified
    by a Cholesky factorization of the partial transpose shifted by that
    value less 1e-12, so the true minimum lies at most 1e-12 below it.  A
    run that does not converge or fails the certificate, and any matrix of
    order 128 or less, takes the dense ``eigvalsh`` minimum.  The Lanczos
    start vector is seeded, so the value is the same from run to run.
    """
    if not isinstance(rho, PureState):
        rho = as_density(rho)
    part = as_bipartition(bipartition, rho.n_parties)
    if isinstance(rho, PureState):
        lam = _marginal_spectrum(rho, part.blocks[0])
        if lam.size > 1:
            min_eig = float(-np.sqrt(lam[0] * lam[1])) or 0.0  # no negative zero
        else:  # one side is one-dimensional: no entry of lam is paired
            min_eig = 1.0 if rho.dim == 1 else 0.0
    else:
        min_eig = _least_eigenvalue(partial_transpose(rho, part.blocks[1]))
    return (min_eig >= -1e-10, min_eig)


def _least_eigenvalue(h: np.ndarray) -> float:
    """Least eigenvalue of the Hermitian matrix ``h``: a certified Lanczos
    value, or the dense ``eigvalsh`` minimum.

    Above order ``_LANCZOS_STEPS``, the least Ritz value ``theta`` of a
    Lanczos run (:func:`_lanczos_least`) is returned when a Cholesky
    factorization of ``h - (theta - _LANCZOS_MARGIN) I`` succeeds.  A Ritz
    value is never below the least eigenvalue, so the factorization proves
    that the least eigenvalue lies in ``(theta - _LANCZOS_MARGIN, theta]``.
    A run that does not converge within its steps, or a failed
    factorization, falls back to the dense solve, which is also taken at
    order ``_LANCZOS_STEPS`` or less, where no Krylov run of that many
    steps is cheaper.
    """
    d = h.shape[0]
    if d > _LANCZOS_STEPS:
        theta = _lanczos_least(h)
        if theta is not None and _certified(h, theta):
            return theta
    return float(np.linalg.eigvalsh(h).min())


def _lanczos_least(h: np.ndarray) -> float | None:
    """Least Ritz value of Lanczos with full reorthogonalization on ``h``,
    or ``None`` if it does not converge within ``_LANCZOS_STEPS`` steps.

    The run starts from a fixed-seed complex Gaussian vector, so its output
    is the same from run to run.  Each new vector is orthogonalized against
    all earlier ones by two passes of classical Gram-Schmidt, whose first
    pass also gives the tridiagonal entries.  Every ``_LANCZOS_CHECK`` steps
    the tridiagonal matrix ``T`` is diagonalized; with ``y`` the eigenvector
    of its least eigenvalue ``theta``, the run stops once the residual
    bound ``r = |beta y_last|`` is small: within a quarter margin of
    ``theta``, or with ``r^2 / gap`` (Kato-Temple, ``gap`` the distance to
    the next Ritz value) below it.
    """
    d = h.shape[0]
    rng = np.random.default_rng(0)
    q = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    basis = np.empty((_LANCZOS_STEPS, d), complex)
    basis[0] = q / np.linalg.norm(q)
    t = np.zeros((_LANCZOS_STEPS, _LANCZOS_STEPS))
    tol = _LANCZOS_MARGIN / 4
    for j in range(_LANCZOS_STEPS):
        done = basis[: j + 1]
        w = h @ basis[j]
        coef = (done @ w.conj()).conj()  # done^* w, with no conjugate copy of done
        w -= coef @ done
        w -= (done @ w.conj()).conj() @ done
        t[j, j] = coef[j].real
        beta = float(np.linalg.norm(w))
        if j % _LANCZOS_CHECK == _LANCZOS_CHECK - 1 or beta == 0.0:
            vals, vecs = np.linalg.eigh(t[: j + 1, : j + 1])
            res = beta * abs(vecs[-1, 0])
            if res <= tol or res * res <= tol * (vals[1] - vals[0]):
                return float(vals[0])
        if j + 1 < _LANCZOS_STEPS:
            basis[j + 1] = w / beta
            t[j, j + 1] = t[j + 1, j] = beta
    return None


def _certified(h: np.ndarray, theta: float) -> bool:
    """True iff ``h - (theta - _LANCZOS_MARGIN) I`` has a Cholesky factor,
    which proves every eigenvalue of ``h`` above ``theta - _LANCZOS_MARGIN``."""
    shifted = h.copy()
    shifted.flat[:: h.shape[0] + 1] -= theta - _LANCZOS_MARGIN
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _ppt_sweep(state: State) -> dict[Partition, tuple[bool, float]]:
    """:func:`ppt_check` on every bipartition, capped at ``_PPT_SWEEP_CAP`` parties.

    The cap is checked before any cut is computed, so an input over it costs
    no eigensolve.
    """
    _check_cap(state.n_parties, _PPT_SWEEP_CAP, "PPT sweep party count")
    return {bp: ppt_check(state, bp) for bp in all_bipartitions(state.n_parties)}


def ppt_all_bipartitions(rho: State) -> dict[Partition, bool]:
    """PPT flag for every bipartition of the parties."""
    return {bp: flag for bp, (flag, _) in _ppt_sweep(rho).items()}
