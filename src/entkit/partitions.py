"""Partitions of the subsystem set, product/producibility classification and PPT.

A :class:`Partition` divides party indices ``{0..N-1}`` into disjoint,
non-empty blocks and is kept in a canonical form (each block sorted, blocks
ordered by smallest element) so partitions can be compared and hashed.

Mixed-state separability itself is not decided here: for density matrices the
module reports only the necessary PPT conditions per cut, which is why
:func:`ppt_check` returns a flag and not a separability verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .core import SizeLimitError, _check_indices
from .states import PureState, State, _marginal_spectrum, as_density

_PARTITION_ENUM_CAP = 8
_PPT_SWEEP_CAP = 6


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
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _PARTITION_ENUM_CAP:
        raise SizeLimitError(f"partition enumeration capped at n <= {_PARTITION_ENUM_CAP}")
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
    is compared against ``1 - tol``.
    """
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
    that lie on the same side of every product cut.
    """
    n = psi.n_parties
    if n > _PARTITION_ENUM_CAP:
        raise SizeLimitError(f"classification capped at {_PARTITION_ENUM_CAP} parties")
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
    subset = sorted(set(_check_indices(subset)))
    if not subset or len(subset) >= n:
        raise ValueError("subset must be non-empty and proper")
    if subset[0] < 0 or subset[-1] >= n:
        raise ValueError(f"subset {subset} out of range")
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
    """
    if not isinstance(rho, PureState):
        rho = as_density(rho)
    part = as_bipartition(bipartition, rho.n_parties)
    if isinstance(rho, PureState):
        lam = _marginal_spectrum(rho, part.blocks[0])
        if lam.size > 1:
            min_eig = float(-np.sqrt(lam[0] * lam[1])) or 0.0  # no negative zero
        else:  # the left side is one-dimensional: no entry of lam is paired
            min_eig = 1.0 if rho.dim == 1 else 0.0
    else:
        pt = partial_transpose(rho, part.blocks[1])
        min_eig = float(np.linalg.eigvalsh(pt).min())
    return (min_eig >= -1e-10, min_eig)


def _ppt_sweep(state: State) -> dict[Partition, tuple[bool, float]]:
    """:func:`ppt_check` on every bipartition, capped at ``_PPT_SWEEP_CAP`` parties.

    The cap is checked before any cut is computed, so an input over it costs
    no eigensolve.
    """
    if state.n_parties > _PPT_SWEEP_CAP:
        raise SizeLimitError(f"PPT sweep capped at {_PPT_SWEEP_CAP} parties")
    return {bp: ppt_check(state, bp) for bp in all_bipartitions(state.n_parties)}


def ppt_all_bipartitions(rho: State) -> dict[Partition, bool]:
    """PPT flag for every bipartition of the parties."""
    return {bp: flag for bp, (flag, _) in _ppt_sweep(rho).items()}


def separability_verdict(rho: State, bipartition=None) -> str:
    """``"entangled"`` when the cut is NPT, else ``"inconclusive"``.

    Deciding mixed-state separability is out of scope; a negative partial
    transpose certifies entanglement across the cut, a positive one decides
    nothing, and the verdict says so explicitly.
    """
    flag, _ = ppt_check(rho, bipartition)
    return "inconclusive" if flag else "entangled"


# ---------------------------------------------------------------------------
# unextendible product bases
# ---------------------------------------------------------------------------

def upb_unextendibility_check(
    basis: Sequence[PureState],
    restarts: int = 100,
    tol: float = 1e-6,
    rng=None,
) -> bool:
    """True iff no product vector is orthogonal to every member of ``basis``.

    Runs an alternating minimization of ``sum_v |<v|a,b,c,...>|^2`` over
    product vectors from random starts; the basis is unextendible iff the
    smallest residual found stays at or above ``tol``.  Qubit systems with at
    most 3 parties.
    """
    if not basis:
        raise ValueError("basis must be non-empty")
    dims = basis[0].dims
    if any(v.dims != dims for v in basis):
        raise ValueError("basis members have inconsistent dims")
    if len(dims) > 3 or any(d != 2 for d in dims):
        raise ValueError("supported systems: up to 3 parties of qubits")
    rng = np.random.default_rng(rng)
    n = len(dims)
    tensors = [v.reshaped().conj() for v in basis]

    best = np.inf
    for _ in range(restarts):
        facs = []
        for d in dims:
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            facs.append(z / np.linalg.norm(z))
        last = np.inf
        for _ in range(200):
            for k in range(n):
                # residual is a quadratic form in factor k; minimize by eigenvector
                mats = np.zeros((dims[k], dims[k]), dtype=complex)
                for vt in tensors:
                    h = np.moveaxis(vt, k, 0)
                    for j, f in enumerate(x for x in range(n) if x != k):
                        h = np.tensordot(h, facs[f], axes=(1, 0))
                    # h_i = <v|...factor slot k = e_i...>, residual term |h . a_k|^2
                    mats += np.outer(h.conj(), h)
                vals, vecs = np.linalg.eigh(mats)
                facs[k] = vecs[:, 0]
            res = float(vals[0].real)
            if last - res < 1e-14:
                break
            last = res
        best = min(best, res)
        if best < tol * 1e-3:
            break
    return bool(best >= tol)
