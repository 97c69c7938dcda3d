"""Concrete LOCC and SLOCC instruments.

An :class:`Instrument` is a labeled family of completely positive maps, each
given by a Kraus list, whose sum is trace preserving.  Teleportation,
entanglement swapping, local filtering and the unlocking measurement on the
four-qubit Smolin state are built as explicit instruments; the entropy-based
asymptotic rate formulas close the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .core import DIM_CAP, _as_int, _check_cap, _check_dims, _check_finite, _check_indices
from .partitions import Partition
from .states import (
    DensityMatrix,
    PureState,
    State,
    _entropy_on,
    _require_pure,
    _trusted_density,
    as_density,
    bell_basis_2q,
    bell_state,
    conditional_entropy,
    smolin_state,
)

_COMPLETENESS_ATOL = 1e-9


@dataclass(frozen=True)
class BranchOutcome:
    """One classical outcome of an instrument: label, probability, post-state."""

    label: object
    probability: float
    post_state: DensityMatrix | None


def _branch(label, sigma: np.ndarray, dims: tuple[int, ...]) -> BranchOutcome:
    """The Born rule on an unnormalized post-state ``sigma`` over ``dims``: its
    trace is the probability, and the branch holds ``sigma`` normalized, or
    ``None`` at a probability of 1e-12 or less."""
    p = float(np.trace(sigma).real)
    if p > 1e-12:
        return BranchOutcome(label, p, _trusted_density(sigma / p, dims))
    return BranchOutcome(label, 0.0, None)


@dataclass(frozen=True)
class Instrument:
    """Labeled family of CP maps (Kraus lists) summing to a TP map."""

    branches: tuple[tuple[object, tuple[np.ndarray, ...]], ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _check_dims(self.dims)
        d = prod(dims)
        total = np.zeros((d, d), dtype=complex)
        branches = []
        for label, kraus in self.branches:
            kraus = tuple(np.asarray(k, dtype=complex) for k in kraus)
            for k in kraus:
                if k.ndim != 2 or k.shape[1] != d:
                    raise ValueError(f"Kraus operator shape {k.shape} is not (m, {d})")
                _check_cap(k.shape[0], DIM_CAP, "Kraus output dimension")
                _check_finite(k, f"branch {label!r} Kraus operators")
                total += k.conj().T @ k
            if len({k.shape[0] for k in kraus}) > 1:
                raise ValueError(f"branch {label!r} mixes Kraus output dimensions")
            branches.append((label, kraus))
        if not np.abs(total - np.eye(d)).max() <= _COMPLETENESS_ATOL:
            raise ValueError("instrument is not trace preserving within 1e-9")
        object.__setattr__(self, "branches", tuple(branches))
        object.__setattr__(self, "dims", dims)

    def apply(self, rho: State) -> list[BranchOutcome]:
        """Born-rule outcome list; branch order follows the label order."""
        rho = as_density(rho)
        if rho.dim != prod(self.dims):
            raise ValueError("state dimension does not match the instrument")
        out = []
        for label, kraus in self.branches:
            sigma = sum(k @ rho.matrix @ k.conj().T for k in kraus)
            dims_out = (sigma.shape[0],) if sigma.shape[0] != rho.dim else rho.dims
            out.append(_branch(label, sigma, dims_out))
        return out


# ---------------------------------------------------------------------------
# teleportation and swapping
# ---------------------------------------------------------------------------

def shift_multiply_unitary(m: int, n: int, d: int) -> np.ndarray:
    """``U_mn = sum_k e^{2 pi i k n / d} |k><(k+m) mod d|``; integer arguments."""
    m, n, d = _as_int(m, "m"), _as_int(n, "n"), _as_int(d, "d")
    u = np.zeros((d, d), dtype=complex)
    for k in range(d):
        u[k, (k + m) % d] = np.exp(2j * np.pi * k * n / d)
    return u


def teleportation_kraus(d: int) -> list[tuple[tuple[int, int], np.ndarray]]:
    """Effective corrected Kraus operators of the teleportation channel.

    Branch ``(m, n)`` measures Alice's pair in the generalized Bell basis and
    applies ``U_mn`` on Bob; each effective operator maps the input space
    directly to Bob's space.
    """
    bell = bell_state(d).amplitudes.reshape(d, d)
    # branch (m, n) projects on (U (x) I)|psi+>, reshaped to proj = u @ bell;
    # then M[b, a'] = sum_a conj(proj[a', a]) bell[a, b], and Bob applies u
    us = [((m, n), shift_multiply_unitary(m, n, d)) for m in range(d) for n in range(d)]
    return [(mn, u @ ((u @ bell).conj() @ bell).T) for mn, u in us]


def teleport(input_state: State) -> list[BranchOutcome]:
    """Teleport a state of total dimension ``d`` through ``|psi^{+,d}>``; all
    branches return it.

    Outcome probabilities are ``1/d^2`` regardless of the input.  The
    channel, and with it the dense cap on ``d``, comes before a pure input
    becomes a projector; anything else is a ``ValueError``.
    """
    if not isinstance(input_state, PureState):
        input_state = as_density(input_state)
    d = input_state.dim
    branches = tuple((label, (k,)) for label, k in teleportation_kraus(d))
    return Instrument(branches=branches, dims=(d,)).apply(input_state)


def entanglement_swap(rho_xa: State) -> DensityMatrix:
    """Swap the second subsystem of ``rho_XA'``, of dimension ``d``, onto Bob
    through ``|psi^{+,d}>``.

    Runs the teleportation instrument on the ``A'`` part, averages the
    corrected branches, and returns the state of ``X, B``, which reproduces
    the input up to relabeling.  A pure input is taken as its projector.
    """
    rho_xa = as_density(rho_xa)
    if rho_xa.n_parties != 2:
        raise ValueError("expected a state on two subsystems X, A'")
    dx, d = rho_xa.dims
    # rho as a dx x dx grid of d x d blocks over A'; each branch acts on all
    # blocks in one product.  Summing the d^2 branches into the channel first
    # costs d^6, and stacking their products holds dx^2 d^4 numbers.
    blocks = rho_xa.matrix.reshape(dx, d, dx, d).transpose(0, 2, 1, 3)
    out = sum(k @ blocks @ k.conj().T for _, k in teleportation_kraus(d))
    return _trusted_density(out.transpose(0, 2, 1, 3).reshape(dx * d, dx * d), (dx, d))


# ---------------------------------------------------------------------------
# local filtering
# ---------------------------------------------------------------------------

def _prepare_filters(state_dims, filters, rescale) -> np.ndarray:
    """The checked (and, with ``rescale``, normalized) filters as one
    operator ``(x)_i L_i`` on the whole state."""
    filters = [np.asarray(f, dtype=complex) for f in filters]
    if len(filters) != len(state_dims):
        raise ValueError(
            f"need one filter per party: got {len(filters)} for {len(state_dims)} parties"
        )
    out = []
    for f, dim in zip(filters, state_dims):
        if f.shape != (dim, dim):
            raise ValueError(f"filter shape {f.shape} does not match local dim {dim}")
        _check_finite(f, "filter")
        smax = np.linalg.svd(f, compute_uv=False).max()
        if rescale and smax > 0:
            f = f / smax
        elif smax > 1.0 + 1e-9:
            raise ValueError(
                "filter violates L^dag L <= I; pass rescale=True to normalize"
            )
        out.append(f)
    return reduce(np.kron, out)


def local_filter(
    state: State, filters: Sequence[np.ndarray], rescale: bool = False
) -> tuple[BranchOutcome, BranchOutcome]:
    """Two-branch filtering instrument: keep the filtered state or depolarize.

    Branch ``filtered`` applies ``(x)_i L_i`` and renormalizes; branch
    ``depolarized`` outputs the maximally mixed state with the complementary
    probability, which makes the pair trace preserving.
    """
    rho = as_density(state)
    m = _prepare_filters(rho.dims, filters, rescale)
    sigma = m @ rho.matrix @ m.conj().T
    p2 = max(0.0, 1.0 - float(np.trace(sigma).real))
    mixed = _trusted_density(np.eye(rho.dim) / rho.dim, rho.dims)
    return (_branch("filtered", sigma, rho.dims), BranchOutcome("depolarized", p2, mixed))


def local_filter_pure(
    psi: PureState, filters: Sequence[np.ndarray], rescale: bool = False
) -> tuple[PureState | None, float]:
    """Success branch of filtering on a pure state: ``(x)L_i |psi>`` renormalized.

    Returns the filtered pure state (or ``None`` when the filters annihilate
    the state) together with the success probability.
    """
    _require_pure(psi)
    m = _prepare_filters(psi.dims, filters, rescale)
    v = m @ psi.amplitudes
    p = float(np.vdot(v, v).real)
    if p < 1e-24:
        return (None, 0.0)
    return (PureState(v / np.sqrt(p), psi.dims), p)


# ---------------------------------------------------------------------------
# unlocking the Smolin state
# ---------------------------------------------------------------------------

_PARTY_NAMES = {name: i for i, name in enumerate("ABCD")}


def unlock_smolin(pair: Iterable[int | str]) -> list[BranchOutcome]:
    """Bell measurement on two joined parties of the Smolin state.

    Every outcome leaves the remaining pair in the matching Bell state, so
    each branch carries maximal two-qubit entanglement; the four outcomes are
    equiprobable.
    """
    idx = _check_indices(
        _PARTY_NAMES.get(p.upper(), -1) if isinstance(p, str) else p for p in pair
    )
    if len(idx) != 2 or len(set(idx)) != 2 or not all(0 <= i < 4 for i in idx):
        raise ValueError("pair must name two distinct parties among A, B, C, D")
    joined = sorted(idx)
    rest = [i for i in range(4) if i not in joined]
    # rho[a, r, a', r'] with the joined pair first; <b| (x) I_4 leaves the
    # unnormalized state of the remaining pair
    rho = smolin_state().permute(joined + rest).matrix.reshape(4, 4, 4, 4)
    return [
        _branch(i, np.einsum("a,arbs,b->rs", b.amplitudes.conj(), rho, b.amplitudes), (2, 2))
        for i, b in enumerate(bell_basis_2q(), start=1)
    ]


# ---------------------------------------------------------------------------
# entropy-based asymptotic rates
# ---------------------------------------------------------------------------

def merging_rate(psi: PureState, a: Iterable[int], b: Iterable[int]) -> float:
    """State-merging cost ``S(A|B)`` of a pure multipartite state.

    Negative values signal the entanglement-gain regime in which merging
    produces ``-S(A|B)`` maximally entangled pairs instead of consuming them.
    """
    return conditional_entropy(psi, a, b)


def combing_entropy_profile(
    psi: PureState, a: int, b_blocks: Sequence[Iterable[int]]
) -> tuple[list[float], float]:
    """Marginal entropies of the ``B_k`` blocks together with ``S(rho_A)``.

    Pure bookkeeping for the combing identity ``sum_k S(rho_{A_k}) = S(rho_A)``:
    the per-block entropies bound the achievable pair profile, and the total
    on the distinguished party is returned alongside.  Each entropy is read
    from the cut spectrum of its block, with no reduced state built.
    """
    _require_pure(psi)
    blocks = [tuple(b) for b in b_blocks]
    part = Partition(((a,), *blocks))
    if part.n_parties != psi.n_parties:
        raise ValueError(f"A party plus blocks cover {part.n_parties} parties, "
                         f"state has {psi.n_parties}")
    profile = [_entropy_on(psi, block) for block in blocks]
    total = _entropy_on(psi, [a])
    return (profile, float(total))
