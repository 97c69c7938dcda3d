"""Concrete LOCC and SLOCC instruments.

An :class:`Instrument` is a labeled family of completely positive maps, each
given by a Kraus list, whose sum is trace preserving.  Teleportation,
entanglement swapping, local filtering and the unlocking measurement on the
four-qubit Smolin state are built as explicit instruments; the entropy-based
asymptotic rate formulas close the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .core import _check_dims, _check_indices
from .states import (
    DensityMatrix,
    PureState,
    State,
    as_density,
    bell_basis_2q,
    bell_state,
    conditional_entropy,
    partial_trace,
    smolin_state,
    von_neumann_entropy,
)

_COMPLETENESS_ATOL = 1e-9


@dataclass(frozen=True)
class BranchOutcome:
    """One classical outcome of an instrument: label, probability, post-state."""

    label: object
    probability: float
    post_state: DensityMatrix | None


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
                    raise ValueError(
                        f"Kraus operator shape {k.shape} is not (m, {d})"
                    )
                total += k.conj().T @ k
            branches.append((label, kraus))
        if np.abs(total - np.eye(d)).max() > _COMPLETENESS_ATOL:
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
            p = float(np.trace(sigma).real)
            if p > 1e-12:
                dims_out = (sigma.shape[0],) if sigma.shape[0] != rho.dim else rho.dims
                post = DensityMatrix(sigma / p, dims_out)
            else:
                p, post = 0.0, None
            out.append(BranchOutcome(label=label, probability=p, post_state=post))
        return out


# ---------------------------------------------------------------------------
# teleportation and swapping
# ---------------------------------------------------------------------------

def shift_multiply_unitary(m: int, n: int, d: int) -> np.ndarray:
    """``U_mn = sum_k e^{2 pi i k n / d} |k><(k+m) mod d|``."""
    u = np.zeros((d, d), dtype=complex)
    for k in range(d):
        u[k, (k + m) % d] = np.exp(2j * np.pi * k * n / d)
    return u


def generalized_bell_basis(d: int) -> list[PureState]:
    """The ``d^2`` maximally entangled states ``(U_mn (x) I)|psi^{+,d}>``."""
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    # (U (x) I)|psi+> reshaped to d x d is U @ B, with B the reshaped |psi+>
    bell = bell_state(d).amplitudes.reshape(d, d)
    return [
        PureState((shift_multiply_unitary(m, n, d) @ bell).ravel(), (d, d))
        for m in range(d)
        for n in range(d)
    ]


def teleportation_kraus(d: int) -> list[tuple[tuple[int, int], np.ndarray]]:
    """Effective corrected Kraus operators of the teleportation channel.

    Branch ``(m, n)`` measures Alice's pair in the generalized Bell basis and
    applies ``U_mn`` on Bob; each effective operator maps the input space
    directly to Bob's space.
    """
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    bell = bell_state(d).amplitudes.reshape(d, d)
    out = []
    for m in range(d):
        for n in range(d):
            u = shift_multiply_unitary(m, n, d)
            proj = u @ bell  # (U (x) I)|psi+>, reshaped to d x d
            # M[b, a'] = sum_a conj(proj[a', a]) bell[a, b]
            m_eff = np.einsum("xa,ab->bx", proj.conj(), bell)
            out.append(((m, n), u @ m_eff))
    return out


def teleport(input_state: State, d: int | None = None) -> list[BranchOutcome]:
    """Teleport a ``d``-level state through ``|psi^{+,d}>``; all branches return it.

    Outcome probabilities are ``1/d^2`` regardless of the input.  The
    channel, and with it the dense cap on ``d``, comes before a pure input
    becomes a projector.
    """
    if d is None:
        d = input_state.dim
    branches = tuple(
        (label, (k,)) for label, k in teleportation_kraus(d)
    )
    return Instrument(branches=branches, dims=(d,)).apply(input_state)


def entanglement_swap(rho_xa: DensityMatrix, d: int | None = None) -> DensityMatrix:
    """Swap the second subsystem of ``rho_XA'`` onto Bob through ``|psi^{+,d}>``.

    Runs the teleportation instrument on the ``A'`` part, averages the
    corrected branches, and returns the state of ``X, B``, which reproduces
    the input up to relabeling.
    """
    if rho_xa.n_parties != 2:
        raise ValueError("expected a state on two subsystems X, A'")
    dx, da = rho_xa.dims
    if d is None:
        d = da
    if da != d:
        raise ValueError(f"second subsystem has dimension {da}, expected {d}")
    out = np.zeros((dx * d, dx * d), dtype=complex)
    for _, k in teleportation_kraus(d):
        big = np.kron(np.eye(dx), k)
        out += big @ rho_xa.matrix @ big.conj().T
    return DensityMatrix(out, (dx, d))


# ---------------------------------------------------------------------------
# local filtering
# ---------------------------------------------------------------------------

def _prepare_filters(state_dims, filters, rescale):
    filters = [np.asarray(f, dtype=complex) for f in filters]
    if len(filters) != len(state_dims):
        raise ValueError(
            f"need one filter per party: got {len(filters)} for {len(state_dims)} parties"
        )
    out = []
    for f, dim in zip(filters, state_dims):
        if f.shape != (dim, dim):
            raise ValueError(f"filter shape {f.shape} does not match local dim {dim}")
        smax = np.linalg.svd(f, compute_uv=False).max()
        if rescale and smax > 0:
            f = f / smax
        elif smax > 1.0 + 1e-9:
            raise ValueError(
                "filter violates L^dag L <= I; pass rescale=True to normalize"
            )
        out.append(f)
    return out


def local_filter(
    state: State, filters: Sequence[np.ndarray], rescale: bool = False
) -> tuple[BranchOutcome, BranchOutcome]:
    """Two-branch filtering instrument: keep the filtered state or depolarize.

    Branch ``filtered`` applies ``(x)_i L_i`` and renormalizes; branch
    ``depolarized`` outputs the maximally mixed state with the complementary
    probability, which makes the pair trace preserving.
    """
    rho = as_density(state)
    filters = _prepare_filters(rho.dims, filters, rescale)
    m = filters[0]
    for f in filters[1:]:
        m = np.kron(m, f)
    sigma = m @ rho.matrix @ m.conj().T
    p1 = float(np.trace(sigma).real)
    d = rho.dim
    if p1 > 1e-12:
        first = BranchOutcome("filtered", p1, DensityMatrix(sigma / p1, rho.dims))
    else:
        first = BranchOutcome("filtered", 0.0, None)
    p2 = max(0.0, 1.0 - p1)
    second = BranchOutcome(
        "depolarized", p2, DensityMatrix(np.eye(d) / d, rho.dims)
    )
    return (first, second)


def local_filter_pure(
    psi: PureState, filters: Sequence[np.ndarray], rescale: bool = False
) -> tuple[PureState | None, float]:
    """Success branch of filtering on a pure state: ``(x)L_i |psi>`` renormalized.

    Returns the filtered pure state (or ``None`` when the filters annihilate
    the state) together with the success probability.
    """
    filters = _prepare_filters(psi.dims, filters, rescale)
    m = filters[0]
    for f in filters[1:]:
        m = np.kron(m, f)
    v = m @ psi.amplitudes
    p = float(np.vdot(v, v).real)
    if p < 1e-24:
        return (None, 0.0)
    return (PureState(v / np.sqrt(p), psi.dims), p)


# ---------------------------------------------------------------------------
# unlocking the Smolin state
# ---------------------------------------------------------------------------

_PARTY_NAMES = "ABCD"


def unlock_smolin(pair: Iterable[int | str]) -> list[BranchOutcome]:
    """Bell measurement on two joined parties of the Smolin state.

    Every outcome leaves the remaining pair in the matching Bell state, so
    each branch carries maximal two-qubit entanglement; the four outcomes are
    equiprobable.
    """
    idx = []
    for p in pair:
        if isinstance(p, str):
            p = _PARTY_NAMES.index(p.upper())
        idx.append(int(p))
    if len(idx) != 2 or len(set(idx)) != 2 or not all(0 <= i < 4 for i in idx):
        raise ValueError("pair must name two distinct parties among A, B, C, D")
    joined = sorted(idx)
    rest = [i for i in range(4) if i not in joined]
    rho = smolin_state().permute(joined + rest)
    out = []
    for i, b in enumerate(bell_basis_2q(), start=1):
        proj = np.kron(np.outer(b.amplitudes, b.amplitudes.conj()), np.eye(4))
        sigma = proj @ rho.matrix @ proj
        p = float(np.trace(sigma).real)
        post = partial_trace(
            DensityMatrix(sigma / p, (2, 2, 2, 2)), [2, 3]
        )
        out.append(BranchOutcome(label=i, probability=p, post_state=post))
    return out


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
    on the distinguished party is returned alongside.
    """
    [a] = _check_indices([a])
    seen = {a}
    profile = []
    for block in b_blocks:
        block = sorted(set(_check_indices(block)))
        if not block or seen & set(block):
            raise ValueError("blocks must be disjoint and must not contain the A party")
        seen |= set(block)
        profile.append(von_neumann_entropy(partial_trace(psi, block)))
    if seen != set(range(psi.n_parties)):
        raise ValueError("A party plus blocks must cover all parties")
    total = von_neumann_entropy(partial_trace(psi, [a]))
    return (profile, float(total))
