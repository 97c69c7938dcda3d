"""State containers, named multipartite states and basic state functionals.

``PureState`` holds a normalized amplitude vector (global phase fixed so the
first nonzero amplitude is real positive); ``DensityMatrix`` holds a
Hermitian, positive semi-definite, unit-trace operator.  Both carry the list
of local dimensions and use the package-wide row-major basis convention.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DIM_CAP,
    HERMITIAN_ATOL,
    SizeLimitError,
    _check_dims,
    _check_indices,
    partial_trace_matrix,
    permute_matrix,
)

_PHASE_TOL = 1e-12


@dataclass(frozen=True)
class PureState:
    """Normalized pure state over an ordered list of local dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _check_dims(self.dims)
        amp = np.array(self.amplitudes, dtype=complex, copy=True).ravel()
        if amp.size != prod(dims):
            raise ValueError(
                f"amplitude length {amp.size} does not match dims {dims}"
            )
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= HERMITIAN_ATOL:
            raise ValueError(
                f"state norm {norm!r} is not 1 within 1e-10; "
                "use PureState.normalized to rescale"
            )
        # canonical global phase: first nonzero amplitude real positive;
        # pinning it exactly real makes canonicalization idempotent, so a
        # serialization round trip is bit-exact
        nz = np.flatnonzero(np.abs(amp) > _PHASE_TOL)
        if nz.size:
            phase = np.angle(amp[nz[0]])
            if phase != 0.0:
                amp = amp * np.exp(-1j * phase)
                amp[nz[0]] = abs(amp[nz[0]])
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def normalized(cls, amplitudes, dims) -> "PureState":
        """Build a state from an unnormalized, nonzero amplitude vector."""
        amp = np.asarray(amplitudes, dtype=complex).ravel()
        norm = np.linalg.norm(amp)
        if norm < 1e-14:
            raise ValueError("cannot normalize a zero vector")
        return cls(amp / norm, tuple(dims))

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def reshaped(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)

    def overlap(self, other: "PureState") -> complex:
        """Inner product ``<self|other>``."""
        if self.dims != other.dims:
            raise ValueError(f"dims mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def permute(self, perm: Sequence[int]) -> "PureState":
        perm = list(perm)
        if sorted(perm) != list(range(self.n_parties)):
            raise ValueError(f"perm {perm} is not a permutation")
        amp = self.reshaped().transpose(perm).ravel()
        return PureState(amp, tuple(self.dims[p] for p in perm))

    def isclose(self, other: "PureState", atol: float = 1e-9) -> bool:
        """Equality up to global phase (both are phase-canonicalized)."""
        return self.dims == other.dims and bool(
            np.abs(self.amplitudes - other.amplitudes).max() <= atol
        )


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator over local dimensions."""

    matrix: np.ndarray = field(repr=False)
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _check_dims(self.dims)
        mat = np.array(self.matrix, dtype=complex, copy=True)
        d = prod(dims)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        # before any arithmetic, which would warn on inf - inf
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has a NaN or infinite entry")
        if not np.abs(mat - mat.conj().T).max() <= HERMITIAN_ATOL:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        if not abs(np.trace(mat).real - 1.0) <= HERMITIAN_ATOL:
            raise ValueError(f"trace {np.trace(mat)!r} is not 1 within 1e-10")
        if not np.linalg.eigvalsh(mat).min() >= -HERMITIAN_ATOL:
            raise ValueError("density matrix has an eigenvalue below -1e-10")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def permute(self, perm: Sequence[int]) -> "DensityMatrix":
        mat = permute_matrix(self.matrix, self.dims, perm)
        return DensityMatrix(mat, tuple(self.dims[p] for p in perm))

    def isclose(self, other: "DensityMatrix", atol: float = 1e-9) -> bool:
        return self.dims == other.dims and bool(
            np.abs(self.matrix - other.matrix).max() <= atol
        )


State = PureState | DensityMatrix


def as_density(state: State) -> DensityMatrix:
    """Coerce a pure state to its projector; pass density matrices through."""
    if isinstance(state, PureState):
        return state.density()
    if isinstance(state, DensityMatrix):
        return state
    raise TypeError(f"expected PureState or DensityMatrix, got {type(state)!r}")


def _cut_matrix(psi: PureState, block: Sequence[int]) -> np.ndarray:
    """Amplitudes of ``psi`` with rows over ``block``, in its order, and columns
    over the other parties; ``M M^dag`` is the reduced state on ``block``.
    ``block`` must already be a valid list of distinct indices: no check here."""
    rest = [i for i in range(psi.n_parties) if i not in block]
    t = psi.reshaped().transpose(list(block) + rest)
    return t.reshape(prod(psi.dims[i] for i in block), -1)


def _marginal_spectrum(psi: PureState, block: Sequence[int]) -> np.ndarray:
    """Non-increasing spectrum of the reduced state of ``psi`` on ``block``: the
    squared singular values of the cut matrix, zero-padded to the block's dimension."""
    m = _cut_matrix(psi, block)
    lam = np.linalg.svd(m, compute_uv=False) ** 2
    return np.pad(lam, (0, m.shape[0] - lam.size))


def partial_trace(state: State, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the subsystems in ``keep`` (original order preserved)."""
    keep = sorted(set(_check_indices(keep)))
    if isinstance(state, PureState):
        n = state.n_parties
        if not keep:
            raise ValueError("keep must be a non-empty set of subsystem indices")
        if keep[0] < 0 or keep[-1] >= n:
            raise ValueError(f"keep {keep} out of range for {n} subsystems")
        m = _cut_matrix(state, keep)
        return DensityMatrix(m @ m.conj().T, tuple(state.dims[i] for i in keep))
    rho = as_density(state)
    red = partial_trace_matrix(rho.matrix, rho.dims, keep)
    return DensityMatrix(red, tuple(rho.dims[i] for i in keep))


# ---------------------------------------------------------------------------
# elementary constructors
# ---------------------------------------------------------------------------

def basis_state(dims: Sequence[int], occupation: Sequence[int]) -> PureState:
    """Computational basis state ``|occupation[0], occupation[1], ...>``."""
    dims = _check_dims(dims)
    occ = list(occupation)
    if len(occ) != len(dims) or any(not 0 <= o < d for o, d in zip(occ, dims)):
        raise ValueError(f"occupation {occ} invalid for dims {dims}")
    amp = np.zeros(prod(dims), dtype=complex)
    amp[int(np.ravel_multi_index(occ, dims))] = 1.0
    return PureState(amp, dims)


def product_state(*factors: PureState) -> PureState:
    """Tensor product of pure states."""
    if not factors:
        raise ValueError("need at least one factor")
    amp = factors[0].amplitudes
    dims: tuple[int, ...] = factors[0].dims
    for f in factors[1:]:
        amp = np.kron(amp, f.amplitudes)
        dims = dims + f.dims
    return PureState(amp, dims)


def random_pure_state(dims: Sequence[int], rng=None) -> PureState:
    """Haar-random pure state."""
    dims = _check_dims(dims)
    rng = np.random.default_rng(rng)
    d = prod(dims)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(z / np.linalg.norm(z), dims)


def random_density_matrix(dims: Sequence[int], rank: int | None = None, rng=None) -> DensityMatrix:
    """Random mixed state ``G G^dag / Tr`` with Ginibre factor of given rank."""
    rng = np.random.default_rng(rng)
    dims = _check_dims(dims)
    d = prod(dims)
    r = d if rank is None else operator.index(rank)
    if not 1 <= r <= d:
        raise ValueError(f"rank must be in 1..{d}")
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def maximally_mixed(dims: Sequence[int]) -> DensityMatrix:
    dims = _check_dims(dims)
    d = prod(dims)
    return DensityMatrix(np.eye(d) / d, dims)


# ---------------------------------------------------------------------------
# named states
# ---------------------------------------------------------------------------

def bell_state(d: int = 2) -> PureState:
    """Maximally entangled two-qudit state ``sum_i |ii> / sqrt(d)``."""
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    _check_dims((d, d))
    amp = np.zeros(d * d, dtype=complex)
    amp[[i * d + i for i in range(d)]] = 1.0 / np.sqrt(d)
    return PureState(amp, (d, d))


def ghz_state(n: int = 3, d: int = 2, lam: Sequence[float] | None = None) -> PureState:
    """Generalized GHZ state ``sum_i sqrt(lam_i) |i>^(x n)``.

    ``lam`` is a ``d``-point probability vector; it defaults to the flat one.
    """
    if n < 2:
        raise ValueError(f"need at least 2 parties, got {n}")
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    # d >= 2, so past DIM_CAP.bit_length() parties d^n exceeds the cap; this
    # check comes before the tuple of n dimensions is built
    if n > DIM_CAP.bit_length():
        raise SizeLimitError(f"{n} parties of dimension {d} exceed the dense cap {DIM_CAP}")
    dims = _check_dims((d,) * n)
    if lam is None:
        lam = np.full(d, 1.0 / d)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (d,) or not lam.min() >= -1e-12:
        raise ValueError(f"lambda must be {d} non-negative numbers")
    if not abs(lam.sum() - 1.0) <= HERMITIAN_ATOL:
        raise ValueError(f"lambda sums to {lam.sum()!r}, not 1 within 1e-10")
    amp = np.zeros(d**n, dtype=complex)
    stride = (d**n - 1) // (d - 1)
    amp[[i * stride for i in range(d)]] = np.sqrt(np.clip(lam, 0.0, None))
    return PureState.normalized(amp, dims)


def w_state() -> PureState:
    """Three-qubit W state ``(|001> + |010> + |100>) / sqrt(3)``."""
    amp = np.zeros(8, dtype=complex)
    amp[[1, 2, 4]] = 1.0 / np.sqrt(3)
    return PureState(amp, (2, 2, 2))


#: Largest vertex count of a graph state: 2^12 amplitudes is the dense cap.
_GRAPH_VERTEX_CAP = 12


def _check_vertex_count(m: int) -> None:
    if not 1 <= m <= _GRAPH_VERTEX_CAP:
        raise ValueError(f"vertex count {m} outside supported range 1..{_GRAPH_VERTEX_CAP}")


def graph_state(adjacency) -> PureState:
    """Graph state: qubits in ``|+>`` with a controlled-phase gate per edge.

    ``adjacency`` is a symmetric 0/1 matrix with zero diagonal, at most 12
    vertices.  The output has amplitudes ``+-1/sqrt(2^m)`` only: each CZ flips
    the sign of the basis states where both endpoints are 1.
    """
    adj = np.asarray(adjacency)
    m = adj.shape[0]
    if adj.ndim != 2 or adj.shape != (m, m):
        raise ValueError("adjacency must be a square matrix")
    _check_vertex_count(m)
    if not np.array_equal(adj, adj.T) or np.any(np.diag(adj) != 0):
        raise ValueError("adjacency must be symmetric with zero diagonal")
    if not np.isin(adj, (0, 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")
    amp = np.full(2**m, 1.0 / np.sqrt(2**m), dtype=complex)
    idx = np.arange(2**m)
    bits = (idx[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1
    for i in range(m):
        for j in range(i + 1, m):
            if adj[i, j]:
                amp[(bits[:, i] & bits[:, j]) == 1] *= -1.0
    return PureState(amp, (2,) * m)


def bell_basis_2q() -> list[PureState]:
    """The two-qubit Bell basis ``(|00>+-|11>)/sqrt2, (|01>+-|10>)/sqrt2``."""
    s = 1.0 / np.sqrt(2)
    vecs = [
        np.array([s, 0, 0, s]),
        np.array([s, 0, 0, -s]),
        np.array([0, s, s, 0]),
        np.array([0, s, -s, 0]),
    ]
    return [PureState(v, (2, 2)) for v in vecs]


def smolin_state() -> DensityMatrix:
    """Four-qubit unlockable state: equal mixture of ``Bell_AB (x) Bell_CD``."""
    mat = np.zeros((16, 16), dtype=complex)
    for b in bell_basis_2q():
        proj = np.outer(b.amplitudes, b.amplitudes.conj())
        mat += np.kron(proj, proj)
    return DensityMatrix(mat / 4.0, (2, 2, 2, 2))


def upb_basis() -> list[PureState]:
    """The three-qubit unextendible product basis {000, +1-, 1-+, -+1}."""
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    members = [
        (zero, zero, zero),
        (plus, one, minus),
        (one, minus, plus),
        (minus, plus, one),
    ]
    return [
        PureState(np.kron(np.kron(a, b), c), (2, 2, 2)) for a, b, c in members
    ]


def upb_state() -> DensityMatrix:
    """Three-qubit PPT entangled state: normalized projector complementary to the UPB."""
    proj = np.zeros((8, 8), dtype=complex)
    for v in upb_basis():
        proj += np.outer(v.amplitudes, v.amplitudes.conj())
    return DensityMatrix((np.eye(8) - proj) / 4.0, (2, 2, 2))


def psi25_state() -> PureState:
    """Five-qubit locally maximally entangled state with trivial local stabilizer.

    ``sqrt(7)|00000> + SYM(|00111>) + sqrt(5)|11111>`` normalized, where the
    symmetrization expands to the 10 distinct weight-3 basis states with unit
    coefficients.
    """
    amp = np.zeros(32, dtype=complex)
    amp[0] = np.sqrt(7.0)
    amp[31] = np.sqrt(5.0)
    for b in range(32):
        if bin(b).count("1") == 3:
            amp[b] = 1.0
    return PureState.normalized(amp, (2,) * 5)


def phi_a_state(a: complex) -> PureState:
    """Four-qubit family ``a(|0000>+|1111>) + |0011>+|0101>+|0110>``, normalized."""
    amp = np.zeros(16, dtype=complex)
    amp[0] = amp[15] = complex(a)
    amp[[3, 5, 6]] = 1.0
    if np.linalg.norm(amp) < 1e-14:
        raise ValueError("resulting vector is zero")
    return PureState.normalized(amp, (2, 2, 2, 2))


def acin_state(r: Sequence[float], theta: float = 0.0) -> PureState:
    """Three-qubit state ``r0 e^{i theta}|000> + r1|100> + r2|010> + r3|001> + r4|111>``.

    ``r`` holds five non-negative amplitudes with ``sum r_j^2 = 1``.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (5,) or not r.min() >= -1e-12:
        raise ValueError("r must be 5 non-negative reals")
    if not abs((r**2).sum() - 1.0) <= HERMITIAN_ATOL:
        raise ValueError(f"sum of squares {float((r**2).sum())!r} is not 1 within 1e-10")
    amp = np.zeros(8, dtype=complex)
    amp[0b000] = r[0] * np.exp(1j * theta)
    amp[0b100] = r[1]
    amp[0b010] = r[2]
    amp[0b001] = r[3]
    amp[0b111] = r[4]
    return PureState.normalized(amp, (2, 2, 2))


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def purity(rho: State) -> float:
    """``Tr rho^2``, between ``1/dim`` and 1."""
    m = as_density(rho).matrix
    return float(np.einsum("ij,ji->", m, m).real)


def shannon_entropy(p: Sequence[float], base: float | None = None) -> float:
    """Entropy of a probability vector; ``0 log 0 = 0``; natural log by default."""
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-15]
    h = float(-(p * np.log(p)).sum())
    return h / np.log(base) if base is not None else h


def von_neumann_entropy(rho: State, base: float | None = None) -> float:
    """Entropy of the spectrum of ``rho``; natural log by default, base 2 optional."""
    vals = np.linalg.eigvalsh(as_density(rho).matrix)
    return shannon_entropy(np.clip(vals, 0.0, None), base=base)


def conditional_entropy(
    state: State, a: Iterable[int], b: Iterable[int], base: float | None = None
) -> float:
    """Conditional entropy ``S(A|B) = S(rho_AB) - S(rho_B)``; may be negative."""
    a = sorted(set(_check_indices(a)))
    b = sorted(set(_check_indices(b)))
    if set(a) & set(b):
        raise ValueError(f"index sets overlap: {a} and {b}")
    if not a or not b:
        raise ValueError("both index sets must be non-empty")
    rho_ab = partial_trace(state, a + b)
    rho_b = partial_trace(state, b)
    return von_neumann_entropy(rho_ab, base) - von_neumann_entropy(rho_b, base)
