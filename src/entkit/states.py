"""State containers, named multipartite states and basic state functionals.

``PureState`` holds a normalized amplitude vector (global phase fixed so the
first nonzero amplitude is real positive); ``DensityMatrix`` holds a
Hermitian, positive semi-definite, unit-trace operator.  Both carry the list
of local dimensions and use the package-wide row-major basis convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DIM_CAP,
    HERMITIAN_ATOL,
    _as_int,
    _check_base,
    _check_cap,
    _check_dims,
    _check_finite,
    _check_keep,
    _check_perm,
    _check_probabilities,
    _check_same_dims,
    _rng,
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
                f"state norm {float(norm)!r} is not 1 within 1e-10; "
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
        """Build a state from an unnormalized, nonzero, finite amplitude vector.

        The amplitudes are divided by their largest real or imaginary part
        first, so the norm stays finite for any finite entries.
        """
        amp = np.asarray(amplitudes, dtype=complex).ravel()
        _check_finite(amp, "amplitudes")
        scale = np.abs(amp.view(float)).max(initial=0.0)  # real and imaginary parts
        # the norm is at least ``scale``: it can fall under 1e-14 only when
        # ``scale`` does, and then it cannot overflow
        if scale < 1e-14 and np.linalg.norm(amp) < 1e-14:
            raise ValueError("cannot normalize a zero vector")
        amp = amp / scale
        return cls(amp / np.linalg.norm(amp), tuple(dims))

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
        _check_same_dims(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def permute(self, perm: Sequence[int]) -> "PureState":
        perm = _check_perm(perm, self.n_parties)
        amp = self.reshaped().transpose(perm).ravel()
        return PureState(amp, tuple(self.dims[p] for p in perm))

    def isclose(self, other: "PureState", atol: float = 1e-9) -> bool:
        """Equality up to global phase (both are phase-canonicalized)."""
        return self.dims == other.dims and bool(
            np.abs(self.amplitudes - other.amplitudes).max() <= atol
        )


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator over local dimensions.

    Positivity is checked by a Cholesky factorization of the matrix with its
    diagonal raised by 1e-10, which fails when the least eigenvalue is below
    -1e-10.  Rounding can move this boundary by about ``d * eps * ||rho||``.
    """

    matrix: np.ndarray = field(repr=False)
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _check_dims(self.dims)
        mat = np.array(self.matrix, dtype=complex, copy=True)
        d = prod(dims)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        # before any arithmetic, which would warn on inf - inf
        _check_finite(mat, "density matrix entries")
        if not np.abs(mat - mat.conj().T).max() <= HERMITIAN_ATOL:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        trace = float(np.trace(mat).real)
        if not abs(trace - 1.0) <= HERMITIAN_ATOL:
            raise ValueError(f"trace {trace!r} is not 1 within 1e-10")
        shifted = mat.copy()
        shifted.flat[:: d + 1] += HERMITIAN_ATOL
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise ValueError("density matrix has an eigenvalue below -1e-10") from None
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
    """Coerce a pure state to its projector; pass density matrices through.
    Anything else is a ``ValueError``."""
    if isinstance(state, PureState):
        return state.density()
    if isinstance(state, DensityMatrix):
        return state
    raise ValueError(f"expected PureState or DensityMatrix, got {type(state).__name__}")


def _require_pure(psi: PureState) -> None:
    """Refuse anything but a ``PureState``, such as the projector of one."""
    if not isinstance(psi, PureState):
        raise ValueError(f"expected a PureState, got {type(psi).__name__}")


def _cut_matrix(psi: PureState, block: Sequence[int]) -> np.ndarray:
    """Amplitudes of ``psi`` with rows over ``block``, in its order, and columns
    over the other parties; ``M M^dag`` is the reduced state on ``block``.
    ``block`` must already be valid distinct indices; only ``psi`` is checked here."""
    _require_pure(psi)
    rest = [i for i in range(psi.n_parties) if i not in block]
    t = psi.reshaped().transpose(list(block) + rest)
    return t.reshape(prod(psi.dims[i] for i in block), -1)


def _marginal_spectrum(psi: PureState, block: Sequence[int]) -> np.ndarray:
    """Non-increasing squared singular values of the cut matrix, the Schmidt
    vector of ``block | rest``: ``min(d_block, d_rest)`` entries, the spectrum
    of the reduced state on ``block`` less the zeros past them.  The one place
    that takes the spectrum of a cut."""
    return np.linalg.svd(_cut_matrix(psi, block), compute_uv=False) ** 2


def partial_trace(state: State, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the subsystems in ``keep`` (original order preserved)."""
    rho = state if isinstance(state, PureState) else as_density(state)
    keep = _check_keep(keep, rho.n_parties)
    dims = tuple(rho.dims[i] for i in keep)
    if isinstance(rho, PureState):
        m = _cut_matrix(rho, keep)
        return DensityMatrix(m @ m.conj().T, dims)
    return DensityMatrix(partial_trace_matrix(rho.matrix, rho.dims, keep), dims)


# ---------------------------------------------------------------------------
# elementary constructors
# ---------------------------------------------------------------------------

def basis_state(dims: Sequence[int], occupation: Sequence[int]) -> PureState:
    """Computational basis state ``|occupation[0], occupation[1], ...>``."""
    dims = _check_dims(dims)
    occ = [_as_int(o, f"occupation[{i}]") for i, o in enumerate(occupation)]
    if len(occ) != len(dims) or any(not 0 <= o < d for o, d in zip(occ, dims)):
        raise ValueError(f"occupation {occ} invalid for dims {dims}")
    amp = np.zeros(prod(dims), dtype=complex)
    amp[int(np.ravel_multi_index(occ, dims))] = 1.0
    return PureState(amp, dims)


def product_state(*factors: PureState) -> PureState:
    """Tensor product of pure states."""
    if not factors:
        raise ValueError("need at least one factor")
    for f in factors:
        _require_pure(f)
    amp = factors[0].amplitudes
    dims: tuple[int, ...] = factors[0].dims
    for f in factors[1:]:
        amp = np.kron(amp, f.amplitudes)
        dims = dims + f.dims
    return PureState(amp, dims)


def random_pure_state(dims: Sequence[int], rng=None) -> PureState:
    """Haar-random pure state."""
    dims = _check_dims(dims)
    rng = _rng(rng, "rng")
    d = prod(dims)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(z / np.linalg.norm(z), dims)


def random_density_matrix(dims: Sequence[int], rank: int | None = None, rng=None) -> DensityMatrix:
    """Random mixed state ``G G^dag / Tr`` with Ginibre factor of given rank."""
    rng = _rng(rng, "rng")
    dims = _check_dims(dims)
    d = prod(dims)
    r = d if rank is None else _as_int(rank, "rank")
    if not 1 <= r <= d:
        raise ValueError(f"rank must be in 1..{d}")
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


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
    n, d = _as_int(n, "n"), _as_int(d, "d")
    if n < 2:
        raise ValueError(f"need at least 2 parties, got {n}")
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    # d >= 2, so past DIM_CAP.bit_length() parties d^n exceeds the cap; this
    # check comes before the tuple of n dimensions is built
    _check_cap(n, DIM_CAP.bit_length(), "GHZ party count")
    dims = _check_dims((d,) * n)
    lam = np.full(d, 1.0 / d) if lam is None else np.asarray(lam, dtype=float)
    if lam.shape != (d,):
        raise ValueError(f"lambda must be {d} numbers")
    lam = _check_probabilities(lam, "lambda", slack=1e-12, normalized=True)
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


def graph_state(adjacency) -> PureState:
    """Graph state: qubits in ``|+>`` with a controlled-phase gate per edge.

    ``adjacency`` is a symmetric 0/1 matrix with zero diagonal, at most 12
    vertices.  The output has amplitudes ``+-1/sqrt(2^m)`` only: each CZ flips
    the sign of the basis states where both endpoints are 1.
    """
    adj = np.asarray(adjacency)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or not adj.size:
        raise ValueError("adjacency must be a non-empty square matrix")
    m = adj.shape[0]
    _check_cap(m, _GRAPH_VERTEX_CAP, "graph vertex count")
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
    a = complex(a)
    _check_finite(a, "a")
    amp = np.zeros(16, dtype=complex)
    amp[0] = amp[15] = a
    amp[[3, 5, 6]] = 1.0
    return PureState.normalized(amp, (2, 2, 2, 2))


def acin_state(r: Sequence[float], theta: float = 0.0) -> PureState:
    """Three-qubit state ``r0 e^{i theta}|000> + r1|100> + r2|010> + r3|001> + r4|111>``.

    ``r`` holds five non-negative amplitudes with ``sum r_j^2 = 1``.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (5,) or not r.min() >= -1e-12:
        raise ValueError("r must be 5 non-negative reals")
    with np.errstate(over="ignore"):  # an amplitude near 1e308 squares to inf, refused below
        total = float((r**2).sum())
    if not abs(total - 1.0) <= HERMITIAN_ATOL:
        raise ValueError(f"sum of squares {total!r} is not 1 within 1e-10")
    _check_finite(theta, "theta")
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
    """Entropy of a probability vector; ``0 log 0 = 0``; natural log by default.

    Every entry of ``p`` must be finite and >= 0, and ``base`` finite, > 0 and
    not 1: each entropy of the package is taken here, so this is its one check.
    """
    _check_base(base)
    p = _check_probabilities(p)
    p = p[p > 1e-15]
    h = float(-(p * np.log(p)).sum())
    return h / np.log(base) if base is not None else h


def von_neumann_entropy(rho: State, base: float | None = None) -> float:
    """Entropy of the spectrum of ``rho``; natural log by default, base 2 optional."""
    vals = np.linalg.eigvalsh(as_density(rho).matrix)
    return shannon_entropy(np.clip(vals, 0.0, None), base=base)


def _entropy_on(state: State, block: Iterable[int], base: float | None = None) -> float:
    """Entropy of the reduced state on ``block``, a checked index list: from
    the cut spectrum of a pure state, which builds no matrix (``[1]`` when
    ``block`` is every party), and from the partial trace of a mixed one."""
    if isinstance(state, PureState):
        return shannon_entropy(_marginal_spectrum(state, block), base=base)
    return von_neumann_entropy(partial_trace(state, block), base)


def conditional_entropy(
    state: State, a: Iterable[int], b: Iterable[int], base: float | None = None
) -> float:
    """Conditional entropy ``S(A|B) = S(rho_AB) - S(rho_B)``; may be negative.

    A pure state's entropies come from its cut spectra (:func:`_entropy_on`).
    """
    state = state if isinstance(state, PureState) else as_density(state)
    a, b = _check_keep(a, state.n_parties, "a"), _check_keep(b, state.n_parties, "b")
    if set(a) & set(b):
        raise ValueError(f"index sets overlap: {a} and {b}")
    return _entropy_on(state, a + b, base) - _entropy_on(state, b, base)
