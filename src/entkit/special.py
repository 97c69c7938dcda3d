"""Locally-maximally-entangled and absolutely-maximally-entangled predicates,
plus the GHZ stabilizer family check.

``ame_feasibility`` encodes the known existence facts as a rule cascade:
necessary dimension bounds first, then explicit nonexistence results, then
explicit existence results, and an honest ``UNKNOWN`` when none applies.
Every verdict names the rule that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .states import PureState, _marginal_spectrum, ghz_state


def _maximally_mixed_on(psi: PureState, blocks, tol: float) -> bool:
    """True iff each block's reduced state is within trace distance ``tol`` of
    ``I/d``: half the 1-norm of its spectrum minus ``1/d``."""
    for block in blocks:
        lam = _marginal_spectrum(psi, block)
        if 0.5 * np.abs(lam - 1.0 / lam.size).sum() > tol:
            return False
    return True


def is_lme(psi: PureState, tol: float = 1e-8) -> bool:
    """True iff every single-party reduction is maximally mixed within ``tol``."""
    return _maximally_mixed_on(psi, ([k] for k in range(psi.n_parties)), tol)


def is_ame(psi: PureState, tol: float = 1e-8) -> bool:
    """True iff every reduction to at most ``floor(N/2)`` parties is maximally mixed."""
    n = psi.n_parties
    subsets = (s for k in range(1, n // 2 + 1) for s in combinations(range(n), k))
    return _maximally_mixed_on(psi, subsets, tol)


# ---------------------------------------------------------------------------
# GHZ stabilizer family
# ---------------------------------------------------------------------------

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.diag([1.0, -1.0]).astype(complex)


def stabilizes(unitary: np.ndarray, psi: PureState, tol: float = 1e-10) -> bool:
    """True iff ``unitary`` fixes ``psi`` up to a global phase within ``tol``."""
    v = np.asarray(unitary, dtype=complex) @ psi.amplitudes
    phase = np.vdot(psi.amplitudes, v)
    return bool(np.abs(v - phase * psi.amplitudes).max() <= tol and abs(abs(phase) - 1.0) <= tol)


def ghz_stabilizer_elements(phi1: float, phi2: float) -> tuple[np.ndarray, np.ndarray]:
    """The flip element ``sx (x) sx (x) sx`` and the phase-family element
    ``e^{i phi1 sz} (x) e^{i phi2 sz} (x) e^{-i (phi1+phi2) sz}``."""
    flip = np.kron(np.kron(_SX, _SX), _SX)

    def rot(phi):
        return np.diag([np.exp(1j * phi), np.exp(-1j * phi)])

    phase = np.kron(np.kron(rot(phi1), rot(phi2)), rot(-(phi1 + phi2)))
    return flip, phase


def ghz_stabilizer_check(phi1: float, phi2: float, tol: float = 1e-10) -> bool:
    """Verify both GHZ stabilizer family elements fix the 3-qubit GHZ state."""
    ghz = ghz_state(3, 2)
    flip, phase = ghz_stabilizer_elements(phi1, phi2)
    return stabilizes(flip, ghz, tol) and stabilizes(phase, ghz, tol)


# ---------------------------------------------------------------------------
# AME feasibility facts
# ---------------------------------------------------------------------------

class Feasibility(Enum):
    EXISTS = "Exists"
    NOT_EXISTS = "NotExists"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class AmeVerdict:
    n: int
    d: int
    feasible: Feasibility
    reason: str


def _is_prime_power(d: int) -> bool:
    if d < 2:
        return False
    p = next(f for f in range(2, d + 1) if d % f == 0)
    while d % p == 0:
        d //= p
    return d == 1


def ame_feasibility(n: int, d: int) -> AmeVerdict:
    """Existence verdict for an AME state of ``n`` parties with ``d`` levels.

    Rule order: dimension bounds (``n <= 2(d^2-1)`` for even ``n``,
    ``n <= 2(d(d+1)-1)`` for odd ``n``), the qubit nonexistence results
    (``n = 4`` and ``n >= 7``), the qubit graph-state constructions
    (``n in {2,3,5,6}``), the prime-power construction (``n <= d``), the
    four-party results (``d = 6`` and ``d >= 7``), the Bell state
    ``sum_i |i, i>`` for ``n = 2`` and ``sum_{i,j} |i, j, i+j mod d>`` for
    ``n = 3`` at any ``d``, else ``UNKNOWN``.
    """
    if n < 2 or d < 2:
        raise ValueError(f"need n >= 2 parties and d >= 2 levels, got ({n}, {d})")
    if n % 2 == 0 and n > 2 * (d * d - 1):
        return AmeVerdict(n, d, Feasibility.NOT_EXISTS, "even-party-bound")
    if n % 2 == 1 and n > 2 * (d * (d + 1) - 1):
        return AmeVerdict(n, d, Feasibility.NOT_EXISTS, "odd-party-bound")
    if d == 2 and n == 4:
        return AmeVerdict(n, d, Feasibility.NOT_EXISTS, "no-four-qubit-ame")
    if d == 2 and n >= 7:
        return AmeVerdict(n, d, Feasibility.NOT_EXISTS, "no-seven-plus-qubit-ame")
    if d == 2 and n in (2, 3, 5, 6):
        return AmeVerdict(n, d, Feasibility.EXISTS, "qubit-graph-state")
    if n <= d and _is_prime_power(d):
        return AmeVerdict(n, d, Feasibility.EXISTS, "prime-power-construction")
    if n == 4 and d == 6:
        return AmeVerdict(n, d, Feasibility.EXISTS, "four-party-dim-six")
    if n == 4 and d >= 7:
        return AmeVerdict(n, d, Feasibility.EXISTS, "four-party-large-dim")
    if n == 2:
        return AmeVerdict(n, d, Feasibility.EXISTS, "bell-state")
    if n == 3:
        return AmeVerdict(n, d, Feasibility.EXISTS, "three-party-sum-state")
    return AmeVerdict(n, d, Feasibility.UNKNOWN, "open")
