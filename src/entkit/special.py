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
from math import prod

import numpy as np

from .core import _as_int, _check_finite, _check_tol
from .states import PureState, _marginal_spectrum, _require_pure, ghz_state


def _maximally_mixed_on(psi: PureState, blocks, tol: float) -> bool:
    """True iff each block's reduced state is within trace distance ``tol`` of
    ``I/d``: half the 1-norm of its cut spectrum, padded with zeros to ``d``
    entries, minus ``1/d``.  ``tol`` must be finite and >= 0."""
    _check_tol(tol)
    for block in blocks:
        lam = _marginal_spectrum(psi, block)
        d = prod(psi.dims[i] for i in block)
        if 0.5 * np.abs(np.pad(lam, (0, d - lam.size)) - 1.0 / d).sum() > tol:
            return False
    return True


def is_lme(psi: PureState, tol: float = 1e-8) -> bool:
    """True iff every single-party reduction is maximally mixed within ``tol``."""
    _require_pure(psi)
    return _maximally_mixed_on(psi, ([k] for k in range(psi.n_parties)), tol)


def is_ame(psi: PureState, tol: float = 1e-8) -> bool:
    """True iff every reduction to at most ``floor(N/2)`` parties is maximally mixed."""
    _require_pure(psi)
    n = psi.n_parties
    subsets = (s for k in range(1, n // 2 + 1) for s in combinations(range(n), k))
    return _maximally_mixed_on(psi, subsets, tol)


# ---------------------------------------------------------------------------
# GHZ stabilizer family
# ---------------------------------------------------------------------------

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def stabilizes(unitary: np.ndarray, psi: PureState, tol: float = 1e-10) -> bool:
    """True iff ``unitary`` fixes ``psi`` up to a global phase within ``tol``,
    which must be finite and >= 0."""
    _require_pure(psi)
    _check_tol(tol)
    unitary = np.asarray(unitary, dtype=complex)
    _check_finite(unitary, "unitary")
    v = unitary @ psi.amplitudes
    phase = np.vdot(psi.amplitudes, v)
    return bool(np.abs(v - phase * psi.amplitudes).max() <= tol and abs(abs(phase) - 1.0) <= tol)


def ghz_stabilizer_elements(phi1: float, phi2: float) -> tuple[np.ndarray, np.ndarray]:
    """The flip element ``sx (x) sx (x) sx`` and the phase-family element
    ``e^{i phi1 sz} (x) e^{i phi2 sz} (x) e^{-i (phi1+phi2) sz}``; both angles
    must be finite."""
    _check_finite(phi1, "phi1")
    _check_finite(phi2, "phi2")
    flip = np.kron(np.kron(_SX, _SX), _SX)
    rot = [np.diag([np.exp(1j * p), np.exp(-1j * p)]) for p in (phi1, phi2, -(phi1 + phi2))]
    return flip, np.kron(np.kron(rot[0], rot[1]), rot[2])


def ghz_stabilizer_check(phi1: float, phi2: float, tol: float = 1e-10) -> bool:
    """Verify both GHZ stabilizer family elements fix the 3-qubit GHZ state;
    ``tol`` as in :func:`stabilizes`."""
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
    """Whether ``d >= 2`` is a power of a prime."""
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
    n, d = _as_int(n, "n"), _as_int(d, "d")
    if n < 2 or d < 2:
        raise ValueError(f"need n >= 2 parties and d >= 2 levels, got ({n}, {d})")
    rules = (  # (applies, verdict, rule), in the order above
        (n % 2 == 0 and n > 2 * (d * d - 1), Feasibility.NOT_EXISTS, "even-party-bound"),
        (n % 2 == 1 and n > 2 * (d * (d + 1) - 1), Feasibility.NOT_EXISTS, "odd-party-bound"),
        (d == 2 and n == 4, Feasibility.NOT_EXISTS, "no-four-qubit-ame"),
        (d == 2 and n >= 7, Feasibility.NOT_EXISTS, "no-seven-plus-qubit-ame"),
        (d == 2 and n in (2, 3, 5, 6), Feasibility.EXISTS, "qubit-graph-state"),
        (n <= d and _is_prime_power(d), Feasibility.EXISTS, "prime-power-construction"),
        (n == 4 and d == 6, Feasibility.EXISTS, "four-party-dim-six"),
        (n == 4 and d >= 7, Feasibility.EXISTS, "four-party-large-dim"),
        (n == 2, Feasibility.EXISTS, "bell-state"),
        (n == 3, Feasibility.EXISTS, "three-party-sum-state"),
        (True, Feasibility.UNKNOWN, "open"),
    )
    feasible, reason = next((f, r) for hit, f, r in rules if hit)
    return AmeVerdict(n, d, feasible, reason)
