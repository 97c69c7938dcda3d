import numpy as np
import pytest

import entkit as ek
from entkit.special import Feasibility, ghz_stabilizer_elements, stabilizes


def test_is_lme():
    assert ek.is_lme(ek.bell_state(2))
    assert ek.is_lme(ek.bell_state(5))
    assert not ek.is_lme(ek.w_state())
    assert ek.is_lme(ek.psi25_state())
    assert ek.is_lme(ek.ghz_state(4, 3))
    # the 4-level party holds diag(1/2, 1/2, 0, 0): the zero eigenvalues count
    lopsided = ek.PureState(np.array([1, 0, 0, 1, 0, 0, 0, 0]) / np.sqrt(2), (4, 2))
    assert not ek.is_lme(lopsided)
    assert not ek.is_ame(lopsided)
    # its trace distance to I/4 is 1/2, of which the two zeros carry half
    assert ek.is_lme(lopsided, tol=0.51) and not ek.is_lme(lopsided, tol=0.3)


def test_ghz_stabilizer():
    ghz = ek.ghz_state(3, 2)
    flip, _ = ghz_stabilizer_elements(0.0, 0.0)
    assert stabilizes(flip, ghz)
    assert ek.ghz_stabilizer_check(np.pi / 7, np.pi / 7)
    assert ek.ghz_stabilizer_check(0.0, 0.0)
    assert ek.ghz_stabilizer_check(1.3, -0.4)
    # flipping the sign of the third phase breaks the family
    def rot(phi):
        return np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    wrong = np.kron(np.kron(rot(np.pi / 7), rot(np.pi / 7)), rot(2 * np.pi / 7))
    assert not stabilizes(wrong, ghz)
    # a NaN angle used to give False, an infinite one a RuntimeWarning, and
    # a NaN unitary False
    for phi1, phi2, name in ((np.nan, 0.0, "phi1"), (np.inf, 0.0, "phi1"), (0.0, -np.inf, "phi2")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ek.ghz_stabilizer_check(phi1, phi2)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ghz_stabilizer_elements(phi1, phi2)
    with pytest.raises(ValueError, match="^unitary must be finite"):
        stabilizes(np.full((8, 8), np.nan), ghz)


def test_is_ame():
    assert ek.is_ame(ek.ghz_state(3, 2))
    assert not ek.is_ame(ek.ghz_state(4, 2))
    for d in (2, 3):
        assert ek.is_ame(ek.bell_state(d))
    assert not ek.is_ame(ek.w_state())


def test_ame_implies_lme():
    candidates = [
        ek.ghz_state(3, 2),
        ek.bell_state(2),
        ek.bell_state(3),
        ek.ghz_state(4, 2),
        ek.w_state(),
        ek.psi25_state(),
    ]
    for psi in candidates:
        if ek.is_ame(psi):
            assert ek.is_lme(psi)


def test_ame_feasibility_fact_table():
    cases = {
        (4, 2): Feasibility.NOT_EXISTS,
        (7, 2): Feasibility.NOT_EXISTS,
        (8, 2): Feasibility.NOT_EXISTS,
        (2, 2): Feasibility.EXISTS,
        (3, 2): Feasibility.EXISTS,
        (5, 2): Feasibility.EXISTS,
        (6, 2): Feasibility.EXISTS,
        (4, 6): Feasibility.EXISTS,
        (4, 7): Feasibility.EXISTS,
        (4, 10): Feasibility.EXISTS,
        (3, 3): Feasibility.EXISTS,
        (2, 5): Feasibility.EXISTS,
        (5, 5): Feasibility.EXISTS,
        (2, 6): Feasibility.EXISTS,                # Bell state
        (3, 10): Feasibility.EXISTS,               # sum_ij |i, j, i+j mod d>
        (12, 2): Feasibility.NOT_EXISTS,   # even-party bound 2(d^2-1) = 6
        (11, 2): Feasibility.NOT_EXISTS,   # odd-party bound 2(d(d+1)-1) = 10
        (18, 3): Feasibility.NOT_EXISTS,   # even-party bound 16 for d = 3
        (23, 3): Feasibility.NOT_EXISTS,   # odd-party bound 22 for d = 3
    }
    for (n, d), expect in cases.items():
        verdict = ek.ame_feasibility(n, d)
        assert verdict.feasible is expect, (n, d, verdict)
        assert verdict.reason


def test_ame_feasibility_total_with_rules():
    for n in range(2, 10):
        for d in range(2, 8):
            verdict = ek.ame_feasibility(n, d)
            assert verdict.feasible in (
                Feasibility.EXISTS, Feasibility.NOT_EXISTS, Feasibility.UNKNOWN,
            )
            assert isinstance(verdict.reason, str) and verdict.reason
    with pytest.raises(ValueError):
        ek.ame_feasibility(1, 2)
    # a genuinely open spot stays honest
    assert ek.ame_feasibility(5, 6).feasible is Feasibility.UNKNOWN
