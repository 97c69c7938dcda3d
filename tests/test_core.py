import numpy as np
import pytest

import entkit as ek
from entkit.core import partial_trace_matrix
from entkit.states import random_density_matrix, random_pure_state

from conftest import ptrace_sum


def test_partial_trace_bell():
    psi = random_pure_state([2, 2], rng=1)  # warm-up type; exact case below
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    red = partial_trace_matrix(rho, (2, 2), [0])
    assert np.abs(red - np.eye(2) / 2).max() < 1e-12
    assert psi.dim == 4


def test_partial_trace_product():
    rng = np.random.default_rng(2)
    a = random_density_matrix([2], rng=rng).matrix
    b = random_density_matrix([3], rng=rng).matrix
    red = partial_trace_matrix(np.kron(a, b), (2, 3), [0])
    assert np.abs(red - a).max() < 1e-12


def test_partial_trace_w_state_direct_sum_oracle():
    w = np.zeros(8)
    w[[1, 2, 4]] = 1 / np.sqrt(3)
    rho = np.outer(w, w)
    red = partial_trace_matrix(rho, (2, 2, 2), [0])
    oracle = ptrace_sum(rho, (2, 2, 2), [0])
    assert np.abs(red - oracle).max() < 1e-12
    assert np.abs(red - np.diag([2 / 3, 1 / 3])).max() < 1e-12


def test_partial_trace_matches_oracle_random():
    rng = np.random.default_rng(3)
    rho = random_density_matrix([2, 3, 2], rng=rng).matrix
    for keep in ([0], [1], [2], [0, 2], [1, 2], [0, 1, 2]):
        assert np.abs(
            partial_trace_matrix(rho, (2, 3, 2), keep) - ptrace_sum(rho, (2, 3, 2), keep)
        ).max() < 1e-12


def test_partial_trace_composition_and_trace():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rho = random_density_matrix([2, 2, 3], rng=rng).matrix
        via_b = partial_trace_matrix(rho, (2, 2, 3), [0, 2])
        direct = partial_trace_matrix(via_b, (2, 3), [0])
        straight = partial_trace_matrix(rho, (2, 2, 3), [0])
        assert np.abs(direct - straight).max() < 1e-12
        assert abs(np.trace(straight).real - 1.0) < 1e-12


def test_partial_trace_errors():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        partial_trace_matrix(rho, (2, 2), [])
    with pytest.raises(ValueError):
        partial_trace_matrix(rho, (2, 2), [2])
    with pytest.raises(ValueError, match="integers"):
        partial_trace_matrix(rho, (2, 2), [0.5])


_PRODUCT = ek.basis_state([2, 2, 2], [0, 0, 0])


@pytest.mark.parametrize("call, valid", [
    (lambda tol: ek.is_product_across(_PRODUCT, ek.Partition(((0,), (1, 2))), tol), True),
    (lambda tol: ek.classify_pure(_PRODUCT, tol).producibility_m, 1),
    (lambda tol: ek.classify_pure(ek.basis_state([2], [0]), tol).producibility_m, 1),
    (lambda tol: ek.schmidt_rank(ek.basis_state([2, 2], [0, 0]), tol=tol), 1),
    (lambda tol: ek.is_ame(ek.ghz_state(3, 2), tol), True),
    (lambda tol: ek.is_lme(_PRODUCT, tol), False),
    (lambda tol: ek.stabilizes(np.eye(8), ek.ghz_state(3, 2), tol), True),
    (lambda tol: ek.ghz_stabilizer_check(0.3, 0.5, tol), True),
    (lambda tol: ek.upb_unextendibility_check([ek.basis_state([2, 2], [0, 0])], restarts=2,
                                              tol=tol, rng=0), False),
], ids=["is_product_across", "classify_pure", "classify_pure-1party", "schmidt_rank", "is_ame",
        "is_lme", "stabilizes", "ghz_stabilizer_check", "upb_unextendibility_check"])
def test_public_tolerances_are_checked(call, valid):
    """A NaN, infinite or negative ``tol`` is refused, not compared: NaN used
    to report ``|000>`` as genuinely multipartite and a Schmidt rank of 0,
    and -1 called a lone product vector unextendible."""
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="tol must be finite"):
            call(tol)
    assert call(1e-9) == valid


@pytest.mark.parametrize("fn, bad, good, name", [
    (ek.ame_feasibility, (4.5, 6), (np.int64(4), np.int64(6)), "n"),
    (ek.ame_feasibility, (float("nan"), 3), (3, 3), "n"),
    (ek.ame_feasibility, (4.0, 6), (4, 6), "n"),
    (ek.ame_feasibility, (4, 6.0), (4, 6), "d"),
    (ek.enumerate_partitions, (2.5,), (np.int64(3),), "n"),
    (ek.all_bipartitions, (2.5,), (np.int64(3),), "n"),
    (ek.ghz_state, (3.5,), (np.int64(3),), "n"),
    (ek.ghz_state, (3, 2.5), (3, np.int64(2)), "d"),
    (ek.basis_state, ([2, 2], [0.5, 0]), ([2, 2], [np.int64(1), 0]), r"occupation\[0\]"),
], ids=["ame-4.5", "ame-nan", "ame-4.0", "ame-d", "enumerate_partitions", "all_bipartitions",
        "ghz-n", "ghz-d", "basis_state"])
def test_counts_reject_non_integers(fn, bad, good, name):
    """A count or occupation that is not an integer raises ``ValueError``
    naming the argument: ``ame_feasibility(4.5, 6)`` used to answer "open",
    and ``enumerate_partitions(2.5)`` to recurse without end.  NumPy integers
    are accepted."""
    with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
        fn(*bad)
    fn(*good)


_BELL = ek.bell_state(2)
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, message", [
    (lambda: ek.schmidt_rank(_BELL, tol=np.float64("nan")), "tol must be finite and >= 0, got nan"),
    (lambda: ek.ghz_state(np.float64(3.5)), "n must be an integer, got 3.5"),
    (lambda: ek.random_pure_state([2], rng=np.int64(-1)),
     "rng must be None, an integer >= 0 or a Generator, got -1"),
    (lambda: ek.entanglement_entropy(_BELL, base=np.float64(1.0)),
     "base must be finite, > 0 and != 1, got 1.0"),
    (lambda: ek.ghz_state(np.str_("3")), "n must be an integer, got '3'"),
    (lambda: ek.random_pure_state([2], rng="a"),
     "rng must be None, an integer >= 0 or a Generator, got 'a'"),
], ids=["tol-float64", "n-float64", "rng-int64", "base-float64", "n-str_", "rng-str"])
def test_messages_show_numpy_scalars_as_plain_numbers(call, message):
    """A NumPy scalar argument reads as the number it holds, not as its
    numpy 2 repr ``np.float64(nan)``; a string keeps its quotes."""
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: ek.DensityMatrix(np.eye(2) / 2, (2, False)),
     "local dimensions must be integers, got (2, False)"),
    (lambda: ek.partial_trace(_BELL, [True]), "subsystem indices must be integers, got [True]"),
    (lambda: ek.ghz_state(True), "n must be an integer, got True"),
    (lambda: ek.basis_state([2, 2], [True, 0]), "occupation[0] must be an integer, got True"),
], ids=["dims", "indices", "count", "occupation"])
def test_booleans_are_not_integers(call, message):
    """``True`` is refused where an integer is checked, not read as 1:
    ``DensityMatrix(m, (2, False))`` used to be refused as dims ``(2, 0)``,
    ``partial_trace(bell, [True])`` kept subsystem 1, and
    ``PureState(amp, (True, 2))`` was a 1x2 system (see the contract row)."""
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call, bad, good, expect, name", [
    (lambda b: ek.von_neumann_entropy(ek.partial_trace(_BELL, [0]), base=b),
     (1, _NAN, 0, -2.0, _INF), 2, 1.0, "base"),
    (lambda b: ek.entanglement_entropy(_BELL, base=b), (0, 1.0, _NAN), 2, 1.0, "base"),
    (lambda b: ek.conditional_entropy(_BELL, [0], [1], base=b), (1, -_INF), 2, -1.0, "base"),
    (lambda b: ek.shannon_entropy([0.25, 0.75], base=b), (1, 0.0, _NAN), np.e,
     -(0.25 * np.log(0.25) + 0.75 * np.log(0.75)), "base"),
    (ek.shannon_entropy, ([_NAN, 1], [-0.5, 1.5], [_INF, 0], [0.5, -1e-300]), [0.5, 0.5],
     np.log(2), "p"),
    (lambda p: ek.majorizes(p, [0.5, 0.5]), ([_NAN, 0.5], [1.5, -0.5], [_INF, 0]), [1, 0], True,
     "p"),
    (lambda q: ek.majorizes([1, 0], q), ([0.5, _NAN], [-0.5, 1.5]), [0.5, 0.5], True, "q"),
], ids=["von_neumann_entropy", "entanglement_entropy", "conditional_entropy",
        "shannon_entropy-base", "shannon_entropy-p", "majorizes-p", "majorizes-q"])
def test_entropy_bases_and_probability_vectors_are_checked(call, bad, good, expect, name):
    """A log base must be finite, > 0 and not 1, and a probability vector
    finite and >= 0: ``base=1`` used to give ``inf`` with a warning,
    ``shannon_entropy([nan, 1])`` -0.0, ``shannon_entropy([-0.5, 1.5])``
    -0.61, and ``majorizes([nan, 0.5], [0.5, 0.5])`` False."""
    for value in bad:
        with pytest.raises(ValueError, match=rf"^{name} must"):
            call(value)
    assert call(good) == pytest.approx(expect, abs=1e-12)
