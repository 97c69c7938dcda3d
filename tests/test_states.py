import warnings

import numpy as np
import pytest

import entkit as ek

from conftest import ptranspose_elements


def test_pure_state_validation_and_phase():
    with pytest.raises(ValueError):
        ek.PureState(np.array([1.0, 1.0]), (2,))
    psi = ek.PureState(np.array([0, 1j]) , (2,))
    # global phase canonicalized: first nonzero amplitude real positive
    assert psi.amplitudes[1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ek.PureState.normalized(np.zeros(4), (2, 2))
    with pytest.raises(ValueError):
        ek.PureState(np.array([1.0, 0.0]), (2.7,))   # not truncated to 2
    with pytest.raises(ValueError):
        ek.PureState(np.zeros(0), (0,))
    with pytest.raises(ValueError):
        ek.PureState(np.array([1.0, 0.0, 0.0]), (2, 2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ek.PureState(np.array([bad, 0.0]), (2,))
    # the message shows a plain number, not a numpy repr
    with pytest.raises(ValueError, match=r"^state norm 2\.0 is not 1 within 1e-10"):
        ek.PureState(np.array([2.0, 0.0]), (2,))
    # a float permutation used to raise TypeError, on either kind of state
    for state in (ek.bell_state(2), ek.bell_state(2).density()):
        with pytest.raises(ValueError, match="^subsystem indices must be integers"):
            state.permute([1.0, 0.0])
        with pytest.raises(ValueError, match="is not a permutation"):
            state.permute([0, 0])


def test_normalized_scales_huge_amplitudes_and_refuses_non_finite():
    # under the suite's warnings-as-errors filter: no overflow on the way
    psi = ek.PureState.normalized([1e200, 1e200], (2,))
    assert np.allclose(psi.amplitudes, [2**-0.5, 2**-0.5], atol=1e-15)
    psi = ek.PureState.normalized([1.7e308, -1.7e308j], (2,))
    assert np.allclose(psi.amplitudes, [2**-0.5, -1j * 2**-0.5], atol=1e-15)
    # an entry whose modulus exceeds the largest float
    psi = ek.PureState.normalized([1.7e308 + 1.7e308j, 0.0], (2,))
    assert np.allclose(psi.amplitudes, [1.0, 0.0], atol=1e-15)
    for bad in ([np.inf, 1.0], [np.nan, 0.0], [1.0, complex(0, np.inf)], [0.0, 0.0],
                [1e-20, 0.0], [5e-324, 0.0]):
        with pytest.raises(ValueError):
            ek.PureState.normalized(bad, (2,))


def test_states_do_not_alias_caller_arrays():
    a = np.array([1 + 0j, 0, 0, 0])
    psi = ek.PureState(a, (2, 2))
    a[0] = 5.0
    assert psi.amplitudes[0] == 1.0
    m = np.eye(2, dtype=complex) / 2
    rho = ek.DensityMatrix(m, (2,))
    m[0, 0] = 9.0
    assert rho.matrix[0, 0] == 0.5
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 2.0  # stored arrays are read-only


def test_density_matrix_validation():
    with pytest.raises(ValueError, match=r"^trace 2\.0 is not 1 within 1e-10"):
        ek.DensityMatrix(np.eye(4) / 2, (2, 2))
    with pytest.raises(ValueError):
        ek.DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]), (2,))
    with pytest.raises(ValueError):
        ek.DensityMatrix(np.diag([1.5, -0.5]), (2,))
    # rejected before any arithmetic on them, so without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ek.DensityMatrix(np.array([[bad, 0.0], [0.0, 0.5]]), (2,))
        with pytest.raises(ValueError):
            ek.DensityMatrix(np.array([[0.5, np.nan], [np.nan, 0.5]]), (2,))
        with pytest.raises(ValueError):
            ek.DensityMatrix(np.array([[0.5, np.inf], [np.inf, 0.5]]), (2,))
    # the positivity boundary at -1e-10 holds on the Cholesky route
    rng = np.random.default_rng(58)
    for d in (4, 64, 512):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        for least, accepted in ((-2e-10, False), (-5e-11, True)):
            spectrum = rng.uniform(0.5, 1.5, d)
            spectrum[0] = 0.0
            spectrum *= (1 - least) / spectrum.sum()
            spectrum[0] = least
            mat = (q * spectrum) @ q.conj().T
            mat = (mat + mat.conj().T) / 2
            if accepted:
                ek.DensityMatrix(mat, (d,))
            else:
                with pytest.raises(ValueError, match="eigenvalue below -1e-10"):
                    ek.DensityMatrix(mat, (d,))


#: A pure state of norm ``1 + 0.8e-10``, inside the constructor's 1e-10, and
#: the normalized state it stands for.  Its projector has trace ``1 + 1.6e-10``.
_EDGE_PSI = ek.PureState(ek.random_pure_state([2, 2], rng=5).amplitudes * (1 + 0.8e-10), (2, 2))
_CLEAN_PSI = ek.random_pure_state([2, 2], rng=5)
#: A two-qubit matrix that is Hermitian within 0.9e-10 on two entries, whose
#: reduced state on party 0 is off by 1.8e-10, and one whose two least
#: eigenvalues, -0.9e-10 each, add to -1.8e-10 on party 0.
_HERMITIAN_EDGE = np.eye(4, dtype=complex) / 4
_HERMITIAN_EDGE[[0, 1], [2, 3]] += 0.9e-10
_POSITIVE_EDGE = np.diag([-0.9e-10, -0.9e-10, 0.5, 0.5 + 1.8e-10])
_EDGE_FACTOR = ek.PureState(np.array([0.6, 0.8j]) * (1 + 0.8e-10), (2,))
_FILTERS = [np.diag([1.0, 0.6]), np.eye(2)]


def _numbers(result) -> np.ndarray:
    """Every number in a result: probabilities, matrices and amplitudes."""
    if isinstance(result, (list, tuple)):
        return np.concatenate([_numbers(r) for r in result])
    if isinstance(result, ek.BranchOutcome):
        return np.concatenate([[result.probability], _numbers(result.post_state)])
    if isinstance(result, ek.DensityMatrix):
        return result.matrix.ravel()
    if isinstance(result, ek.PureState):
        return result.amplitudes
    return np.ravel(result)


@pytest.mark.parametrize("call, edge, clean", [
    (lambda psi: psi.density(), _EDGE_PSI, _CLEAN_PSI),
    (ek.purity, _EDGE_PSI, _CLEAN_PSI),
    (ek.von_neumann_entropy, _EDGE_PSI, _CLEAN_PSI),
    (lambda psi: ek.partial_trace(psi, [0]), _EDGE_PSI, _CLEAN_PSI),
    (lambda psi: ek.partial_transpose(psi, [0]), _EDGE_PSI, _CLEAN_PSI),
    (ek.teleport, _EDGE_PSI, _CLEAN_PSI),
    (lambda psi: ek.local_filter(psi, _FILTERS), _EDGE_PSI, _CLEAN_PSI),
    (ek.entanglement_swap, _EDGE_PSI, _CLEAN_PSI),
    (lambda m: ek.partial_trace(ek.DensityMatrix(m, (2, 2)), [0]), _HERMITIAN_EDGE,
     np.eye(4) / 4),
    (lambda m: ek.partial_trace(ek.DensityMatrix(m, (2, 2)), [0]), _POSITIVE_EDGE,
     np.diag([0.0, 0.0, 0.5, 0.5])),
    (lambda f: ek.product_state(f, f), _EDGE_FACTOR, ek.PureState([0.6, 0.8j], (2,))),
], ids=["density", "purity", "von_neumann_entropy", "partial_trace", "partial_transpose",
        "teleport", "local_filter", "entanglement_swap", "partial_trace_of_hermitian_edge",
        "partial_trace_of_positive_edge", "product_state"])
def test_a_valid_state_at_the_edge_of_a_tolerance_is_not_refused_later(call, edge, clean):
    """A state that passed its check is validated once: what the library
    derives from it is not checked again, so rounding that takes it past a
    tolerance its input met, such as a trace of ``(1 + 0.8e-10)^2``, is no
    error.  The result stays next to that of the valid state nearby."""
    assert np.abs(_numbers(call(edge)) - _numbers(call(clean))).max() < 1e-9


def test_bell_state():
    b = ek.bell_state(2)
    assert np.abs(b.amplitudes - np.array([1, 0, 0, 1]) / np.sqrt(2)).max() < 1e-15
    b3 = ek.bell_state(3)
    assert b3.dims == (3, 3)
    nz = np.flatnonzero(np.abs(b3.amplitudes) > 1e-12)
    assert list(nz) == [0, 4, 8]
    for d in (2, 3, 4):
        assert ek.entanglement_entropy(ek.bell_state(d)) == pytest.approx(np.log(d), abs=1e-10)
    with pytest.raises(ValueError):
        ek.bell_state(1)
    with pytest.raises(ek.SizeLimitError):
        ek.bell_state(100000)


def test_ghz_state():
    g = ek.ghz_state(3, 2)
    assert np.abs(g.amplitudes[[0, 7]] - 1 / np.sqrt(2)).max() < 1e-15
    assert np.abs(np.delete(g.amplitudes, [0, 7])).max() == 0.0
    assert ek.ghz_state(2, 2).isclose(ek.bell_state(2))
    flat = ek.ghz_state(4, 3)
    assert flat.dims == (3, 3, 3, 3)
    degenerate = ek.ghz_state(3, 2, [1.0, 0.0])
    assert degenerate.isclose(ek.basis_state([2, 2, 2], [0, 0, 0]))
    assert ek.tangles(degenerate)[2] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match=r"^lambda sums to 1\.4, not 1 within 1e-10"):
        ek.ghz_state(3, 2, [0.7, 0.7])
    for n, d in ((13, 2), (40, 2), (10**15, 2), (2, 65)):
        with pytest.raises(ek.SizeLimitError):
            ek.ghz_state(n, d)
    with pytest.raises(ek.SizeLimitError):
        ek.basis_state([2] * 40, [0] * 40)


def test_w_state():
    w = ek.w_state()
    for k in range(3):
        red = ek.partial_trace(w, [k]).matrix
        assert np.abs(red - np.diag([2 / 3, 1 / 3])).max() < 1e-12
        assert ek.purity(ek.partial_trace(w, [k])) == pytest.approx(5 / 9, abs=1e-12)
    assert ek.tangles(w)[2] == pytest.approx(0.0, abs=1e-10)
    assert ek.kempe_invariant(w) == pytest.approx(2 / 9, abs=1e-12)


def test_graph_state_empty_and_edge():
    empty = ek.graph_state(np.zeros((2, 2), dtype=int))
    plus = ek.PureState(np.full(2, 1 / np.sqrt(2)), (2,))
    assert empty.isclose(ek.product_state(plus, plus))
    assert ek.is_product_across(empty, ek.Partition(((0,), (1,))))

    k2 = ek.graph_state(np.array([[0, 1], [1, 0]]))
    lam = ek.schmidt_vector(k2)
    assert np.abs(lam - np.array([0.5, 0.5])).max() < 1e-12


def test_graph_state_path_is_ghz_class():
    adj = np.zeros((3, 3), dtype=int)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1
    p3 = ek.graph_state(adj)
    # independent construction: explicit controlled-phase matrices on |+++>
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    cz01 = np.kron(cz, np.eye(2))
    cz12 = np.kron(np.eye(2), cz)
    vec = cz12 @ cz01 @ np.full(8, 1 / np.sqrt(8))
    assert np.abs(p3.amplitudes - vec).max() < 1e-12
    assert 4 * abs(ek.hyperdet3(vec)) == pytest.approx(1.0, abs=1e-12)
    assert ek.tangles(p3)[2] == pytest.approx(1.0, abs=1e-9)
    assert ek.slocc_class_3qubit(p3) is ek.SloccClass.GHZ


def test_graph_state_amplitudes_are_signs():
    rng = np.random.default_rng(8)
    for _ in range(5):
        m = 5
        adj = np.triu((rng.random((m, m)) < 0.5).astype(int), k=1)
        adj = adj + adj.T
        g = ek.graph_state(adj)
        assert np.abs(np.abs(g.amplitudes) - 1 / np.sqrt(2**m)).max() < 1e-12
    with pytest.raises(ValueError):
        ek.graph_state(np.array([[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        ek.graph_state(np.array([[0, 1], [0, 0]]))


def test_smolin_state():
    rho = ek.smolin_state()
    # symmetric under swapping the AB and CD pairs
    assert rho.permute([2, 3, 0, 1]).isclose(rho, atol=1e-12)
    # PPT across AB|CD by the element-shuffling transpose oracle
    pt = ptranspose_elements(rho.matrix, (2, 2, 2, 2), [2, 3])
    assert np.linalg.eigvalsh(pt).min() > -1e-12
    vals = np.linalg.eigvalsh(rho.matrix)
    assert int((vals > 1e-12).sum()) == 4
    assert ek.purity(rho) == pytest.approx(0.25, abs=1e-12)


def test_upb_state():
    rho = ek.upb_state()
    vals = np.linalg.eigvalsh(rho.matrix)
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
    assert int((vals > 1e-12).sum()) == 4
    for v in ek.upb_basis():
        assert abs(np.vdot(v.amplitudes, rho.matrix @ v.amplitudes)) < 1e-12
    for subset in ([0], [1], [2]):
        pt = ptranspose_elements(rho.matrix, (2, 2, 2), subset)
        assert np.linalg.eigvalsh(pt).min() > -1e-10


def test_psi25_state():
    psi = ek.psi25_state()
    assert psi.amplitudes[0] == pytest.approx(np.sqrt(7 / 22), abs=1e-12)
    assert int((np.abs(psi.amplitudes) > 1e-12).sum()) == 12
    for k in range(5):
        red = ek.partial_trace(psi, [k]).matrix
        assert np.abs(red - np.eye(2) / 2).max() < 1e-10


def test_phi_a_state():
    p0 = ek.phi_a_state(0.0)
    nz = np.flatnonzero(np.abs(p0.amplitudes) > 1e-12)
    assert list(nz) == [3, 5, 6]
    assert np.abs(np.abs(p0.amplitudes[nz]) - 1 / np.sqrt(3)).max() < 1e-12
    p1 = ek.phi_a_state(1.0)
    nz = np.flatnonzero(np.abs(p1.amplitudes) > 1e-12)
    assert list(nz) == [0, 3, 5, 6, 15]
    assert np.abs(np.abs(p1.amplitudes[nz]) - 1 / np.sqrt(5)).max() < 1e-12

    def spectra(psi):
        return np.concatenate([
            np.sort(np.linalg.eigvalsh(ek.partial_trace(psi, [k]).matrix))
            for k in range(4)
        ])

    assert np.abs(spectra(ek.phi_a_state(0.3)) - spectra(ek.phi_a_state(0.8))).max() > 1e-3


def test_acin_state():
    s = 1 / np.sqrt(2)
    assert ek.acin_state([s, 0, 0, 0, s]).isclose(ek.ghz_state(3, 2))
    t = 1 / np.sqrt(3)
    w_like = ek.acin_state([0, t, t, t, 0])
    rec_w = ek.lu_invariants(ek.w_state())
    rec = ek.lu_invariants(w_like)
    for name in ("i2", "i3", "i4", "i5", "i6"):
        assert getattr(rec, name) == pytest.approx(getattr(rec_w, name), abs=1e-10)
    assert ek.acin_state([1, 0, 0, 0, 0]).isclose(ek.basis_state([2, 2, 2], [0, 0, 0]))
    with pytest.raises(ValueError):
        ek.acin_state([1, 1, 0, 0, 0])


def test_purity():
    assert ek.purity(ek.DensityMatrix(np.eye(2) / 2, (2,))) == pytest.approx(0.5, abs=1e-12)
    psi = ek.random_pure_state([2, 2], rng=9)
    assert ek.purity(psi.density()) == pytest.approx(1.0, abs=1e-10)
    assert ek.purity(ek.partial_trace(ek.w_state(), [0])) == pytest.approx(5 / 9, abs=1e-12)


def test_von_neumann_entropy():
    psi = ek.random_pure_state([2, 3], rng=10)
    assert ek.von_neumann_entropy(psi.density()) == pytest.approx(0.0, abs=1e-9)
    for d in (2, 3, 4):
        assert ek.von_neumann_entropy(ek.DensityMatrix(np.eye(d) / d, (d,))) == pytest.approx(
            np.log(d), abs=1e-10
        )
    rho = ek.DensityMatrix(np.diag([2 / 3, 1 / 3]), (2,))
    assert ek.von_neumann_entropy(rho) == pytest.approx(
        np.log(3) - (2 / 3) * np.log(2), abs=1e-12
    )
    assert ek.von_neumann_entropy(rho, base=2) == pytest.approx(
        (np.log(3) - (2 / 3) * np.log(2)) / np.log(2), abs=1e-12
    )


def test_conditional_entropy():
    rng = np.random.default_rng(11)
    a = ek.random_density_matrix([2], rng=rng)
    b = ek.random_density_matrix([3], rng=rng)
    prod = ek.DensityMatrix(np.kron(a.matrix, b.matrix), (2, 3))
    assert ek.conditional_entropy(prod, [0], [1]) == pytest.approx(
        ek.von_neumann_entropy(a), abs=1e-10
    )
    assert ek.conditional_entropy(ek.bell_state(2).density(), [0], [1]) == pytest.approx(
        -np.log(2), abs=1e-10
    )
    ghz = ek.ghz_state(3, 2)
    assert ek.conditional_entropy(ghz.density(), [0], [1]) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        ek.conditional_entropy(prod, [0], [0])
    # a non-integer index is rejected, not truncated
    with pytest.raises(ValueError, match="integers"):
        ek.conditional_entropy(prod, [0.4], [1])
    for state in (prod, ghz):
        with pytest.raises(ValueError, match="integers"):
            ek.partial_trace(state, [0.5])
    # indices out of range are refused on the pure route, which builds no
    # reduced state, as on the mixed one
    for state in (ghz, ek.random_density_matrix([2, 3, 2], rng=rng)):
        for a, b in (([0], [5]), ([0], [-1])):
            with pytest.raises(ValueError, match="out of range"):
                ek.conditional_entropy(state, a, b)
    # pure states of 2 to 8 parties: the cut spectra give the entropies of
    # the reduced states, with A and B covering every party or not
    for n in range(2, 9):
        dims = [int(d) for d in rng.choice([2, 3], size=n)] if n <= 5 else [2] * n
        psi = ek.random_pure_state(dims, rng=rng)
        order = [int(i) for i in rng.permutation(n)]
        k = int(rng.integers(1, n))
        for a, b in ((order[:k], order[k:]), (order[:1], order[1:k + 1])):
            for base in (None, 2):
                expect = (ek.von_neumann_entropy(ek.partial_trace(psi, a + b), base)
                          - ek.von_neumann_entropy(ek.partial_trace(psi, b), base))
                assert abs(ek.conditional_entropy(psi, a, b, base) - expect) < 1e-10


def test_random_and_mixed_constructors_check_dims_first():
    # each would otherwise ask numpy for terabytes before any check
    with pytest.raises(ek.SizeLimitError):
        ek.random_density_matrix([10**6])
    with pytest.raises(ek.SizeLimitError):
        ek.random_pure_state([10**6, 10**6])
    for make in (ek.random_density_matrix, ek.random_pure_state):
        with pytest.raises(ValueError, match="integers"):
            make([2.5])
    # a fractional rank is rejected, not truncated
    with pytest.raises(ValueError, match="^rank must be an integer"):
        ek.random_density_matrix([2, 2], rank=1.5)
    assert np.linalg.matrix_rank(ek.random_density_matrix([2, 2], rank=2, rng=0).matrix) == 2


def test_marginal_purity_bounds_and_product_detection():
    rng = np.random.default_rng(12)
    for _ in range(20):
        psi = ek.random_pure_state([2, 3, 2], rng=rng)
        for k, d in enumerate(psi.dims):
            p = ek.purity(ek.partial_trace(psi, [k]))
            assert 1 / d - 1e-12 <= p <= 1 + 1e-12
    prod = ek.product_state(ek.random_pure_state([2], rng=rng), ek.bell_state(2))
    assert ek.purity(ek.partial_trace(prod, [0])) == pytest.approx(1.0, abs=1e-10)
    assert ek.is_product_across(prod, ek.Partition(((0,), (1, 2))))
    assert not ek.is_product_across(prod, ek.Partition(((0, 1), (2,))))
