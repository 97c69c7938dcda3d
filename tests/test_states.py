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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
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
    assert ek.purity(ek.maximally_mixed([2])) == pytest.approx(0.5, abs=1e-12)
    psi = ek.random_pure_state([2, 2], rng=9)
    assert ek.purity(psi.density()) == pytest.approx(1.0, abs=1e-10)
    assert ek.purity(ek.partial_trace(ek.w_state(), [0])) == pytest.approx(5 / 9, abs=1e-12)


def test_von_neumann_entropy():
    psi = ek.random_pure_state([2, 3], rng=10)
    assert ek.von_neumann_entropy(psi.density()) == pytest.approx(0.0, abs=1e-9)
    for d in (2, 3, 4):
        assert ek.von_neumann_entropy(ek.maximally_mixed([d])) == pytest.approx(
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


def test_random_and_mixed_constructors_check_dims_first():
    # each would otherwise ask numpy for terabytes before any check
    for make in (ek.maximally_mixed, ek.random_density_matrix):
        with pytest.raises(ek.SizeLimitError):
            make([10**6])
    with pytest.raises(ek.SizeLimitError):
        ek.random_pure_state([10**6, 10**6])
    for make in (ek.maximally_mixed, ek.random_density_matrix, ek.random_pure_state):
        with pytest.raises(ValueError, match="integers"):
            make([2.5])
    # a fractional rank is rejected, not truncated
    with pytest.raises(TypeError):
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
