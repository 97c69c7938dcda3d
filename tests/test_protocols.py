import numpy as np
import pytest

import entkit as ek
from entkit.protocols import shift_multiply_unitary


def test_generalized_bell_basis():
    for d in (2, 3):
        basis = ek.generalized_bell_basis(d)
        assert len(basis) == d * d
        overlaps = np.array(
            [[abs(a.overlap(b)) for b in basis] for a in basis]
        )
        assert np.abs(overlaps - np.eye(d * d)).max() < 1e-10
        for b in basis:
            lam = ek.schmidt_vector(b)
            assert np.abs(lam - 1 / d).max() < 1e-10
    two = ek.generalized_bell_basis(2)
    classic = ek.bell_basis_2q()
    # same span and same states up to phase/labeling
    gram = np.array(
        [[abs(a.overlap(b)) for b in two] for a in classic]
    )
    assert np.abs(np.sort(gram, axis=1)[:, -1] - 1.0).max() < 1e-10


def test_instrument_completeness():
    kraus = ek.teleportation_kraus(2)
    inst = ek.Instrument(tuple((lab, (k,)) for lab, k in kraus), dims=(2,))
    assert len(inst.branches) == 4
    with pytest.raises(ValueError):
        ek.Instrument((("only", (np.eye(2) * 0.5,)),), dims=(2,))


def test_teleport_pure_and_mixed():
    rng = np.random.default_rng(0)
    phi = ek.random_pure_state([2], rng=rng)
    outcomes = ek.teleport(phi.density(), 2)
    assert len(outcomes) == 4
    for br in outcomes:
        assert br.probability == pytest.approx(0.25, abs=1e-10)
        fid = np.vdot(phi.amplitudes, br.post_state.matrix @ phi.amplitudes).real
        assert fid == pytest.approx(1.0, abs=1e-9)

    mm = ek.maximally_mixed([2])
    for br in ek.teleport(mm, 2):
        assert np.abs(br.post_state.matrix - np.eye(2) / 2).max() < 1e-10

    rho = ek.random_density_matrix([3], rng=rng)
    outcomes = ek.teleport(rho, 3)
    assert len(outcomes) == 9
    for br in outcomes:
        assert br.probability == pytest.approx(1 / 9, abs=1e-10)
        assert np.abs(br.post_state.matrix - rho.matrix).max() < 1e-9


def _choi_distance_to_identity(d: int) -> float:
    bell = ek.bell_state(d).amplitudes
    ident = np.outer(bell, bell.conj())
    choi = np.zeros_like(ident)
    for _, k in ek.teleportation_kraus(d):
        big = np.kron(np.eye(d), k)
        choi += big @ ident @ big.conj().T
    return float(np.abs(choi - ident).max())


def test_teleport_choi_identity():
    for d in (2, 3, 4):
        assert _choi_distance_to_identity(d) < 1e-8


def test_entanglement_swap():
    bell_in = ek.bell_state(2).density()
    out = ek.entanglement_swap(bell_in, 2)
    assert out.isclose(bell_in, atol=1e-9)
    rng = np.random.default_rng(1)
    prod = ek.DensityMatrix(
        np.kron(
            ek.random_density_matrix([2], rng=rng).matrix,
            ek.random_density_matrix([3], rng=rng).matrix,
        ),
        (2, 3),
    )
    out = ek.entanglement_swap(prod, 3)
    assert np.abs(out.matrix - prod.matrix).max() < 1e-9
    for d in (2, 3):
        rho = ek.random_density_matrix([2, d], rng=rng)
        out = ek.entanglement_swap(rho, d)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-9
        s_in = np.sort(np.linalg.eigvalsh(rho.matrix))
        s_out = np.sort(np.linalg.eigvalsh(out.matrix))
        assert np.abs(s_in - s_out).max() < 1e-9


def test_local_filter_identity_and_probabilities():
    ghz = ek.ghz_state(3, 2)
    first, second = ek.local_filter(ghz, [np.eye(2)] * 3)
    assert first.probability == pytest.approx(1.0, abs=1e-12)
    assert second.probability == pytest.approx(0.0, abs=1e-12)
    assert first.post_state.isclose(ghz.density(), atol=1e-10)

    filters = [np.diag([1.0, 0.5])] * 3
    first, second = ek.local_filter(ghz, filters)
    assert first.probability + second.probability == pytest.approx(1.0, abs=1e-9)
    assert np.abs(second.post_state.matrix - np.eye(8) / 8).max() < 1e-12
    with pytest.raises(ValueError):
        ek.local_filter(ghz, [np.diag([2.0, 1.0])] * 3)
    rescaled, _ = ek.local_filter(ghz, [np.diag([2.0, 1.0])] * 3, rescale=True)
    assert rescaled.probability > 0


def test_local_filter_preserves_ghz_class():
    ghz = ek.ghz_state(3, 2)
    for eps in (0.9, 0.5, 0.1):
        filt, p = ek.local_filter_pure(ghz, [np.diag([1.0, eps])] * 3)
        assert p > 0
        assert ek.slocc_class_3qubit(filt) is ek.SloccClass.GHZ
        assert ek.tangles(filt)[2] > 0


def test_singular_filter_collapses_ghz():
    ghz = ek.ghz_state(3, 2)
    part = ek.Partition(((0,), (1, 2)))
    collapsed, p = ek.local_filter_pure(
        ghz, [np.diag([1.0, 0.0]), np.eye(2), np.eye(2)]
    )
    assert p == pytest.approx(0.5, abs=1e-12)
    assert collapsed.isclose(ek.basis_state([2, 2, 2], [0, 0, 0]))
    assert ek.schmidt_rank(collapsed, part) < ek.schmidt_rank(ghz, part)


def test_invertible_filters_preserve_slocc_class():
    rng = np.random.default_rng(2)
    for _ in range(200):
        psi = ek.random_pure_state([2, 2, 2], rng=rng)
        filters = []
        for _ in range(3):
            while True:
                m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                if abs(np.linalg.det(m)) > 0.2:
                    filters.append(m)
                    break
        filtered, p = ek.local_filter_pure(psi, filters, rescale=True)
        assert p > 0
        assert ek.slocc_class_3qubit(filtered) is ek.slocc_class_3qubit(psi)


def test_unlock_smolin():
    bells = ek.bell_basis_2q()
    for pair in ("CD", "AB"):
        outcomes = ek.unlock_smolin(pair)
        assert len(outcomes) == 4
        for i, br in enumerate(outcomes):
            assert br.probability == pytest.approx(0.25, abs=1e-10)
            expect = bells[i].density()
            assert br.post_state.isclose(expect, atol=1e-9)
    for pair in ("AC", "AD", "BC", "BD"):
        for br in ek.unlock_smolin(pair):
            assert ek.wootters_concurrence(br.post_state) ** 2 == pytest.approx(
                1.0, abs=1e-9
            )
    with pytest.raises(ValueError):
        ek.unlock_smolin("AA")


def test_merging_rate():
    ghz = ek.ghz_state(3, 2)
    assert ek.merging_rate(ghz, [0], [1]) == pytest.approx(0.0, abs=1e-10)
    bisep = ek.product_state(ek.bell_state(2), ek.random_pure_state([2], rng=3))
    # A and B share a Bell pair: merging gains entanglement
    assert ek.merging_rate(bisep, [0], [1]) == pytest.approx(-np.log(2), abs=1e-10)
    prod = ek.basis_state([2, 2, 2], [0, 1, 1])
    assert ek.merging_rate(prod, [0], [1]) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        ek.merging_rate(ghz, [0], [0, 1])


def test_combing_entropy_profile():
    combed = ek.product_state(ek.bell_state(2), ek.basis_state([2], [0]))
    profile, total = ek.combing_entropy_profile(combed, 0, [[1], [2]])
    assert np.abs(np.array(profile) - [np.log(2), 0.0]).max() < 1e-9
    assert total == pytest.approx(np.log(2), abs=1e-10)

    ghz = ek.ghz_state(3, 2)
    _, total = ek.combing_entropy_profile(ghz, 0, [[1], [2]])
    assert total == pytest.approx(np.log(2), abs=1e-10)

    prod = ek.basis_state([2, 2, 2], [1, 0, 1])
    profile, total = ek.combing_entropy_profile(prod, 0, [[1], [2]])
    assert np.abs(np.array(profile)).max() < 1e-10
    assert total == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        ek.combing_entropy_profile(ghz, 0, [[0, 1]])
    for a, blocks in ((0.5, [[1], [2]]), (0, [[1.0], [2]])):
        with pytest.raises(ValueError, match="integers"):
            ek.combing_entropy_profile(ghz, a, blocks)


def test_protocol_input_validation():
    kraus = ek.teleportation_kraus(2)
    inst = ek.Instrument(tuple((lab, (k,)) for lab, k in kraus), dims=(2,))
    with pytest.raises(ValueError):
        inst.apply(ek.maximally_mixed([3]))
    with pytest.raises(ValueError):
        ek.teleport(ek.maximally_mixed([3]), 2)
    with pytest.raises(ValueError):
        ek.entanglement_swap(ek.maximally_mixed([2, 2, 2]), 2)
    with pytest.raises(ValueError):
        ek.entanglement_swap(ek.maximally_mixed([2, 3]), 2)
    with pytest.raises(ValueError):
        ek.local_filter(ek.ghz_state(3, 2), [np.eye(2)] * 2)
    with pytest.raises(ValueError):
        ek.generalized_bell_basis(1)


def test_instrument_rejects_bad_dims_and_kraus_shapes():
    with pytest.raises(ValueError, match="integers"):
        ek.Instrument((("id", (np.eye(2),)),), dims=(2.7,))
    with pytest.raises(ValueError, match="shape"):
        ek.Instrument((("id", (np.ones(2),)),), dims=(2,))
    with pytest.raises(ValueError, match="shape"):
        ek.Instrument((("id", (np.eye(3),)),), dims=(2,))
    # a pure input is teleported as its projector
    psi = ek.random_pure_state([3], rng=4)
    for br in ek.teleport(psi):
        assert br.post_state.isclose(psi.density(), atol=1e-10)


def test_shift_multiply_unitaries_are_unitary():
    for d in (2, 3, 5):
        for m in range(d):
            for n in range(d):
                u = shift_multiply_unitary(m, n, d)
                assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12
