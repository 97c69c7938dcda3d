import numpy as np
import pytest

import entkit as ek

from conftest import majorizes_loop


def _reconstruct(sd: ek.SchmidtData) -> np.ndarray:
    u, v = sd.left_unitary, sd.right_unitary
    vec = np.zeros(u.shape[0] * v.shape[0], dtype=complex)
    for i, lam in enumerate(sd.lam):
        e = np.zeros(u.shape[0])
        f = np.zeros(v.shape[0])
        e[i] = f[i] = 1.0
        vec += np.sqrt(lam) * np.kron(e, f)
    return np.kron(u, v.conj().T) @ vec


def test_schmidt_examples():
    assert np.abs(ek.schmidt_vector(ek.bell_state(2)) - [0.5, 0.5]).max() < 1e-12
    prod = ek.product_state(
        ek.random_pure_state([2], rng=0), ek.random_pure_state([3], rng=1)
    )
    lam = ek.schmidt_vector(prod)
    assert lam[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(lam[1:]).max() < 1e-12
    ghz = ek.ghz_state(3, 2)
    lam = ek.schmidt_vector(ghz, ek.Partition(((0,), (1, 2))))
    # reduction-spectrum oracle
    spec = np.linalg.eigvalsh(ek.partial_trace(ghz, [0]).matrix)[::-1]
    assert np.abs(lam[:2] - spec).max() < 1e-12
    assert np.abs(lam[:2] - [0.5, 0.5]).max() < 1e-12


def test_schmidt_data_invariants_and_reconstruction():
    rng = np.random.default_rng(2)
    cases = [
        (ek.random_pure_state([2, 2], rng=rng), None),
        (ek.random_pure_state([2, 3, 2], rng=rng), ek.Partition(((0, 2), (1,)))),
        (ek.random_pure_state([2, 2, 2, 2], rng=rng), ek.Partition(((0, 3), (1, 2)))),
    ]
    for psi, part in cases:
        sd = ek.schmidt(psi, part)
        assert abs(sd.lam.sum() - 1.0) < 1e-10
        assert np.all(np.diff(sd.lam) <= 1e-12)
        for u in (sd.left_unitary, sd.right_unitary):
            assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-10
        rec = _reconstruct(sd)
        target = psi if part is None else psi.permute(
            list(part.blocks[0]) + list(part.blocks[1])
        )
        phase = np.vdot(rec, target.amplitudes)
        assert np.abs(rec * phase / abs(phase) - target.amplitudes).max() < 1e-9
    with pytest.raises(ValueError):
        ek.schmidt(cases[1][0], ek.Partition(((0,), (1,), (2,))))


def test_schmidt_vector_equals_marginal_spectrum_bulk():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        dims = [2, rng.integers(2, 4)]
        psi = ek.random_pure_state(dims, rng=rng)
        lam = ek.schmidt_vector(psi)
        spec = np.sort(np.linalg.eigvalsh(ek.partial_trace(psi, [0]).matrix))[::-1]
        k = min(len(lam), len(spec))
        assert np.abs(lam[:k] - spec[:k]).max() < 1e-10


def test_entanglement_entropy():
    prod = ek.product_state(ek.random_pure_state([3], rng=4), ek.random_pure_state([3], rng=5))
    assert ek.entanglement_entropy(prod) == pytest.approx(0.0, abs=1e-9)
    for d in (2, 3, 4):
        assert ek.entanglement_entropy(ek.bell_state(d)) == pytest.approx(np.log(d), abs=1e-10)
    w = ek.w_state()
    expect = -(2 / 3) * np.log(2 / 3) - (1 / 3) * np.log(1 / 3)
    assert ek.entanglement_entropy(w, ek.Partition(((0,), (1, 2)))) == pytest.approx(
        expect, abs=1e-10
    )


def test_tangle_pure():
    assert ek.tangle_pure(ek.bell_state(2)) == pytest.approx(1.0, abs=1e-12)
    prod = ek.product_state(ek.random_pure_state([2], rng=6), ek.random_pure_state([2], rng=7))
    assert ek.tangle_pure(prod) == pytest.approx(0.0, abs=1e-10)
    assert ek.tangle_pure(ek.ghz_state(3, 2), ek.Partition(((0,), (1, 2)))) == pytest.approx(
        1.0, abs=1e-12
    )
    # d is the smaller side's dimension: a qutrit pair of Schmidt vector
    # (1/2, 1/2, 0) has (1 - 1/2) * 3/2; one level on a side gives 0
    rank_two = ek.PureState(np.array([1, 0, 0, 0, 1, 0, 0, 0, 0]) / np.sqrt(2), (3, 3))
    assert ek.tangle_pure(rank_two) == pytest.approx(0.75, abs=1e-12)
    assert ek.tangle_pure(ek.random_pure_state([1, 4], rng=9)) == 0.0
    # determinant form agrees with the purity form for two qubits
    rng = np.random.default_rng(8)
    for _ in range(50):
        psi = ek.random_pure_state([2, 2], rng=rng)
        g = psi.amplitudes.reshape(2, 2)
        det_form = 4 * abs(np.linalg.det(g)) ** 2
        purity_form = 2 * (1 - ek.purity(ek.partial_trace(psi, [0])))
        assert det_form == pytest.approx(purity_form, abs=1e-10)
        assert ek.tangle_pure(psi) == pytest.approx(det_form, abs=1e-10)
        assert ek.concurrence_pure(psi) == pytest.approx(np.sqrt(det_form), abs=1e-10)


def test_schmidt_rank():
    prod = ek.product_state(ek.random_pure_state([2], rng=9), ek.random_pure_state([2], rng=10))
    assert ek.schmidt_rank(prod) == 1
    assert ek.schmidt_rank(ek.bell_state(3)) == 3
    assert ek.schmidt_rank(ek.w_state(), ek.Partition(((0,), (1, 2)))) == 2


def test_majorizes():
    assert ek.majorizes([1, 0], [0.5, 0.5])
    assert not ek.majorizes([0.5, 0.5], [1, 0])
    p = [0.4, 0.3, 0.3]
    assert ek.majorizes(p, p)
    with pytest.raises(ValueError):
        ek.majorizes([0.5, 0.4], [0.5, 0.5])


def test_nielsen_convertible_examples():
    bell = ek.bell_state(2)
    rng = np.random.default_rng(11)
    for _ in range(20):
        target = ek.random_pure_state([2, 2], rng=rng)
        assert ek.nielsen_convertible(bell, target)
    prod = ek.basis_state([2, 2], [0, 0])
    assert not ek.nielsen_convertible(prod, bell)
    assert ek.nielsen_convertible(bell, prod)

    src = _ghz_like([0.4, 0.4, 0.1, 0.1])
    tgt = _ghz_like([0.5, 0.25, 0.25, 0.0])
    # partial-sum check at k=2: 0.8 > 0.75
    assert not ek.nielsen_convertible(src, tgt)
    with pytest.raises(ValueError):
        ek.nielsen_convertible(bell, ek.bell_state(3))


def _ghz_like(lam):
    d = len(lam)
    amp = np.zeros(d * d, dtype=complex)
    for i, x in enumerate(lam):
        amp[i * d + i] = np.sqrt(x)
    return ek.PureState.normalized(amp, (d, d))


def test_nielsen_matches_bruteforce_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        psi, phi = _ghz_like(p), _ghz_like(q)
        assert ek.nielsen_convertible(psi, phi) == majorizes_loop(q, p)


def test_nielsen_mutual_iff_equal_spectra_and_transitive():
    rng = np.random.default_rng(13)
    for _ in range(60):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        psi, phi = _ghz_like(p), _ghz_like(q)
        both = ek.nielsen_convertible(psi, phi) and ek.nielsen_convertible(phi, psi)
        equal = np.abs(np.sort(p) - np.sort(q)).max() < 1e-12
        assert both == equal
    for _ in range(100):
        a, b, c = (_ghz_like(rng.dirichlet(np.ones(4))) for _ in range(3))
        if ek.nielsen_convertible(a, b) and ek.nielsen_convertible(b, c):
            assert ek.nielsen_convertible(a, c)


def test_schmidt_rank_never_increases_under_filtering():
    rng = np.random.default_rng(14)
    part = ek.Partition(((0,), (1, 2)))
    for trial in range(500):
        psi = ek.random_pure_state([2, 2, 2], rng=rng)
        rank_before = ek.schmidt_rank(psi, part)
        if trial % 3 == 0:
            filters = [np.diag([1.0, 0.0]), np.eye(2), np.eye(2)]  # singular
        else:
            filters = [
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(3)
            ]
        filtered, p = ek.local_filter_pure(psi, filters, rescale=True)
        if filtered is None:
            continue
        rank_after = ek.schmidt_rank(filtered, part)
        assert rank_after <= rank_before
        if trial % 3 != 0 and min(
            abs(np.linalg.det(f)) for f in filters
        ) > 1e-6:
            assert rank_after == rank_before


def test_catalysis():
    src = _ghz_like([0.4, 0.4, 0.1, 0.1])
    tgt = _ghz_like([0.5, 0.25, 0.25, 0.0])
    eta = _ghz_like([0.6, 0.4])
    assert not ek.nielsen_convertible(src, tgt)
    assert ek.catalysis_convertible(src, tgt, eta)
    # tensored-majorization oracle on the 8-point product distribution
    lam_s = np.sort(np.outer([0.4, 0.4, 0.1, 0.1], [0.6, 0.4]).ravel())[::-1]
    lam_t = np.sort(np.outer([0.5, 0.25, 0.25, 0.0], [0.6, 0.4]).ravel())[::-1]
    assert majorizes_loop(list(lam_t), list(lam_s))

    rng = np.random.default_rng(15)
    for _ in range(20):
        p = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        q = p.copy()
        # make target dominate: push weight into the first component
        q[0] += q[-1]
        q[-1] = 0.0
        psi, phi = _ghz_like(p), _ghz_like(q)
        assert ek.nielsen_convertible(psi, phi)
        eta = _ghz_like(rng.dirichlet(np.ones(2)))
        assert ek.catalysis_convertible(psi, phi, eta)
    psi = _ghz_like([0.7, 0.3])
    assert ek.catalysis_convertible(psi, psi, _ghz_like([0.9, 0.1]))


def _catalyst_by_point(psi, phi, k, n):
    """The catalyst sweep one grid point at a time: every ordered ``k``-vector
    of multiples of ``1/n`` in descending lexicographic order, each checked
    by ``majorizes``."""
    lam_s, lam_t = ek.schmidt_vector(psi), ek.schmidt_vector(phi)

    def grid(prefix, rest, top, slots):
        if slots == 0:
            if rest == 0:
                yield prefix
            return
        for x in range(min(top, rest), -1, -1):
            yield from grid(prefix + [x], rest - x, x, slots - 1)

    for ks in grid([], n, n, k):
        eta = np.array(ks, dtype=float) / n
        if ek.majorizes(np.outer(lam_t, eta).ravel(), np.outer(lam_s, eta).ravel()):
            return eta
    return None


def test_find_catalyst_matches_the_sweep_by_point():
    """The blocked sweep returns the same grid point, or ``None``, as a
    ``majorizes`` call per point, for catalysts of 2, 3 and 4 levels: on
    seeded perturbations of the Jonathan-Plenio pair, on a pair that
    converts without a catalyst, and on one that no catalyst converts
    (the target is more entangled than the source).  The 4-level grids
    hold 8,037 and 13,561 points, so the sweep crosses blocks; on the
    finer one the Jonathan-Plenio catalyst is point 2,972, in the second
    block."""
    rng = np.random.default_rng(49)
    pairs = [([0.9, 0.1, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]),
             ([0.25, 0.25, 0.25, 0.25], [0.7, 0.2, 0.1, 0.0])]
    for _ in range(4):
        src = np.array([0.4, 0.4, 0.1, 0.1]) + 0.02 * rng.random(4)
        tgt = np.array([0.5, 0.25, 0.25, 0.0]) + 0.02 * rng.random(4)
        pairs.append((src / src.sum(), tgt / tgt.sum()))
    cases = [(src, tgt, k, n) for src, tgt in pairs for k, n in ((2, 100), (3, 120), (4, 100))]
    cases.append(([0.4, 0.4, 0.1, 0.1], [0.5, 0.25, 0.25, 0.0], 4, 120))
    found = []
    for src, tgt, k, n in cases:
        psi, phi = _ghz_like(src), _ghz_like(tgt)
        eta = ek.find_catalyst(psi, phi, catalyst_dim=k, grid_resolution=n)
        ref = _catalyst_by_point(psi, phi, k, n)
        assert (eta is None) == (ref is None)
        if ref is not None:
            assert np.array_equal(eta, ref)
        found.append(None if eta is None else eta[0] < 1.0)
    # the corpus holds true catalysts, direct conversions and no catalyst
    assert {True, False, None} <= set(found)
    assert np.array_equal(eta, [0.625, 0.375, 0.0, 0.0])


def test_find_catalyst():
    src = _ghz_like([0.4, 0.4, 0.1, 0.1])
    tgt = _ghz_like([0.5, 0.25, 0.25, 0.0])
    eta = ek.find_catalyst(src, tgt, catalyst_dim=2, grid_resolution=100)
    assert eta is not None
    assert np.abs(eta - np.array([0.62, 0.38])).max() < 1e-12  # first working grid point
    # verify via the tensored oracle
    lam_s = np.sort(np.outer([0.4, 0.4, 0.1, 0.1], eta).ravel())[::-1]
    lam_t = np.sort(np.outer([0.5, 0.25, 0.25, 0.0], eta).ravel())[::-1]
    assert majorizes_loop(list(lam_t), list(lam_s))

    bell = ek.bell_state(2)
    prod = ek.basis_state([2, 2], [0, 0])
    eta = ek.find_catalyst(bell, prod, catalyst_dim=2, grid_resolution=10)
    assert np.array_equal(eta, [1.0, 0.0])
    eta = ek.find_catalyst(bell, ek.bell_state(2), catalyst_dim=2, grid_resolution=10)
    assert np.array_equal(eta, [1.0, 0.0])
    for dim, grid in ((5, 100), (0, 100), (-1, 100), (2.5, 100), (2, 0), (2, -1), (2, 201)):
        with pytest.raises(ValueError, match="catalyst_dim|grid_resolution"):
            ek.find_catalyst(src, tgt, catalyst_dim=dim, grid_resolution=grid)
    # states of different dims are refused, not compared: this returned [1, 0]
    with pytest.raises(ValueError, match="dims mismatch"):
        ek.find_catalyst(ek.random_pure_state([2, 2], rng=0), ek.random_pure_state([2, 3], rng=0))
