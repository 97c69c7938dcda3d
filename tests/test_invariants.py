import numpy as np
import pytest

import entkit as ek


def _table_rows():
    rng = np.random.default_rng(0)
    phi = [ek.random_pure_state([2], rng=rng) for _ in range(3)]
    bell = ek.bell_state(2)
    return [
        # state, (I1..I6), (tau1..tau3), ranks
        (ek.product_state(*phi), (1, 1, 1, 1, 1, 0), (0, 0, 0), (1, 1, 1)),
        (ek.product_state(phi[0], bell), (1, 1, 0.5, 0.5, 0.25, 0), (2/3, 1/3, 0), (1, 2, 2)),
        (ek.product_state(phi[1], bell).permute([1, 0, 2]), (1, 0.5, 1, 0.5, 0.25, 0), (2/3, 1/3, 0), (2, 1, 2)),
        (ek.product_state(phi[2], bell).permute([1, 2, 0]), (1, 0.5, 0.5, 1, 0.25, 0), (2/3, 1/3, 0), (2, 2, 1)),
        (ek.w_state(), (1, 5/9, 5/9, 5/9, 2/9, 0), (8/9, 4/9, 0), (2, 2, 2)),
        (ek.ghz_state(3, 2), (1, 0.5, 0.5, 0.5, 0.25, 0.25), (1, 0, 1), (2, 2, 2)),
    ]


def test_invariant_table_rows():
    for psi, ivals, tvals, ranks in _table_rows():
        rec = ek.lu_invariants(psi)
        got_i = (rec.i1, rec.i2, rec.i3, rec.i4, rec.i5, rec.i6)
        got_t = (rec.tau1, rec.tau2, rec.tau3)
        assert np.abs(np.array(got_i) - ivals).max() < 1e-9
        assert np.abs(np.array(got_t) - tvals).max() < 1e-9
        assert rec.ranks == ranks


def test_slocc_class_labels():
    rows = _table_rows()
    expected = [
        ek.SloccClass.PRODUCT,
        ek.SloccClass.BISEP_A_BC,
        ek.SloccClass.BISEP_B_AC,
        ek.SloccClass.BISEP_C_AB,
        ek.SloccClass.W,
        ek.SloccClass.GHZ,
    ]
    for (psi, *_), label in zip(rows, expected):
        assert ek.slocc_class_3qubit(psi) is label
    with pytest.raises(ValueError):
        ek.slocc_class_3qubit(ek.bell_state(2))


def test_hyperdet3():
    ghz = ek.ghz_state(3, 2)
    det = ek.hyperdet3(ghz.amplitudes)
    assert det == pytest.approx(0.25, abs=1e-12)
    assert 4 * abs(det) ** 2 == pytest.approx(0.25, abs=1e-12)
    assert ek.hyperdet3(ek.w_state().amplitudes) == pytest.approx(0, abs=1e-12)
    assert ek.hyperdet3(np.zeros(8)) == 0
    with pytest.raises(ValueError):
        ek.hyperdet3(np.zeros(4))


def test_kempe_symmetric():
    assert np.abs(np.array(ek.kempe_symmetric_check(ek.ghz_state(3, 2))) - 0.25).max() < 1e-12
    assert np.abs(np.array(ek.kempe_symmetric_check(ek.w_state())) - 2 / 9).max() < 1e-12
    rng = np.random.default_rng(1)
    for _ in range(30):
        vals = np.array(ek.kempe_symmetric_check(ek.random_pure_state([2, 2, 2], rng=rng)))
        assert np.ptp(vals) < 1e-9


def test_wootters_concurrence():
    assert ek.wootters_concurrence(ek.bell_state(2).density()) == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(2)
    a = ek.random_density_matrix([2], rng=rng).matrix
    b = ek.random_density_matrix([2], rng=rng).matrix
    sep = ek.DensityMatrix(np.kron(a, b), (2, 2))
    assert ek.wootters_concurrence(sep) == pytest.approx(0.0, abs=1e-10)
    red = ek.partial_trace(ek.w_state(), [0, 1])
    assert ek.wootters_concurrence(red) == pytest.approx(2 / 3, abs=1e-10)
    with pytest.raises(ValueError):
        ek.wootters_concurrence(ek.maximally_mixed([2, 2, 2]))
    with pytest.raises(ValueError):
        ek.wootters_concurrence(ek.maximally_mixed([4]))  # 4 x 4, but not two qubits


def test_tangles_and_monogamy_examples():
    assert np.abs(np.array(ek.tangles(ek.ghz_state(3, 2))) - [1, 0, 1]).max() < 1e-9
    assert np.abs(np.array(ek.tangles(ek.w_state())) - [8 / 9, 4 / 9, 0]).max() < 1e-9
    prod = ek.basis_state([2, 2, 2], [0, 1, 0])
    assert np.abs(np.array(ek.tangles(prod))).max() < 1e-10
    assert ek.monogamy_gap(ek.ghz_state(3, 2)) == pytest.approx(1.0, abs=1e-9)
    assert ek.monogamy_gap(ek.w_state()) == pytest.approx(0.0, abs=1e-9)
    bisep = ek.product_state(ek.random_pure_state([2], rng=3), ek.bell_state(2))
    assert ek.monogamy_gap(bisep) == pytest.approx(0.0, abs=1e-9)


def test_record_bounds_and_identities_random():
    rng = np.random.default_rng(4)
    for _ in range(300):
        psi = ek.random_pure_state([2, 2, 2], rng=rng)
        rec = ek.lu_invariants(psi)
        assert rec.i1 == pytest.approx(1.0, abs=1e-10)
        for x in (rec.i2, rec.i3, rec.i4):
            assert 0.5 - 1e-9 <= x <= 1 + 1e-9
        assert 2 / 9 - 1e-9 <= rec.i5 <= 1 + 1e-9
        assert 0 - 1e-9 <= rec.i6 <= 0.25 + 1e-9
        assert 0 <= rec.tau1 <= 1 + 1e-9
        assert 0 <= rec.tau2 <= 4 / 9 + 1e-9
        assert 0 <= rec.tau3 <= 1 + 1e-9
        i_av = (rec.i2 + rec.i3 + rec.i4) / 3
        assert rec.tau1 == pytest.approx(2 * (1 - i_av), abs=1e-9)
        assert rec.tau3 == pytest.approx(2 * np.sqrt(rec.i6), abs=1e-8)
        # the three tangles are tied by tau1 = 2 tau2 + tau3
        assert rec.tau2 == pytest.approx(1 - i_av - np.sqrt(rec.i6), abs=1e-8)
        assert ek.monogamy_gap(psi) >= -1e-9


def test_invariants_equal_under_conjugation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        psi = ek.random_pure_state([2, 2, 2], rng=rng)
        conj = ek.PureState(psi.amplitudes.conj(), psi.dims)
        a, b = ek.lu_invariants(psi), ek.lu_invariants(conj)
        for name in ("i1", "i2", "i3", "i4", "i5", "i6"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-9)


def _random_sl2(rng):
    while True:
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = np.linalg.det(m)
        if abs(det) > 0.3:
            return m / np.sqrt(det)


def test_hyperdet_sl_invariance():
    rng = np.random.default_rng(6)
    for _ in range(50):
        psi = ek.random_pure_state([2, 2, 2], rng=rng)
        ref = abs(ek.hyperdet3(psi.amplitudes))
        op = np.kron(np.kron(_random_sl2(rng), _random_sl2(rng)), _random_sl2(rng))
        transformed = op @ psi.amplitudes
        assert abs(ek.hyperdet3(transformed)) == pytest.approx(ref, rel=1e-8, abs=1e-12)


def test_tau3_permutation_invariance():
    rng = np.random.default_rng(7)
    perms = ([0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0])
    for _ in range(20):
        psi = ek.random_pure_state([2, 2, 2], rng=rng)
        ref = ek.tangles(psi)[2]
        for perm in perms:
            assert ek.tangles(psi.permute(perm))[2] == pytest.approx(ref, abs=1e-9)


def test_polytope_coords():
    prod = ek.basis_state([2, 2, 2], [1, 0, 1])
    assert np.abs(np.array(ek.polytope_coords(prod))).max() < 1e-12
    assert np.abs(np.array(ek.polytope_coords(ek.ghz_state(3, 2))) - 0.5).max() < 1e-12
    assert np.abs(np.array(ek.polytope_coords(ek.w_state())) - 1 / 3).max() < 1e-12
    rng = np.random.default_rng(8)
    for _ in range(100):
        la, lb, lc = ek.polytope_coords(ek.random_pure_state([2, 2, 2], rng=rng))
        assert la <= lb + lc + 1e-9
        assert lb <= la + lc + 1e-9
        assert lc <= la + lb + 1e-9


def test_acin_canonical_form_named_states():
    form = ek.acin_canonical_form(ek.ghz_state(3, 2))
    assert np.abs(form.r - np.array([1, 0, 0, 0, 1]) / np.sqrt(2)).max() < 1e-9
    assert abs(form.theta) < 1e-9
    form = ek.acin_canonical_form(ek.w_state())
    assert np.abs(form.r - np.array([0, 1, 1, 1, 0]) / np.sqrt(3)).max() < 1e-9
    for bad in (0, -1, 2.5):
        with pytest.raises(ValueError, match="grid_points"):
            ek.acin_canonical_form(ek.w_state(), grid_points=bad)
    # no root meets a zero tolerance; the error says how close the best came
    with pytest.raises(ek.ConvergenceError, match="best residual") as err:
        ek.acin_canonical_form(ek.random_pure_state([2, 2, 2], rng=9), tol=0.0)
    assert np.isfinite(err.value.best_residual) and err.value.best_residual >= 0.0


def test_acin_canonical_form_random_states():
    rng = np.random.default_rng(9)
    for _ in range(40):
        psi = ek.random_pure_state([2, 2, 2], rng=rng)
        form = ek.acin_canonical_form(psi)
        # the returned unitaries actually produce the canonical amplitudes
        u = np.kron(np.kron(form.local_unitaries[0], form.local_unitaries[1]),
                    form.local_unitaries[2])
        amp = u @ psi.amplitudes
        assert max(abs(amp[0b011]), abs(amp[0b101]), abs(amp[0b110])) < 1e-8
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = form.r[0] * np.exp(1j * form.theta)
        expected[0b100] = form.r[1]
        expected[0b010] = form.r[2]
        expected[0b001] = form.r[3]
        expected[0b111] = form.r[4]
        assert np.abs(amp - expected).max() < 1e-8
        # all invariants preserved
        canon = ek.PureState.normalized(expected, (2, 2, 2))
        a, b = ek.lu_invariants(psi), ek.lu_invariants(canon)
        for name in ("i2", "i3", "i4", "i5", "i6"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-8)


def test_canonical_form_batch_composition():
    """Polishing all seeds together gives each seed the roots it reaches alone."""
    from entkit.invariants import _polish, _seeds

    rng = np.random.default_rng(15)
    c12 = [ek.random_pure_state([2, 2, 2], rng=rng) for _ in range(352)]
    rng = np.random.default_rng(16)
    states = [ek.random_pure_state([2, 2, 2], rng=rng) for _ in range(20)]
    # the rounding-sensitive c12 states, and states whose Jacobians go singular
    states += [c12[i] for i in (87, 325, 351)] + [row[0] for row in _table_rows()]
    for psi in states:
        t0, t1 = psi.reshaped()
        seeds, orders = _seeds(t0, t1, 14)
        x, ok, best = _polish(t0, t1, seeds, orders)
        for i in range(len(seeds)):
            xi, oki, besti = _polish(t0, t1, seeds[i:i + 1], orders[i:i + 1])
            assert oki[0] == ok[i]
            assert np.array_equal(xi[0], x[i], equal_nan=True)
            assert besti[0] == best[i]


def test_record_json_fields():
    js = ek.lu_invariants(ek.ghz_state(3, 2)).to_json()
    assert set(js) == {
        "i1", "i2", "i3", "i4", "i5", "i6",
        "tau1", "tau2", "tau3", "ranks", "polytope", "class",
    }
    assert js["class"] == "GHZ"


def _oracle(psi):
    """Record fields, monogamy gap and Kempe triple from one validated
    ``partial_trace`` per reduction and one concurrence per ``DensityMatrix``."""
    one = [ek.partial_trace(psi, [k]).matrix for k in range(3)]
    pairs = ((0, 1), (0, 2), (1, 2))
    two = {xy: ek.partial_trace(psi, list(xy)) for xy in pairs}
    c2 = {xy: ek.wootters_concurrence(two[xy]) ** 2 for xy in pairs}
    single = [float(np.clip(4 * np.linalg.det(r).real, 0, 1)) for r in one]
    spectra = [np.linalg.eigvalsh(r) for r in one]
    ranks = tuple(int((s > 1e-10).sum()) for s in spectra)
    # the hyperdeterminant as the discriminant of det(x T0 + y T1) over the slices
    t0, t1 = psi.reshaped()
    d0, d1 = np.linalg.det(t0), np.linalg.det(t1)
    hyper = (np.linalg.det(t0 + t1) - d0 - d1) ** 2 - 4 * d0 * d1
    triple = [
        (3 * np.trace(np.kron(one[x], one[y]) @ two[x, y].matrix)
         - np.trace(one[x] @ one[x] @ one[x]) - np.trace(one[y] @ one[y] @ one[y])).real
        for x, y in pairs
    ]
    gap = single[0] - c2[0, 1] - c2[0, 2]
    if ranks == (1, 1, 1):
        label = ek.SloccClass.PRODUCT
    elif ranks.count(1) == 1:
        label = [ek.SloccClass.BISEP_A_BC, ek.SloccClass.BISEP_B_AC,
                 ek.SloccClass.BISEP_C_AB][ranks.index(1)]
    else:
        label = ek.SloccClass.GHZ if 4 * abs(hyper) > 1e-8 else ek.SloccClass.W
    floats = (
        [np.vdot(psi.amplitudes, psi.amplitudes).real]
        + [np.trace(r @ r).real for r in one]
        + [triple[0], 4 * abs(hyper) ** 2, sum(single) / 3, sum(c2.values()) / 3, max(0.0, gap)]
        + [s.min().clip(0, 0.5) for s in spectra]
    )
    return np.array(floats), ranks, label, gap, np.array(triple)


def test_batched_kernel_matches_partial_trace_oracle():
    rng = np.random.default_rng(10)
    phi = [ek.random_pure_state([2], rng=rng) for _ in range(3)]
    bell = ek.bell_state(2)
    edge = [
        ek.product_state(*phi),
        ek.product_state(phi[0], bell),
        ek.product_state(phi[1], bell).permute([1, 0, 2]),
        ek.product_state(phi[2], bell).permute([1, 2, 0]),
        ek.w_state(),
        ek.ghz_state(3, 2, lam=[1, 0]),
    ]
    states = (
        [ek.random_pure_state([2, 2, 2], rng=rng) for _ in range(200)]
        + [row[0] for row in _table_rows()]
        + edge
    )
    for psi in states:
        floats, ranks, label, gap, triple = _oracle(psi)
        rec = ek.lu_invariants(psi)
        got = np.array(
            [rec.i1, rec.i2, rec.i3, rec.i4, rec.i5, rec.i6, rec.tau1, rec.tau2, rec.tau3,
             *rec.polytope]
        )
        assert np.abs(got - floats).max() < 1e-12
        assert rec.ranks == ranks
        assert rec.class_label is label
        assert abs(ek.monogamy_gap(psi) - gap) < 1e-12
        assert np.abs(np.array(ek.kempe_symmetric_check(psi)) - triple).max() < 1e-12
