import numpy as np
import pytest

import entkit as ek

from conftest import secular_roots_every_interval


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


def test_slocc_class_tolerance_is_checked():
    # unchecked, a negative tolerance would call W a GHZ state, and NaN GHZ a W
    for tol in (-1.0, np.nan, np.inf, -np.inf):
        for psi in (ek.w_state(), ek.ghz_state(3, 2)):
            with pytest.raises(ValueError, match="tau3_tol must be finite"):
                ek.slocc_class_3qubit(psi, tau3_tol=tol)
    assert ek.slocc_class_3qubit(ek.ghz_state(3, 2), tau3_tol=0.0) is ek.SloccClass.GHZ
    assert ek.slocc_class_3qubit(ek.w_state(), tau3_tol=0.5) is ek.SloccClass.W


def test_hyperdet3():
    ghz = ek.ghz_state(3, 2)
    det = ek.hyperdet3(ghz.amplitudes)
    assert det == pytest.approx(0.25, abs=1e-12)
    assert 4 * abs(det) ** 2 == pytest.approx(0.25, abs=1e-12)
    assert ek.hyperdet3(ek.w_state().amplitudes) == pytest.approx(0, abs=1e-12)
    assert ek.hyperdet3(np.zeros(8)) == 0
    with pytest.raises(ValueError):
        ek.hyperdet3(np.zeros(4))
    # non-finite entries are refused before any arithmetic (no RuntimeWarning)
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 0)):
        amp = np.zeros(8, dtype=complex)
        amp[3] = bad
        with pytest.raises(ValueError, match="finite"):
            ek.hyperdet3(amp)
    with pytest.raises(ValueError, match="finite"):
        ek.hyperdet3([np.nan] * 8)


def _hyperdet_monomials(amp):
    """Cayley's hyperdeterminant as its expansion in the amplitudes: the
    squares group, the pair-coupling group and the two odd diagonals."""
    t = np.asarray(amp, dtype=complex).reshape(2, 2, 2)
    squares = (t[0, 0, 0] ** 2 * t[1, 1, 1] ** 2 + t[0, 0, 1] ** 2 * t[1, 1, 0] ** 2
               + t[0, 1, 0] ** 2 * t[1, 0, 1] ** 2 + t[1, 0, 0] ** 2 * t[0, 1, 1] ** 2)
    pairs = (
        t[0, 0, 0] * t[1, 1, 1]
        * (t[0, 1, 1] * t[1, 0, 0] + t[1, 0, 1] * t[0, 1, 0] + t[1, 1, 0] * t[0, 0, 1])
        + t[0, 1, 1] * t[1, 0, 0] * (t[1, 0, 1] * t[0, 1, 0] + t[1, 1, 0] * t[0, 0, 1])
        + t[1, 0, 1] * t[0, 1, 0] * t[1, 1, 0] * t[0, 0, 1]
    )
    diagonals = (t[0, 0, 0] * t[1, 1, 0] * t[1, 0, 1] * t[0, 1, 1]
                 + t[1, 1, 1] * t[0, 0, 1] * t[0, 1, 0] * t[1, 0, 0])
    return squares - 2 * pairs + 4 * diagonals


def _slocc_image(rng, amp, unitary=False):
    """``A (x) B (x) C`` applied to ``amp`` and renormalized, with complex
    Gaussian ``A, B, C`` (or Haar unitaries)."""
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    if unitary:
        ops = [np.linalg.qr(op)[0] for op in ops]
    return ek.PureState.normalized(np.kron(np.kron(ops[0], ops[1]), ops[2]) @ amp, (2, 2, 2))


def test_hyperdet3_matches_monomial_expansion():
    """The slice-determinant discriminant against the 20-monomial expansion
    on Haar states, LU images of GHZ, SLOCC images of W and the table states."""
    rng = np.random.default_rng(11)
    w, ghz = ek.w_state().amplitudes, ek.ghz_state(3, 2).amplitudes
    states = [ek.random_pure_state([2, 2, 2], rng=rng) for _ in range(200)]
    states += [_slocc_image(rng, ghz, unitary=True) for _ in range(50)]
    states += [_slocc_image(rng, w) for _ in range(50)]
    states += [row[0] for row in _table_rows()]
    for psi in states:
        assert abs(ek.hyperdet3(psi.amplitudes) - _hyperdet_monomials(psi.amplitudes)) < 1e-14
        assert abs(ek.hyperdet3(psi.reshaped()) - _hyperdet_monomials(psi.amplitudes)) < 1e-14


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
        ek.wootters_concurrence(ek.DensityMatrix(np.eye(8) / 8, (2, 2, 2)))
    with pytest.raises(ValueError):
        ek.wootters_concurrence(ek.DensityMatrix(np.eye(4) / 4, (4,)))  # not two qubits


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


def test_tangle_identities_near_w_class():
    """SLOCC images of W + eps GHZ obey ``tau1 = 2 tau2 + tau3`` and ``tau2 =
    1 - I_av - sqrt(I6)`` to 1e-12, with a non-negative monogamy gap.  On
    them the smaller eigenvalue of a pair's ``rho rho~`` can fall below 1e-12
    of the larger, so a relative zeroing of those eigenvalues would break
    both identities."""
    rng = np.random.default_rng(12)
    w, ghz = ek.w_state().amplitudes, ek.ghz_state(3, 2).amplitudes
    for eps in (1e-4, 1e-6, 1e-8):
        for _ in range(100):
            psi = _slocc_image(rng, w + eps * ghz)
            rec = ek.lu_invariants(psi)
            i_av = (rec.i2 + rec.i3 + rec.i4) / 3
            assert abs(rec.tau1 - 2 * rec.tau2 - rec.tau3) < 1e-12
            assert abs(rec.tau2 - (1 - i_av - np.sqrt(rec.i6))) < 1e-12
            assert ek.monogamy_gap(psi) >= -1e-12


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
    # every seed is a root already, so the polish takes no step
    assert form.newton_steps == 0 and form.roots >= 1
    form = ek.acin_canonical_form(ek.w_state())
    assert np.abs(form.r - np.array([0, 1, 1, 1, 0]) / np.sqrt(3)).max() < 1e-9
    assert form.newton_steps == 0 and form.roots >= 1
    assert "newton_steps" not in repr(form) and "roots" not in repr(form)
    # every W-class state has a root with r4 = 0, the minimal key
    rng = np.random.default_rng(2024)
    for _ in range(10):
        ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        amp = np.kron(np.kron(ops[0], ops[1]), ops[2]) @ ek.w_state().amplitudes
        form = ek.acin_canonical_form(ek.PureState.normalized(amp, (2, 2, 2)))
        assert form.r[4] < 1e-9 and form.theta == 0.0
    # no root meets a zero tolerance; the error says how close the best came
    with pytest.raises(ek.ConvergenceError, match="best residual") as err:
        ek.acin_canonical_form(ek.random_pure_state([2, 2, 2], rng=9), tol=0.0)
    assert np.isfinite(err.value.best_residual) and err.value.best_residual >= 0.0
    # a tolerance that is not a finite non-negative number is refused up front
    for tol in (np.nan, np.inf, -1e-8):
        with pytest.raises(ValueError, match="tol must be finite"):
            ek.acin_canonical_form(ek.w_state(), tol=tol)


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
        assert 0 <= form.newton_steps <= 6 and form.roots >= 1
        # all invariants preserved
        canon = ek.PureState.normalized(expected, (2, 2, 2))
        a, b = ek.lu_invariants(psi), ek.lu_invariants(canon)
        for name in ("i2", "i3", "i4", "i5", "i6"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-8)
    # theta is folded into (-pi/2, pi/2]; forms on the fold keep +pi/2
    for _ in range(10):
        r = rng.random(5)
        form = ek.acin_canonical_form(ek.acin_state(r / np.linalg.norm(r), np.pi / 2))
        assert -np.pi / 2 < form.theta <= np.pi / 2 + 1e-9


def test_acin_canonical_form_product_and_biseparable_states():
    """Seeded local-unitary images of product states and of A|BC, B|AC and
    C|AB states, with a Bell or a random pair on the cut, and ``|a> (x)
    Bell`` with ``|0>`` or a random ``|a>``: the form zeroes the three
    amplitudes and keeps the invariants.  On ``|a> (x) Bell`` the slice
    forms have ``B = c = 0`` exactly, where no Newton step moves, so only
    the ``+-beta/|beta|`` seeds reach the root."""
    rng = np.random.default_rng(31)
    bell = ek.bell_state(2).amplitudes.reshape(2, 2)

    def qubit():
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return v / np.linalg.norm(v)

    states = [ek.PureState(np.kron(a, bell.ravel()), (2, 2, 2))
              for a in [np.array([1.0, 0.0])] + [qubit() for _ in range(20)]]
    for _ in range(20):
        amps = [np.kron(np.kron(qubit(), qubit()), qubit())]
        for pair in (bell, np.outer(qubit(), qubit()) + 0.5 * np.outer(qubit(), qubit())):
            # the single party first, then moved to A, B or C
            amps += [np.moveaxis(np.multiply.outer(qubit(), pair), 0, k).ravel() for k in range(3)]
        states += [_slocc_image(rng, amp, unitary=True) for amp in amps]
    for psi in states:
        form = ek.acin_canonical_form(psi)
        u = np.kron(np.kron(form.local_unitaries[0], form.local_unitaries[1]),
                    form.local_unitaries[2])
        amp = u @ psi.amplitudes
        assert max(abs(amp[0b011]), abs(amp[0b101]), abs(amp[0b110])) < 1e-8
        a, b = ek.lu_invariants(psi), ek.lu_invariants(ek.PureState.normalized(amp, (2, 2, 2)))
        for name in ("i1", "i2", "i3", "i4", "i5", "i6"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-8)


def test_canonical_form_chart_derivatives_match_central_differences():
    """Gradient, Hessian and value of ``log sigma^2`` in the Newton chart
    against central differences of the singular values of the lower slice,
    for both orderings: this pins the sign of ``mu``, the orientation of the
    chart frame and the transpose of ``B``."""
    from entkit.invariants import _chart_terms, _slice_forms

    rng = np.random.default_rng(4)
    eps = 1e-4
    for _ in range(20):
        t = ek.random_pure_state([2, 2, 2], rng=rng).reshaped()
        forms = _slice_forms(t)
        a = rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))
        a /= np.linalg.norm(a)
        perp = np.array([[-a[0, 1].conj(), a[0, 0].conj()]])

        def h(z, k):
            b = (a + z * perp)[0] / np.linalg.norm(a + z * perp)
            return np.log(np.linalg.svd(b[0] * t[0] + b[1] * t[1], compute_uv=False)[k] ** 2)

        for mu, k in ((1.0, 0), (-1.0, 1)):
            g, diag, off, sigma = (x[0] for x in _chart_terms(a, np.array([mu]), *forms))
            grad = np.array([g.real, -g.imag])
            hess = np.array([[diag + off.real, -off.imag], [-off.imag, diag - off.real]])
            steps = (eps, 1j * eps)
            fd_grad = np.array([(h(s, k) - h(-s, k)) / (2 * eps) for s in steps])
            fd_hess = np.array([[(h(s + r, k) - h(s - r, k) - h(r - s, k) + h(-s - r, k)) / (4 * eps ** 2)
                                 for r in steps] for s in steps])
            exact = np.linalg.svd(a[0, 0] * t[0] + a[0, 1] * t[1], compute_uv=False)[k]
            assert abs(sigma - exact) < 1e-12
            assert np.abs(grad - fd_grad).max() < 1e-6 * (1 + np.abs(fd_grad).max())
            assert np.abs(hess - fd_hess).max() < 1e-5 * (1 + np.abs(fd_hess).max())


def _forward_difference_newton(t, a, order, steps=6, h=1e-7):
    """The earlier polish of the root search, as a reference: six undamped
    Newton steps on the ``|011>`` residual in the chart ``a(z) = normalize(a
    + z a_perp)``, with a forward-difference Jacobian from three rotated rows
    per seed and step.  A row with a residual below ``1e-14`` or a singular
    Jacobian stays where it is."""
    from entkit.invariants import _rotate

    perp = np.column_stack([-a[:, 1].conj(), a[:, 0].conj()])
    z = np.zeros(len(a), dtype=complex)

    def chart(z):
        b = a + z[..., None] * perp
        return b / np.linalg.norm(b, axis=-1, keepdims=True)

    for _ in range(steps):
        trial = chart((z[:, None] + [0.0, h, 1j * h]).T).reshape(-1, 2)
        f, f1, f2 = _rotate(t, trial, np.tile(order, 3))[3][:, 0, 1, 1].reshape(3, -1)
        j1, j2 = (f1 - f) / h, (f2 - f) / h
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (f * j2.conj()).imag + 1j * (j1 * f.conj()).imag
            step /= (j1 * j2.conj()).imag
        z -= np.where(np.isfinite(step) & (np.abs(f) > 1e-14), step, 0.0)
    return chart(z)


def test_canonical_form_matches_forward_difference_newton(monkeypatch):
    """The analytic Newton polish reaches the roots the forward-difference
    polish reached: the same ``r`` and ``theta`` on Haar states, W- and
    GHZ-class SLOCC images, SLOCC images of W plus a little GHZ (whose
    smallest root has ``r4`` near 1e-5) and forms on the ``theta`` fold."""
    from entkit import invariants

    rng = np.random.default_rng(7)

    def image(amp):
        ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        return ek.PureState.normalized(np.kron(np.kron(ops[0], ops[1]), ops[2]) @ amp, (2, 2, 2))

    w, ghz = ek.w_state().amplitudes, ek.ghz_state(3, 2).amplitudes
    states = [ek.random_pure_state([2, 2, 2], rng=rng) for _ in range(200)]
    states += [image(w) for _ in range(10)] + [image(ghz) for _ in range(10)]
    states += [image(w + 1e-2 * ghz) for _ in range(10)]
    for _ in range(10):
        r = rng.random(5)
        states.append(ek.acin_state(r / np.linalg.norm(r), np.pi / 2))
    for psi in states:
        form = ek.acin_canonical_form(psi)
        t = psi.reshaped()
        with monkeypatch.context() as m:
            m.setattr(invariants, "_newton",
                      lambda a, order, forms: (_forward_difference_newton(t, a, order), 6, None))
            ref = ek.acin_canonical_form(psi)
        assert np.abs(form.r - ref.r).max() < 1e-10
        assert abs(form.theta - ref.theta) < 1e-10


def test_secular_roots_match_a_solve_of_every_interval(monkeypatch):
    """Screening out the fit intervals that cannot hold a root leaves the
    roots bit for bit as a solve of all 21 intervals gives them: on Haar
    states, SLOCC images of W, GHZ and W plus a little GHZ, and forms on the
    ``theta`` fold.  The screen solves fewer than a third of the intervals
    on these states."""
    from entkit import invariants

    secular_roots, eigvals, calls, solved = invariants._secular_roots, np.linalg.eigvals, [], []

    def counting(mats):
        solved.append(len(mats))
        return eigvals(mats)

    def both(*args):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvals", counting)
            roots = secular_roots(*args)
        assert np.array_equal(roots, secular_roots_every_interval(*args))
        calls.append(roots.size)
        return roots

    monkeypatch.setattr(invariants, "_secular_roots", both)
    rng = np.random.default_rng(16)

    def image(amp):
        ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        return ek.PureState.normalized(np.kron(np.kron(ops[0], ops[1]), ops[2]) @ amp, (2, 2, 2))

    w, ghz = ek.w_state().amplitudes, ek.ghz_state(3, 2).amplitudes
    states = [ek.random_pure_state([2, 2, 2], rng=rng) for _ in range(150)]
    states += [image(amp) for amp in (w, ghz, w + 1e-2 * ghz) for _ in range(30)]
    for _ in range(20):
        r = rng.random(5)
        states.append(ek.acin_state(r / np.linalg.norm(r), np.pi / 2))
    for psi in states:
        ek.acin_canonical_form(psi)
    assert len(calls) >= len(states) and sum(calls) > 0
    assert sum(solved) < 21 * len(calls) / 3


def test_chebyshev_fit_inverts_the_values_at_the_nodes():
    """The fit of ``T_0 .. T_12`` from their discrete orthogonality at the 25
    Chebyshev points, times their values there from ``numpy``'s recurrence,
    is the 13 x 13 identity."""
    from entkit.invariants import _CHEB_FIT, _CHEB_NODES

    values = np.polynomial.chebyshev.chebvander(_CHEB_NODES, 12)
    assert np.abs(_CHEB_FIT @ values - np.eye(13)).max() < 1e-14


def test_record_json_fields():
    js = ek.lu_invariants(ek.ghz_state(3, 2)).to_json()
    assert set(js) == {
        "i1", "i2", "i3", "i4", "i5", "i6",
        "tau1", "tau2", "tau3", "ranks", "polytope", "class",
    }
    assert js["class"] == "GHZ"


def _oracle(psi, concurrence=ek.wootters_concurrence):
    """Record fields, monogamy gap and Kempe triple from one validated
    ``partial_trace`` per reduction and one ``concurrence`` per ``DensityMatrix``."""
    one = [ek.partial_trace(psi, [k]).matrix for k in range(3)]
    pairs = ((0, 1), (0, 2), (1, 2))
    two = {xy: ek.partial_trace(psi, list(xy)) for xy in pairs}
    c2 = {xy: concurrence(two[xy]) ** 2 for xy in pairs}
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
        assert abs(ek.kempe_invariant(psi) - triple[0]) < 1e-12
        assert np.abs(np.array(ek.kempe_symmetric_check(psi)) - triple).max() < 1e-12


def test_three_qubit_kernels_call_no_einsum_or_clip(monkeypatch):
    """The invariant record, the monogamy gap and the Kempe functions are
    closed forms in plain array arithmetic: with ``np.einsum`` and ``np.clip``
    refused, each returns its value on a Haar state."""
    psi = ek.random_pure_state([2, 2, 2], rng=np.random.default_rng(37))
    expected = (ek.lu_invariants(psi), ek.monogamy_gap(psi), ek.kempe_invariant(psi),
                ek.kempe_symmetric_check(psi))

    def refused(*args, **kwargs):
        raise AssertionError("a three-qubit invariant kernel called einsum or clip")

    monkeypatch.setattr(np, "einsum", refused)
    monkeypatch.setattr(np, "clip", refused)
    assert (ek.lu_invariants(psi), ek.monogamy_gap(psi), ek.kempe_invariant(psi),
            ek.kempe_symmetric_check(psi)) == expected


_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def _rank_two_concurrence(rho):
    """Concurrence of a two-qubit state of rank two at most, from its ``eigh``
    decomposition: over the subnormalized eigenvectors ``w_i``, the singular
    values ``s_1 >= s_2`` of ``tau_ij = w_i^T (sy (x) sy) w_j`` give ``C = s_1 -
    s_2`` (Wootters, PRL 80, 2245 (1998)).  Near the W class ``rho rho~`` has
    an eigenvalue far below 1e-12 of the largest, whose square root
    ``wootters_concurrence`` cannot resolve; ``tau`` holds its square root."""
    p, e = np.linalg.eigh(rho.matrix)
    w = e[:, 2:] * np.sqrt(np.maximum(p[2:], 0.0))
    s = np.linalg.svd(w.T @ _YY @ w, compute_uv=False)
    return s[0] - s[1]


def test_public_three_qubit_functions_match_dense_reference():
    """All eight public 3-qubit functions of one state against the dense
    reference, on Haar states, SLOCC images of GHZ and of W + eps GHZ."""
    rng = np.random.default_rng(14)
    w, ghz = ek.w_state().amplitudes, ek.ghz_state(3, 2).amplitudes
    states = [ek.random_pure_state([2, 2, 2], rng=rng) for _ in range(100)]
    states += [_slocc_image(rng, ghz) for _ in range(100)]
    states += [_slocc_image(rng, w + eps * ghz) for eps in (1e-2, 1e-4, 1e-6, 1e-8)
               for _ in range(50)]
    for psi in states:
        floats, ranks, label, gap, triple = _oracle(psi, _rank_two_concurrence)
        rec = ek.lu_invariants(psi)
        got = np.array(
            [rec.i1, rec.i2, rec.i3, rec.i4, rec.i5, rec.i6, rec.tau1, rec.tau2, rec.tau3,
             *rec.polytope]
        )
        assert np.abs(got - floats).max() < 1e-12
        assert rec.ranks == ranks
        assert rec.class_label is label is ek.slocc_class_3qubit(psi)
        assert np.abs(np.array(ek.tangles(psi)) - floats[6:9]).max() < 1e-12
        assert np.abs(np.array(ek.polytope_coords(psi)) - floats[9:]).max() < 1e-12
        assert abs(ek.monogamy_gap(psi) - gap) < 1e-12
        assert abs(ek.kempe_invariant(psi) - triple[0]) < 1e-12
        assert np.abs(np.array(ek.kempe_symmetric_check(psi)) - triple).max() < 1e-12
        assert abs(ek.hyperdet3(psi.amplitudes) - _hyperdet_monomials(psi.amplitudes)) < 1e-12
