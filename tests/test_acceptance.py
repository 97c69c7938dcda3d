"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a single PASS line when it holds.  Criterion 2b checks the
stated two-tangle relation tau2 = 1 - I_av - 2*I6 verbatim, but only where it
holds.  As implemented from its definition (the average squared pair
concurrence), tau2 obeys tau1 = 2*tau2 + tau3, i.e. tau2 = 1 - I_av - sqrt(I6),
so the stated form holds exactly where sqrt(I6) = 2*I6: I6 = 0 or 1/4, which
covers every table state.  The test asserts the stated form there to 1e-8,
asserts that elsewhere it misses by exactly sqrt(I6) - 2*I6, and asserts that
this miss is real: 1/8 at I6 = 1/16 and over 0.1 on the Haar sample.
"""

import time

import numpy as np
import pytest

import entkit as ek
from entkit.special import Feasibility

from conftest import majorizes_loop

N_HAAR = 10_000


@pytest.fixture(scope="module")
def haar_sample():
    rng = np.random.default_rng(2024)
    return [ek.random_pure_state([2, 2, 2], rng=rng) for _ in range(N_HAAR)]


@pytest.fixture(scope="module")
def haar_records(haar_sample):
    t0 = time.perf_counter()
    records = [ek.lu_invariants(psi) for psi in haar_sample]
    elapsed = time.perf_counter() - t0
    return records, elapsed


def _table_rows():
    """The six states of the invariant table with their I1..I6, tangles and ranks."""
    rng = np.random.default_rng(1)
    phi = [ek.random_pure_state([2], rng=rng) for _ in range(3)]
    bell = ek.bell_state(2)
    return [
        (ek.product_state(*phi), (1, 1, 1, 1, 1, 0), (0, 0, 0), (1, 1, 1)),
        (ek.product_state(phi[0], bell), (1, 1, .5, .5, .25, 0), (2/3, 1/3, 0), (1, 2, 2)),
        (ek.product_state(phi[1], bell).permute([1, 0, 2]), (1, .5, 1, .5, .25, 0), (2/3, 1/3, 0), (2, 1, 2)),
        (ek.product_state(phi[2], bell).permute([1, 2, 0]), (1, .5, .5, 1, .25, 0), (2/3, 1/3, 0), (2, 2, 1)),
        (ek.w_state(), (1, 5/9, 5/9, 5/9, 2/9, 0), (8/9, 4/9, 0), (2, 2, 2)),
        (ek.ghz_state(3, 2), (1, .5, .5, .5, .25, .25), (1, 0, 1), (2, 2, 2)),
    ]


def test_c01_table_reproduction():
    t0 = time.perf_counter()
    for psi, ivals, tvals, ranks in _table_rows():
        rec = ek.lu_invariants(psi)
        got = np.array([rec.i1, rec.i2, rec.i3, rec.i4, rec.i5, rec.i6,
                        rec.tau1, rec.tau2, rec.tau3])
        want = np.array(ivals + tvals)
        assert np.abs(got - want).max() < 1e-9
        assert rec.ranks == ranks
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1 PASS: six-state invariant table exact to 1e-9 in {elapsed:.2f}s")


def test_c02a_tau1_identity(haar_records):
    records, elapsed = haar_records
    assert elapsed < 30.0
    dev = max(
        abs(r.tau1 - 2 * (1 - (r.i2 + r.i3 + r.i4) / 3)) for r in records
    )
    assert dev < 1e-8
    print(f"criterion 2a PASS: tau1 = 2(1 - I_av) to {dev:.1e} on {N_HAAR} states")


def _stated_tau2(r):
    """The published two-tangle relation, verbatim: tau2 = 1 - I_av - 2*I6."""
    return 1 - (r.i2 + r.i3 + r.i4) / 3 - 2 * r.i6


def _random_local(rng, unitary):
    """Kronecker product of three random 2x2 maps: Ginibre, or unitary by QR."""
    ms = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    if unitary:
        ms = [np.linalg.qr(m)[0] for m in ms]
    return np.kron(np.kron(ms[0], ms[1]), ms[2])


def test_c02b_tau2_identity_as_stated(haar_records):
    records, elapsed = haar_records
    assert elapsed < 30.0
    # 1. where sqrt(I6) = 2*I6 (I6 = 0 or 1/4) the stated relation holds: the
    # table states, local-unitary images of GHZ and SLOCC images of W
    rng = np.random.default_rng(2025)
    ghz, w = ek.ghz_state(3, 2), ek.w_state()
    holds = [row[0] for row in _table_rows()]
    holds += [ek.PureState.normalized(_random_local(rng, True) @ ghz.amplitudes, (2, 2, 2))
              for _ in range(200)]
    holds += [ek.PureState.normalized(_random_local(rng, False) @ w.amplitudes, (2, 2, 2))
              for _ in range(200)]
    dev_holds = max(abs(r.tau2 - _stated_tau2(r)) for r in map(ek.lu_invariants, holds))
    assert dev_holds < 1e-8
    # 2. elsewhere it misses by exactly the typo term sqrt(I6) - 2*I6, since the
    # definitional tau2 obeys tau1 = 2*tau2 + tau3, i.e. tau2 = 1 - I_av - sqrt(I6)
    dev_err = max(
        abs((_stated_tau2(r) - r.tau2) - (np.sqrt(r.i6) - 2 * r.i6)) for r in records
    )
    assert dev_err < 1e-8
    # 3. and it really misses: by max_x (sqrt(x) - 2x) = 1/8 at I6 = 1/16, which
    # cos(pi/8)|000> + sin(pi/8)|111> reaches, and by over 0.1 on the Haar sample
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    r = ek.lu_invariants(ek.ghz_state(3, 2, lam=[c**2, s**2]))
    assert abs((_stated_tau2(r) - r.tau2) - 1 / 8) < 1e-8
    miss = max(abs(r.tau2 - _stated_tau2(r)) for r in records)
    assert miss > 0.1
    print(
        f"criterion 2b PASS: tau2 = 1 - I_av - 2*I6 to {dev_holds:.1e} on {len(holds)} "
        f"states with I6 in {{0, 1/4}}; on {N_HAAR} states it misses by sqrt(I6) - 2*I6 "
        f"to {dev_err:.1e}, at most {miss:.4f}"
    )


def test_c02b_tau2_identity_corrected(haar_records):
    records, _ = haar_records
    dev = max(
        abs(r.tau2 - (1 - (r.i2 + r.i3 + r.i4) / 3 - np.sqrt(r.i6)))
        for r in records
    )
    assert dev < 1e-8
    print(
        f"criterion 2b' PASS: corrected identity tau2 = 1 - I_av - sqrt(I6) "
        f"to {dev:.1e} on {N_HAAR} states"
    )


def test_c02c_tau3_identity(haar_records):
    records, elapsed = haar_records
    assert elapsed < 30.0
    dev = max(abs(r.tau3 - 2 * np.sqrt(r.i6)) for r in records)
    assert dev < 1e-8
    print(f"criterion 2c PASS: tau3 = 2 sqrt(I6) to {dev:.1e} on {N_HAAR} states")


def test_c03_monogamy(haar_sample):
    worst = min(ek.monogamy_gap(psi) for psi in haar_sample)
    assert worst >= -1e-9
    print(f"criterion 3 PASS: monogamy gap >= {worst:.2e} on {N_HAAR} states, 0 failures")


def test_c04_kempe_bounds_symmetry_and_minimum(haar_sample, haar_records):
    records, _ = haar_records
    lo = min(r.i5 for r in records)
    hi = max(r.i5 for r in records)
    assert lo >= 2 / 9 - 1e-9
    assert hi <= 1 + 1e-9
    for psi in haar_sample[:2000]:
        triple = ek.kempe_symmetric_check(psi)
        assert max(triple) - min(triple) < 1e-9
    # the minimum is approached near the W state
    rng = np.random.default_rng(5)
    w = ek.w_state()
    for _ in range(200):
        delta = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        delta *= 0.05 * rng.random() / np.linalg.norm(delta)
        psi = ek.PureState.normalized(w.amplitudes + delta, (2, 2, 2))
        i5 = ek.kempe_invariant(psi)
        assert i5 >= 2 / 9 - 1e-9
        assert abs(i5 - 2 / 9) < 0.01
    print(f"criterion 4 PASS: I5 in [{lo:.4f}, {hi:.4f}], pairings symmetric, W-minimum tight")


def test_c05_hyperdet_sl_invariance():
    rng = np.random.default_rng(6)

    def sl2():
        while True:
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            det = np.linalg.det(m)
            if abs(det) > 0.3:
                return m / np.sqrt(det)

    worst = 0.0
    for _ in range(500):
        psi = ek.random_pure_state([2, 2, 2], rng=rng)
        ref = abs(ek.hyperdet3(psi.amplitudes))
        op = np.kron(np.kron(sl2(), sl2()), sl2())
        new = abs(ek.hyperdet3(op @ psi.amplitudes))
        worst = max(worst, abs(new - ref) / max(ref, 1e-300))
    assert worst < 1e-8
    print(f"criterion 5 PASS: |Det3| relative drift {worst:.1e} over 500 SL(2,C)^x3 maps")


def _correlated(lam):
    d = len(lam)
    amp = np.zeros(d * d, dtype=complex)
    for i, x in enumerate(lam):
        amp[i * d + i] = np.sqrt(x)
    return ek.PureState.normalized(amp, (d, d))


def test_c06_nielsen_against_bruteforce():
    rng = np.random.default_rng(7)
    bell = ek.bell_state(2)
    prod = ek.basis_state([2, 2], [0, 0])
    for _ in range(100):
        target = ek.random_pure_state([2, 2], rng=rng)
        assert ek.nielsen_convertible(bell, target)
        if ek.schmidt_rank(target) > 1:
            assert not ek.nielsen_convertible(prod, target)
    mismatches = 0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        lib = ek.nielsen_convertible(_correlated(p), _correlated(q))
        if lib != majorizes_loop(list(q), list(p)):
            mismatches += 1
    assert mismatches == 0
    print("criterion 6 PASS: Nielsen test matches the partial-sum oracle on 1000 pairs")


def test_c07_catalysis():
    src = _correlated([0.4, 0.4, 0.1, 0.1])
    tgt = _correlated([0.5, 0.25, 0.25, 0.0])
    assert not ek.nielsen_convertible(src, tgt)
    eta = ek.find_catalyst(src, tgt, catalyst_dim=2, grid_resolution=100)
    assert eta is not None
    lam_s = np.sort(np.outer([0.4, 0.4, 0.1, 0.1], eta).ravel())[::-1]
    lam_t = np.sort(np.outer([0.5, 0.25, 0.25, 0.0], eta).ravel())[::-1]
    assert majorizes_loop(list(lam_t), list(lam_s))
    print(f"criterion 7 PASS: non-convertible pair catalyzed by {np.round(eta, 3)}")


def test_c08_teleportation():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        bell = ek.bell_state(d).amplitudes
        ident = np.outer(bell, bell.conj())
        choi = np.zeros_like(ident)
        for _, k in ek.teleportation_kraus(d):
            big = np.kron(np.eye(d), k)
            choi += big @ ident @ big.conj().T
        assert np.abs(choi - ident).max() < 1e-8
        rho = ek.random_density_matrix([d], rng=rng)
        for br in ek.teleport(rho):
            assert abs(br.probability - 1 / d**2) < 1e-10
    print("criterion 8 PASS: teleportation is the identity channel for d = 2, 3, 4")


def test_c09_bound_entanglement_suite():
    upb = ek.upb_state()
    for bp in ek.all_bipartitions(3):
        flag, mineig = ek.ppt_check(upb, bp)
        assert flag and mineig >= -1e-10
    assert ek.upb_unextendibility_check(ek.upb_basis(), restarts=100, rng=9)

    smolin = ek.smolin_state()
    for bp in ek.all_bipartitions(4):
        if sorted(len(b) for b in bp.blocks) == [2, 2]:
            assert ek.ppt_check(smolin, bp)[0]

    for pair in ("AB", "AC", "AD", "BC", "BD", "CD"):
        for br in ek.unlock_smolin(pair):
            tangle = ek.wootters_concurrence(br.post_state) ** 2
            assert abs(tangle - 1.0) < 1e-9
    print("criterion 9 PASS: UPB/Smolin PPT structure and unlocking verified")


def _gm_oracle_symmetric(psi: ek.PureState) -> float:
    # dense two-stage grid over product states with real non-negative factors;
    # valid because the target amplitudes are real non-negative, so replacing
    # any candidate factor amplitudes by their moduli cannot decrease the
    # overlap
    t = psi.reshaped().real
    grids = [np.linspace(0, np.pi / 2, 181)] * 3
    centers, width = None, None
    best = 0.0
    for stage in range(14):
        if centers is not None:
            grids = [np.linspace(c - width, c + width, 21) for c in centers]
        mats = [np.stack([np.cos(g), np.sin(g)], axis=1) for g in grids]
        overlap = np.einsum("ijk,ai,bj,ck->abc", t, *mats)
        idx = np.unravel_index(np.argmax(np.abs(overlap)), overlap.shape)
        best = float(np.abs(overlap[idx]))
        centers = [g[i] for g, i in zip(grids, idx)]
        width = (grids[0][1] - grids[0][0]) * 2
    return 1.0 - best**2


def test_c10_geometric_measure():
    # certify the expected values with the independent oracle first
    oracle_ghz = _gm_oracle_symmetric(ek.ghz_state(3, 2))
    oracle_w = _gm_oracle_symmetric(ek.w_state())
    assert abs(oracle_ghz - 0.5) < 1e-9
    assert abs(oracle_w - 5 / 9) < 1e-9

    res = ek.geometric_measure(ek.ghz_state(3, 2), restarts=32, seed=10)
    assert abs(res.value - 0.5) < 1e-6
    res = ek.geometric_measure(ek.w_state(), restarts=32, seed=10)
    assert abs(res.value - 5 / 9) < 1e-6
    prod = ek.product_state(
        ek.random_pure_state([2], rng=11),
        ek.random_pure_state([2], rng=12),
        ek.random_pure_state([2], rng=13),
    )
    assert ek.geometric_measure(prod, restarts=32, seed=10).value < 1e-10
    print("criterion 10 PASS: geometric measure 1/2 (GHZ) and 5/9 (W), 0 on products")


def test_c11_convex_roof_vs_wootters():
    bell = ek.bell_state(2).density().matrix
    worst = 0.0
    for p in np.linspace(0.0, 0.95, 20):
        rho = ek.DensityMatrix((1 - p) * bell + p * np.eye(4) / 4, (2, 2))
        roof = ek.convex_roof(
            rho, ek.tangle_pure, ensemble_size=4, restarts=6, seed=14
        ).value
        worst = max(worst, abs(roof - ek.wootters_concurrence(rho) ** 2))
    assert worst < 2e-3
    print(f"criterion 11 PASS: roof tangle matches Wootters^2 to {worst:.1e} on 20 mixes")


@pytest.fixture(scope="module")
def c12_forms():
    """The 1000 Haar states of criterion 12 (seed 15) and their canonical forms."""
    rng = np.random.default_rng(15)
    states = [ek.random_pure_state([2, 2, 2], rng=rng) for _ in range(1000)]
    return [(psi, ek.acin_canonical_form(psi)) for psi in states]


def test_c12_acin_canonical_form(c12_forms):
    worst_off = 0.0
    worst_inv = 0.0
    for psi, form in c12_forms:
        u = np.kron(
            np.kron(form.local_unitaries[0], form.local_unitaries[1]),
            form.local_unitaries[2],
        )
        amp = u @ psi.amplitudes
        off = max(abs(amp[0b011]), abs(amp[0b101]), abs(amp[0b110]))
        worst_off = max(worst_off, off)
        assert off < 1e-8
        canon = ek.PureState.normalized(amp, (2, 2, 2))
        a, b = ek.lu_invariants(psi), ek.lu_invariants(canon)
        dev = max(
            abs(getattr(a, f) - getattr(b, f))
            for f in ("i1", "i2", "i3", "i4", "i5", "i6")
        )
        worst_inv = max(worst_inv, dev)
        assert dev < 1e-8
    print(
        f"criterion 12 PASS: 1000 canonical forms, off-support <= {worst_off:.1e}, "
        f"invariant drift <= {worst_inv:.1e}"
    )


def test_c12_canonical_under_local_rotations(c12_forms):
    """The form is a local-unitary invariant: after seeded Haar local
    unitaries (seed 99), every state of criterion 12 gets the same ``r`` and
    the same folded ``theta``."""
    from scipy.stats import unitary_group

    rng = np.random.default_rng(99)
    worst_r = worst_theta = 0.0
    for psi, form in c12_forms:
        u = [unitary_group.rvs(2, random_state=rng) for _ in range(3)]
        turned = ek.PureState(np.kron(np.kron(u[0], u[1]), u[2]) @ psi.amplitudes, (2, 2, 2))
        other = ek.acin_canonical_form(turned)
        assert -np.pi / 2 < form.theta <= np.pi / 2
        worst_r = max(worst_r, np.abs(other.r - form.r).max())
        worst_theta = max(worst_theta, abs(other.theta - form.theta))
        assert worst_r < 1e-8 and worst_theta < 1e-8
    print(
        f"criterion 12 PASS under local rotations: r within {worst_r:.1e}, "
        f"theta within {worst_theta:.1e}"
    )


def _slocc_image(rng, amp):
    """``A (x) B (x) C`` with complex Gaussian entries applied to ``amp``, renormalized."""
    ops = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    return ek.PureState.normalized(np.kron(np.kron(ops[0], ops[1]), ops[2]) @ amp, (2, 2, 2))


def _noisy_product(rng):
    """A random product of three qubits plus complex Gaussian noise of size 1e-3, renormalized."""
    amp = np.ones(1)
    for _ in range(3):
        amp = np.kron(amp, ek.random_pure_state([2], rng=rng).amplitudes)
    noise = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return ek.PureState.normalized(amp + 1e-3 * noise, (2, 2, 2))


def _secular_roots_boyd_only(d, p, q, cc, bound):
    """``invariants._secular_roots`` with the Boyd test as its only filter,
    and the number of colleague matrices it solves."""
    from entkit.invariants import (
        _CHEB_FIT,
        _CHEB_NODES,
        _COLLEAGUE,
        _COLLEAGUE_SCALE,
        _CUTS,
        _secular,
    )

    lo, hi = bound * _CUTS[:-1, None], bound * _CUTS[1:, None]
    mid, half = (hi + lo) / 2, (hi - lo) / 2
    coef = _secular(mid + half * _CHEB_NODES, d, p, q, cc) @ _CHEB_FIT.T
    scale = np.abs(coef).max(1)
    keep = (scale > 0) & (np.abs(coef[:, 0]) <= 1.001 * np.abs(coef[:, 1:]).sum(1))
    mid, half, coef = mid[keep], half[keep], coef[keep] / scale[keep, None]
    lead = np.where(np.abs(coef[:, -1:]) < 1e-16, 1e-16, coef[:, -1:])
    mats = np.repeat(_COLLEAGUE[None], len(coef), 0)
    mats[:, :, -1] -= coef[:, :-1] / lead * _COLLEAGUE_SCALE
    x = np.linalg.eigvals(mats[:, ::-1, ::-1])
    return (mid + half * x.real)[(np.abs(x.imag) < 1e-6) & (np.abs(x.real) <= 1.0)], len(coef)


def test_c12_bernstein_test_drops_no_secular_root(c12_forms, monkeypatch):
    """Skipping the secular intervals whose Bernstein coefficients all clear
    the Boyd margin with one sign changes no bit of the roots, nor of ``r``,
    ``theta``, ``roots`` and ``newton_steps``: on the states of criterion 12,
    on SLOCC images of GHZ and W (seed 12) and on product states plus 1e-3
    noise, against a copy of the filter with the Boyd test alone.  It solves
    fewer colleague matrices."""
    from entkit import invariants

    rng = np.random.default_rng(12)
    ghz, w = ek.ghz_state(3, 2).amplitudes, ek.w_state().amplitudes
    extra = ([_slocc_image(rng, ghz) for _ in range(60)] + [_slocc_image(rng, w) for _ in range(60)]
             + [_noisy_product(rng) for _ in range(60)])
    pairs = c12_forms + [(psi, ek.acin_canonical_form(psi)) for psi in extra]
    library, eigvals = invariants._secular_roots, np.linalg.eigvals
    solved = {"library": 0, "boyd": 0}

    def counting(mats):
        solved["library"] += len(mats)
        return eigvals(mats)

    def boyd_only(*args):
        roots, count = _secular_roots_boyd_only(*args)
        solved["boyd"] += count
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvals", counting)
            assert library(*args).tobytes() == roots.tobytes()
        return roots

    monkeypatch.setattr(invariants, "_secular_roots", boyd_only)
    for psi, form in pairs:
        other = ek.acin_canonical_form(psi)
        assert other.r.tobytes() == form.r.tobytes() and other.theta == form.theta
        assert (other.roots, other.newton_steps) == (form.roots, form.newton_steps)
    assert len(pairs) == 1180 and solved["library"] < solved["boyd"]
    print(f"Bernstein test: {solved['boyd'] / len(pairs):.2f} -> "
          f"{solved['library'] / len(pairs):.2f} colleague matrices a form, roots unchanged")


def _six_step_newton(a, order, forms):
    """The polish before it stopped on a complete root count: Newton steps on
    ``invariants._chart_terms`` from every row at once, until no row moves,
    six at most."""
    from entkit.invariants import _chart_terms

    mu = np.where(order, 1.0, -1.0)
    for taken in range(6):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            grad, diag, off, sigma = _chart_terms(a, mu, *forms)
            z = (off * grad.conj() - diag * grad).conj() / (diag * diag - abs(off) ** 2)
            move = np.isfinite(z) & (sigma * abs(grad) > 2e-15)
            if not move.any():
                return a, taken, None
            moved = a + z[:, None] * np.column_stack([-a[:, 1].conj(), a[:, 0].conj()])
            a = np.where(move[:, None], moved / np.linalg.norm(moved, axis=1, keepdims=True), a)
    return a, 6, None


#: Amplitudes, as real and imaginary parts, where a weaker stop of the Newton
#: polish returns another root than six steps reach, found by a search over
#: SLOCC images of biseparable states plus 1e-2 noise and of GHZ + 1e-2 W.
_NEWTON_STOP_FRAMES = [
    # dropping the check against the count one step earlier fails here
    ([0.12844612303993036, 0.07156906534257115, 0.00905482458067576, -0.23011854649731564,
      0.03346636457075952, -0.050079057913138506, -0.14031994360282812, 0.16167125422134732],
     [0.0, 0.22080093697409733, 0.46997285386474175, -0.7178700007958152,
      0.03951829794011401, 0.08053254398226238, 0.12701301859297354, -0.258347378297308]),
    # dropping the check that no row closes in on another root fails on these two
    ([0.5141182637568659, 0.04463798747852112, -0.5265680323495224, -0.2530083077176852,
      0.025724390324298248, -0.013978687098965797, -0.18528930046452027, -0.007434813174716297],
     [0.0, 0.06357513750978533, 0.5521936615897857, 0.00017186828846469377,
      0.15106990306036958, 0.010408966812712256, -0.14089611755425335, -0.07359598850525696]),
    ([0.05537938302358943, 0.02784707451089509, 0.03922780346675262, 0.04955094324653658,
      -0.21850972505861269, -0.12807717029048368, 0.21019223177236124, -0.002363992621543531],
     [0.0, 0.00048748740605593333, 0.17662225135380782, 0.0821013747157175,
      -0.14119384631441745, -0.09379896662968375, -0.7913791581487826, -0.43689324806489493]),
    # dropping the floor of two roots per sheet fails here
    ([0.05019974342641452, -0.2568899773667016, 0.02198063252372251, -0.3431960031945239,
      -0.0011029981838418014, -0.5324674208249566, -0.025150957998133647, -0.13999867920877115],
     [0.0, 0.5231548418391626, 0.022999597441026656, 0.1170137471876794, 0.05194346236855849,
      -0.2825137496699451, 0.02457970471584414, -0.3720717911744786]),
]


def test_c12_newton_stop_keeps_the_six_step_forms(c12_forms, monkeypatch):
    """The Newton polish that stops on a complete signed root count returns
    the forms of six steps, ``r`` and ``theta`` within 1e-10: on the states
    of criterion 12, on SLOCC images of GHZ, W and W + 1e-2 GHZ (seed 21),
    on product states plus 1e-3 noise, and on pinned frames where a weaker
    stop returns another root.  Nearly every form of criterion 12 has a
    complete count and stops on it, after two steps at least, since the
    count must hold one step earlier too; GHZ and W take no step."""
    from entkit import invariants

    rng = np.random.default_rng(21)
    ghz, w = ek.ghz_state(3, 2).amplitudes, ek.w_state().amplitudes
    # a count that never passes costs six steps but keeps the form; on these
    # Haar states it is 1 in 1,000, where one root's rows sit on a rounding
    # floor of sigma |G| near 1e-12
    complete = [[e - s for e, s in form.morse_count] == [2, 0]
                and min(map(sum, form.morse_count)) >= 2 for _, form in c12_forms]
    steps = np.bincount([form.newton_steps for _, form in c12_forms], minlength=7)
    assert sum(complete) >= 995 and steps[:2].sum() == 0 and steps[6] <= 5
    assert all(form.newton_steps == 6 for (_, form), ok in zip(c12_forms, complete) if not ok)
    named = [ek.ghz_state(3, 2), ek.w_state()]
    assert [ek.acin_canonical_form(psi).newton_steps for psi in named] == [0, 0]
    # as given, not renormalized: the stop there turns on the last bits
    extra = named + [ek.PureState(np.array(re) + 1j * np.array(im), (2, 2, 2))
                     for re, im in _NEWTON_STOP_FRAMES]
    extra += [_slocc_image(rng, amp) for amp in [ghz] * 60 + [w] * 60 + [w + 1e-2 * ghz] * 200]
    extra += [_noisy_product(rng) for _ in range(60)]
    pairs = c12_forms + [(psi, ek.acin_canonical_form(psi)) for psi in extra]
    monkeypatch.setattr(invariants, "_newton", _six_step_newton)
    for psi, form in pairs:
        ref = ek.acin_canonical_form(psi)
        assert np.abs(form.r - ref.r).max() < 1e-10
        assert abs(form.theta - ref.theta) < 1e-10
    print(f"Newton stop: {sum(complete)} of 1000 criterion-12 counts complete, "
          f"{steps.tolist()} forms at 0..6 steps; {len(pairs)} forms as after six steps")


def test_c13_lme_and_ame_facts():
    assert ek.is_lme(ek.psi25_state(), tol=1e-8)
    facts = {
        (4, 2): Feasibility.NOT_EXISTS,
        (7, 2): Feasibility.NOT_EXISTS,
        (8, 2): Feasibility.NOT_EXISTS,
        (9, 2): Feasibility.NOT_EXISTS,
        (2, 2): Feasibility.EXISTS,
        (3, 2): Feasibility.EXISTS,
        (5, 2): Feasibility.EXISTS,
        (6, 2): Feasibility.EXISTS,
        (4, 6): Feasibility.EXISTS,
        (4, 7): Feasibility.EXISTS,
        (4, 9): Feasibility.EXISTS,
        (2, 3): Feasibility.EXISTS,
        (3, 3): Feasibility.EXISTS,
        (3, 4): Feasibility.EXISTS,
        (4, 4): Feasibility.EXISTS,
        (4, 5): Feasibility.EXISTS,
        (5, 5): Feasibility.EXISTS,
        (6, 7): Feasibility.EXISTS,
    }
    for (n, d), expect in facts.items():
        verdict = ek.ame_feasibility(n, d)
        assert verdict.feasible is expect, (n, d, verdict)
    print("criterion 13 PASS: psi25 is LME at 1e-8 and all AME existence facts hold")
