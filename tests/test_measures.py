import functools
import itertools

import numpy as np
import pytest

import entkit as ek


def test_geometric_measure_product_state():
    prod = ek.product_state(
        ek.random_pure_state([2], rng=0),
        ek.random_pure_state([3], rng=1),
        ek.random_pure_state([2], rng=2),
    )
    res = ek.geometric_measure(prod, restarts=4, seed=0)
    assert res.value <= 1e-10
    assert res.converged
    assert isinstance(res.argument, ek.PureState)


def _slocc_image(psi, rng):
    """``A (x) B (x) C |psi>``, normalized, for complex Gaussian local operators."""
    ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in psi.dims]
    return ek.PureState.normalized(functools.reduce(np.kron, ops) @ psi.amplitudes, psi.dims)


def test_geometric_measure_reaches_the_canonical_form_roots():
    """On three qubits the largest overlap with product states is the largest
    ``|111>`` amplitude over all roots of the canonical form, which certifies
    the solver: after the Newton finish the value lies on it within 1e-13,
    on Haar states and on SLOCC images of GHZ and W."""
    from entkit.invariants import _roots

    rng = np.random.default_rng(23)
    states = [ek.random_pure_state([2, 2, 2], rng=rng) for _ in range(20)]
    states += [_slocc_image(base, rng) for base in (ek.ghz_state(3, 2), ek.w_state())
               for _ in range(10)]
    for psi in states:
        exact = 1.0 - np.abs(_roots(psi.reshaped())[1][:, 1, 1, 1]).max() ** 2
        res = ek.geometric_measure(psi, restarts=32, seed=0)
        assert res.value == pytest.approx(exact, abs=1e-13)
        assert abs(res.argument.overlap(psi)) ** 2 == pytest.approx(1.0 - res.value, abs=4e-15)


def test_geometric_measure_restart_seeds_agree_to_rounding():
    """On Haar states of 6 to 8 qubits, over restart seeds, the values of two
    runs whose best restart at least one other restart agrees with lie on
    the same local maximum to 1e-13 or more than 1e-9 apart, and the
    finish certifies them: a negative top Hessian eigenvalue and a gradient
    norm of at most 1e-10."""
    for n in (6, 7, 8):
        psi = ek.random_pure_state([2] * n, rng=90 + n)
        values = []
        for seed in range(12):
            res = ek.geometric_measure(psi, restarts=16, seed=seed)
            if res.agreeing_restarts >= 2:
                assert res.converged and res.gradient_norm <= 1e-10
                assert res.hessian_top_eigenvalue < -1e-6
                values.append(res.value)
        assert len(values) >= 6
        gaps = np.abs(np.subtract.outer(values, values))
        assert np.all((gaps <= 1e-13) | (gaps > 1e-9))


def test_geometric_measure_finish_keeps_w_on_five_ninths():
    """W's closest product states form a continuum, so its Hessian is flat
    along it and the finish hands W back to the sweep.  Over 20 seeds the
    value is never farther from 5/9 than that of the sweep alone, run to
    ``tol`` from the same starts, beyond rounding, and every restart stays
    within 1e-10."""
    w = ek.w_state()
    t = w.reshaped()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        alone = []
        for _ in range(16):
            factors = _draw_plainly(w.dims, rng)
            _sweep_plainly_until(t, factors, 0.0, 0, 500, 1e-10, -np.inf)
            alone.append(1.0 - abs(_contract_others(t, factors, None)) ** 2)
        res = ek.geometric_measure(w, restarts=16, seed=seed)
        assert abs(res.value - 5 / 9) <= abs(min(alone) - 5 / 9) + 1e-15
        assert np.allclose(res.restart_values, 5 / 9, rtol=0, atol=1e-10)
        assert res.converged and abs(res.hessian_top_eigenvalue) < 1e-6


def test_geometric_measure_reports_its_finish():
    """The result says how sure the answer is: how many restarts agree with
    the best, and the gradient norm and top Hessian eigenvalue of the squared
    overlap at the argument; -1 on GHZ, whose closest product states
    ``|000>`` and ``|111>`` are isolated, and -2 on a product state.  On W,
    every restart reaches 5/9 and agrees.  A roof reports none of these."""
    res = ek.geometric_measure(ek.ghz_state(3, 2), restarts=8, seed=0)
    assert res.agreeing_restarts == 8 and res.gradient_norm <= 1e-10
    assert res.hessian_top_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    prod = ek.product_state(ek.random_pure_state([3], rng=1), ek.random_pure_state([2], rng=2))
    res = ek.geometric_measure(prod, restarts=4, seed=0)
    assert res.hessian_top_eigenvalue == pytest.approx(-2.0, abs=1e-12)
    psi = ek.random_pure_state([2] * 7, rng=3)
    res = ek.geometric_measure(psi, restarts=16, seed=1)
    assert 1 <= res.agreeing_restarts <= 16
    assert res.agreeing_restarts == sum(v <= res.value + 1e-12 for v in res.restart_values)
    # W's best is not certified, so its restarts agree to the sweep's 2 tol
    for seed in range(5):
        res = ek.geometric_measure(ek.w_state(), restarts=16, seed=seed)
        assert res.agreeing_restarts == 16
        assert res.agreeing_restarts == sum(v <= res.value + 2e-10 for v in res.restart_values)
    # no finish on a chart of more than 32 coordinates, nor on one of none
    for big in (ek.random_pure_state([34], rng=4), ek.PureState([1.0], (1,))):
        res = ek.geometric_measure(big, restarts=2, seed=0)
        assert res.gradient_norm is None and res.hessian_top_eigenvalue is None
    roof = ek.convex_roof(ek.bell_state(2).density(), ek.tangle_pure, restarts=1, seed=0)
    assert (roof.agreeing_restarts, roof.gradient_norm, roof.hessian_top_eigenvalue) == (
        0, None, None)


def test_geometric_measure_draws_a_fresh_factor_for_a_vanishing_contraction(monkeypatch):
    """On ``|000>``, a restart that starts at ``|111>`` meets a zero
    contraction in the first two parties it updates: each time it keeps its
    overlap and draws a fresh factor from the restart generator, and it
    climbs from there to overlap 1, beside a restart that starts there."""
    from entkit import measures

    draws, real = [], measures._random_factors

    def starts(dims, count, rng):
        draws.append(count)
        if len(draws) > 1:
            return real(dims, count, rng)
        return [np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) for _ in dims]

    monkeypatch.setattr(measures, "_random_factors", starts)
    res = ek.geometric_measure(ek.basis_state([2, 2, 2], [0, 0, 0]), restarts=2, seed=0)
    assert draws == [2, 1, 1]
    assert res.converged and max(res.restart_values) < 1e-15


def test_gm_polish_undoes_a_step_that_lowers_the_overlap(monkeypatch):
    """A Newton step of the finish that lowers the overlap is undone: the
    restart goes back to the sweep from the factors it stood at before the
    step, with the overlap it had there, and is not certified."""
    from entkit import measures

    psi = ek.PureState.normalized(np.eye(8)[0] + 0.3 * np.eye(8)[7], (2, 2, 2))
    near = np.array([[1.0, 0.01]], dtype=complex) / np.hypot(1.0, 0.01)
    factors, steps = [near.copy() for _ in range(3)], []

    def away(dims, units, u):
        # a step to |111>, far down the overlap
        steps.append(u)
        return [np.array([[0.0, 1.0]], dtype=complex) for _ in dims]

    monkeypatch.setattr(measures, "_chart_step", away)
    start = measures._chart_terms(psi.reshaped(), factors)[0][0]
    iterations = np.zeros(1, dtype=int)
    certified, back, left_at, _, _ = measures._gm_polish(
        psi.reshaped(), factors, np.arange(1), iterations, 10)
    assert len(steps) == 1 and iterations.tolist() == [2]
    assert back.tolist() == [True] and certified.tolist() == [False]
    assert left_at[0] == start
    assert all(np.array_equal(f, near) for f in factors)


def test_random_factors_read_the_stream_restart_by_restart():
    """The starts drawn in one ``standard_normal`` call are those drawn
    restart by restart, party by party, to rounding in the norm, and leave
    the generator where those draws leave it."""
    from entkit.measures import _random_factors

    for dims in ((2, 2, 2), (2, 3, 4), (1, 2, 3), (5,)):
        rng, plain = np.random.default_rng(8), np.random.default_rng(8)
        batch = _random_factors(dims, 7, rng)
        for i in range(7):
            for k, f in enumerate(_draw_plainly(dims, plain)):
                assert np.allclose(batch[k][i], f, rtol=0, atol=1e-15)
        assert rng.standard_normal() == plain.standard_normal()


def test_geometric_measure_named_states():
    res = ek.geometric_measure(ek.ghz_state(3, 2), restarts=16, seed=0)
    assert res.value == pytest.approx(0.5, abs=1e-8)
    res = ek.geometric_measure(ek.w_state(), restarts=16, seed=0)
    assert res.value == pytest.approx(5 / 9, abs=1e-8)
    # the reported argument really is the closest product state found
    overlap = abs(res.argument.overlap(ek.w_state())) ** 2
    assert overlap == pytest.approx(4 / 9, abs=1e-8)


def test_geometric_measure_lu_invariant():
    rng = np.random.default_rng(3)
    psi = ek.random_pure_state([2, 2, 2], rng=rng)
    base = ek.geometric_measure(psi, restarts=24, seed=1).value
    for _ in range(3):
        us = []
        for d in psi.dims:
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, r = np.linalg.qr(z)
            us.append(q * (np.diag(r) / np.abs(np.diag(r))))
        u = np.kron(np.kron(us[0], us[1]), us[2])
        twirled = ek.PureState(u @ psi.amplitudes, psi.dims)
        val = ek.geometric_measure(twirled, restarts=24, seed=1).value
        assert val == pytest.approx(base, abs=1e-6)


def test_geometric_measure_zero_iff_one_producible():
    cases = [
        ek.basis_state([2, 2, 2], [0, 1, 0]),
        ek.product_state(ek.random_pure_state([2], rng=4), ek.random_pure_state([2], rng=5)),
        ek.ghz_state(3, 2),
        ek.w_state(),
        ek.bell_state(3),
    ]
    for psi in cases:
        gm = ek.geometric_measure(psi, restarts=16, seed=2).value
        one_producible = ek.classify_pure(psi).producibility_m == 1
        assert (gm < 1e-8) == one_producible


def test_geometric_measure_monotone_on_average_under_filtering():
    # a post-selected branch may concentrate entanglement, so the monotone
    # statement is the probability-weighted one; the depolarized branch is
    # separable and contributes zero
    rng = np.random.default_rng(6)
    singular = [np.diag([1.0, 0.0]), np.eye(2), np.eye(2)]
    for _ in range(100):
        psi = ek.random_pure_state([2, 2, 2], rng=rng)
        filtered, p = ek.local_filter_pure(psi, singular)
        if filtered is None:
            continue
        before = ek.geometric_measure(psi, restarts=12, seed=3).value
        after = ek.geometric_measure(filtered, restarts=12, seed=3).value
        assert p * after <= before + 1e-6


def _w_state(n):
    amp = np.zeros(2**n)
    amp[[1 << k for k in range(n)]] = 1 / np.sqrt(n)
    return ek.PureState(amp, (2,) * n)


def _draw_plainly(dims, rng):
    """One restart's start factors, party by party, each drawn as a real then
    an imaginary part and normalized."""
    factors = []
    for d in dims:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        factors.append(z / np.linalg.norm(z))
    return factors


def _contract_others(t, factors, k):
    """``t`` contracted against the conjugate of every factor but ``k``, one
    ``tensordot`` a party; every factor, when ``k`` is None."""
    v = t if k is None else np.moveaxis(t, k, -1)
    for j, f in enumerate(factors):
        if j != k:
            v = np.tensordot(f.conj(), v, axes=(0, 0))
    return v


def _sweep_plainly(t, factors):
    """One alternating sweep, in place; the overlap after it."""
    for k in range(len(factors)):
        v = _contract_others(t, factors, k)
        overlap = np.linalg.norm(v)
        factors[k] = v / overlap
    return overlap


def _chart_plainly(t, factors):
    """The terms of the Newton finish, written out: the state in the basis
    ``[b_k | P_k]`` of each party, ``P_k`` the complement of ``b_k`` from an
    SVD; the overlap ``s``, the gradient norm of ``F = |<product|psi>|^2``,
    and its half-gradient and half-Hessian in the real and imaginary parts
    of ``conj(z)``, with the bases."""
    n = len(factors)
    bases = [np.column_stack([b, np.linalg.svd(b[:, None])[0][:, 1:]]) for b in factors]
    x = t
    for k, u in enumerate(bases):
        x = np.moveaxis(np.tensordot(u.conj(), x, axes=(0, k)), 0, k)
    a0 = x[(0,) * n]
    s = abs(a0)
    coords = [(k, a) for k, d in enumerate(t.shape) for a in range(1, d)]

    def entry(*pairs):
        idx = [0] * n
        for k, a in pairs:
            idx[k] = a
        return x[tuple(idx)] * a0.conjugate() / s

    g = np.array([entry(c) for c in coords])
    h = np.array([[entry(c, e) if c[0] != e[0] else 0.0 for e in coords] for c in coords])
    grad = np.concatenate([g.real, -g.imag])
    other = np.concatenate([g.imag, g.real])
    curv = (np.outer(grad, grad) + np.outer(other, other)
            + s * np.block([[h.real, -h.imag], [-h.imag, -h.real]]) - s**2 * np.eye(2 * len(g)))
    return s, 2 * s * np.linalg.norm(g), s * grad, curv, bases


def _polish_plainly(t, factors, iterations, cap):
    """The guarded Newton finish of one restart, in place: its outcome
    ("certified", "back" or "capped"), the overlap where it left and its
    iterations."""
    from entkit.measures import _GM_CURVATURE, _GM_GRADIENT, _GM_ROUNDING

    last, prev = -np.inf, None
    while True:
        s, grad_norm, grad, curv, bases = _chart_plainly(t, factors)
        iterations += 1
        if s < last - _GM_ROUNDING:  # the step lowered the overlap: undo it
            factors[:] = prev
            return "back", last, iterations
        if np.linalg.eigvalsh(curv)[-1] >= -_GM_CURVATURE * s**2 / 2:
            return "back", s, iterations
        if grad_norm <= _GM_GRADIENT:
            return "certified", s, iterations
        if iterations >= cap:
            return "capped", s, iterations
        u = np.linalg.solve(-curv, grad)
        z = u[:len(u) // 2] - 1j * u[len(u) // 2:]
        prev, last, at = list(factors), s, 0
        for k, basis in enumerate(bases):
            f = basis[:, 0] + basis[:, 1:] @ z[at:at + len(basis) - 1]
            factors[k] = f / np.linalg.norm(f)
            at += len(basis) - 1


def _sweep_plainly_until(t, factors, last, iterations, cap, tol, switch):
    """Sweeps of one restart from the overlap ``last`` until its gain falls
    below ``tol`` ("met"), or below ``switch`` once the ratio of each gain to
    the one before has held steady for ``_GM_STEADY_SWEEPS`` sweeps
    ("switched"), or ``cap`` iterations ("capped"); the outcome, the overlap
    and the iterations."""
    from entkit.measures import _GM_RATIO_DRIFT, _GM_STEADY_SWEEPS

    gain = ratio = 0.0
    steady = 0
    while iterations < cap:
        iterations += 1
        overlap = _sweep_plainly(t, factors)
        step = overlap - last
        r = step / gain if gain > 0 else 0.0
        steady = steady + 1 if 0 < r and abs(r - ratio) < _GM_RATIO_DRIFT * (1.0 - r) else 0
        if step < tol:
            return "met", overlap, iterations
        if step < switch and steady >= _GM_STEADY_SWEEPS:
            return "switched", overlap, iterations
        last, gain, ratio = overlap, step, r
    return "capped", last, iterations


def _gm_one_restart_at_a_time(psi, restarts, seed, max_iterations, tol=1e-10):
    """Alternating maximization as written on paper, restart after restart,
    each factor the normalized ``tensordot`` contraction of the state against
    the others, starts drawn restart by restart, party by party; then the
    Newton finish.  A restart sweeps until its gain falls below ``tol``
    (converged) or switches (see :func:`_sweep_plainly_until`); a restart
    that switched takes the finish, and one that the finish sends back
    sweeps to ``tol``.  Returns the value, the converged flag, the iterations
    and the final factors of each restart; values come from those factors."""
    from entkit.measures import _GM_CHART_CAP, _GM_SWITCH

    rng = np.random.default_rng(seed)
    t = psi.reshaped()
    switch = _GM_SWITCH if 0 < sum(d - 1 for d in psi.dims) <= _GM_CHART_CAP else -np.inf
    values, flags, sweeps, finals = [], [], [], []
    for _ in range(restarts):
        factors = _draw_plainly(psi.dims, rng)
        state, overlap, iterations = _sweep_plainly_until(t, factors, 0.0, 0, max_iterations, tol,
                                                          switch)
        if state == "switched" and iterations < max_iterations:
            state, overlap, iterations = _polish_plainly(t, factors, iterations, max_iterations)
            if state == "back":
                state, overlap, iterations = _sweep_plainly_until(
                    t, factors, overlap, iterations, max_iterations, tol, -np.inf)
        values.append(max(0.0, 1.0 - abs(_contract_others(t, factors, None)) ** 2))
        flags.append(state in ("met", "certified"))
        sweeps.append(iterations)
        finals.append(factors)
    return values, flags, sweeps, finals


@pytest.mark.parametrize("psi", [
    ek.ghz_state(3, 2),
    ek.w_state(),
    ek.random_pure_state([2, 3, 4], rng=30),
    ek.random_pure_state([3, 3, 3], rng=31),
    ek.random_pure_state([2] * 5, rng=32),
    ek.random_pure_state([2] * 8, rng=33),
    ek.random_pure_state([1, 2, 3], rng=34),
    ek.random_pure_state([3], rng=35),
], ids=["ghz", "w", "haar234", "haar333", "haar5q", "haar8q", "haar123", "one-party"])
def test_geometric_measure_matches_one_restart_at_a_time(psi):
    """The restarts run as one batch, each stopping on its own, and reach what
    they reach one at a time from the same starts, finish included; a cap of 3
    iterations leaves some of them unconverged."""
    for seed, max_iterations in ((0, 500), (1, 500), (2, 3)):
        values, flags, sweeps, _ = _gm_one_restart_at_a_time(psi, 6, seed, max_iterations)
        res = ek.geometric_measure(psi, restarts=6, seed=seed, max_iterations=max_iterations)
        _check_against_one_at_a_time(res, values, sweeps)
        assert res.value == pytest.approx(min(values), abs=1e-12)
        # the best restart is the one of least value, up to rounding on ties
        assert res.converged in {f for v, f in zip(values, flags) if v <= min(values) + 1e-12}


def _check_against_one_at_a_time(res, values, sweeps):
    """Every restart of the batch runs the same iterations to the same value
    as alone."""
    assert res.restart_iterations == tuple(sweeps)
    assert np.allclose(res.restart_values, values, rtol=0, atol=1e-12)
    assert res.evaluations == sum(res.restart_iterations)


def test_geometric_measure_runs_each_batched_restart_as_alone():
    """GHZ, W and Haar states of 3 to 8 qubits and qutrit states, at three
    seeds: every restart of the batch runs the same iterations to the same
    value, within 1e-12, as alone, and the best restart's flag is the one it
    has alone."""
    corpus = [state for n in range(3, 9) for state in (
        ek.ghz_state(n, 2), _w_state(n), ek.random_pure_state([2] * n, rng=70 + n))]
    corpus += [ek.random_pure_state(dims, rng=80 + k)
               for k, dims in enumerate(([3, 3, 3], [3, 3, 3, 3], [2, 3, 3]))]
    # on these, restarts pass near a saddle point with a gain ratio that
    # creeps toward 1 by about 1% of itself a sweep, and sweep on past it
    runs = [(psi, 8, seed) for psi in corpus for seed in (0, 1, 2)]
    runs += [(ek.random_pure_state([2] * 5, rng=5001), 16, 3),
             (ek.random_pure_state([2] * 6, rng=6001), 16, 0),
             (ek.random_pure_state([2] * 8, rng=78), 8, 3),
             (ek.random_pure_state([2] * 8, rng=78), 16, 5)]
    for psi, restarts, seed in runs:
        values, flags, sweeps, _ = _gm_one_restart_at_a_time(psi, restarts, seed, 500)
        res = ek.geometric_measure(psi, restarts=restarts, seed=seed)
        assert res.value == pytest.approx(min(values), abs=1e-12)
        assert res.converged == flags[int(np.argmin(values))]
        _check_against_one_at_a_time(res, values, sweeps)


def _fixed_haar8():
    """An 8-qubit Haar state: the last of 100 draws of 8 amplitudes and one
    each of 64, 128 and 256, each drawn as a real then an imaginary part,
    from seed 240904566."""
    rng = np.random.default_rng(2409_04566)
    for d in [8] * 100 + [64, 128, 256]:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return ek.PureState.normalized(z, (2,) * 8)


def test_geometric_measure_keeps_a_restart_that_passes_a_saddle_point():
    """At restart seed 66 on a fixed 8-qubit Haar state, one restart of 16
    reaches the largest overlap.  Its gain ratio holds steady for a few
    sweeps on its way to a saddle point 0.05 below the best overlap; the
    finish hands it back to the sweep, which carries it past the saddle
    point to the best value, as when the restarts run one at a time."""
    psi = _fixed_haar8()
    values, flags, sweeps, _ = _gm_one_restart_at_a_time(psi, 16, 66, 500)
    res = ek.geometric_measure(psi, restarts=16, seed=66)
    _check_against_one_at_a_time(res, values, sweeps)
    assert res.value == pytest.approx(min(values), abs=1e-12)
    assert res.value == pytest.approx(0.9182329928, abs=1e-10)
    assert sorted(values)[1] > res.value + 1e-4


def test_geometric_measure_environment_sweep_matches_tensordot_contractions():
    """The sweep kernel's environments (the state contracted once a sweep)
    against per-party ``tensordot`` contractions, one restart at a time,
    finish included: the same iterations and flags, values within 1e-12 and
    the same argument up to phase, on GHZ, W and Haar states of 3 to 8
    qubits, run to convergence and cut at 3 iterations."""
    for n in range(3, 9):
        for psi in (ek.ghz_state(n, 2), _w_state(n), ek.random_pure_state([2] * n, rng=50 + n)):
            for seed, max_iterations in ((n, 500), (n + 10, 3)):
                res = ek.geometric_measure(psi, restarts=16, seed=seed,
                                           max_iterations=max_iterations)
                values, flags, sweeps, factors = _gm_one_restart_at_a_time(
                    psi, 16, seed, max_iterations)
                _check_against_one_at_a_time(res, values, sweeps)
                assert res.value == pytest.approx(min(values), abs=1e-12)
                assert res.converged in {f for v, f in zip(values, flags)
                                         if v <= min(values) + 1e-12}
                assert res.converged_restarts == sum(flags)
                # the argument is a best restart's product state (GHZ ties)
                products = [functools.reduce(np.kron, f) for f, v in zip(factors, values)
                            if v <= min(values) + 1e-12]
                assert max(abs(np.vdot(p, res.argument.amplitudes)) for p in products) == (
                    pytest.approx(1, abs=1e-12))


def _upb_one_restart_at_a_time(basis, restarts, seed):
    """Alternating minimization as written on paper: restart after restart,
    the residual matrix of each factor summed member by member from
    ``tensordot`` contractions, starts drawn restart by restart, party by
    party; every restart runs to its own stop and reports its residual."""
    rng = np.random.default_rng(seed)
    dims = basis[0].dims
    tensors = [v.reshaped().conj() for v in basis]
    residuals = []
    for _ in range(restarts):
        factors = []
        for d in dims:
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            factors.append(z / np.linalg.norm(z))
        last = np.inf
        for _ in range(200):
            for k, d in enumerate(dims):
                mat = np.zeros((d, d), dtype=complex)
                for vt in tensors:
                    h = np.moveaxis(vt, k, 0)
                    for j in range(len(dims)):
                        if j != k:
                            h = np.tensordot(h, factors[j], axes=(1, 0))
                    mat += np.outer(h.conj(), h)
                vals, vecs = np.linalg.eigh(mat)
                factors[k] = vecs[:, 0]
            if last - vals[0] < 1e-14:
                break
            last = vals[0]
        residuals.append(vals[0])
    return residuals


def test_upb_unextendibility_matches_one_restart_at_a_time():
    """The restarts run as one batch and give the verdict they give one at a
    time from the same starts, on the UPB, on each of its proper subsets, which
    a product vector extends, on complete one- and two-qubit bases, and on
    three and four random complex product vectors."""
    upb = ek.upb_basis()
    cases = [(upb, seed) for seed in (0, 1, 2)]
    cases += [(list(sub), 0) for m in (1, 2, 3) for sub in itertools.combinations(upb, m)]
    cases += [([ek.basis_state([2] * n, idx) for idx in itertools.product((0, 1), repeat=n)], 0)
              for n in (1, 2)]
    cases += [([ek.product_state(*(ek.random_pure_state([2], rng=3 * i + k) for k in range(3)))
                for i in range(m)], 0) for m in (3, 4)]
    tol = 1e-6
    for basis, seed in cases:
        least = min(_upb_one_restart_at_a_time(basis, 20, seed))
        # far from tol on either side, so rounding decides no verdict
        assert least < tol * 1e-3 or least > tol * 1e3
        verdict = ek.upb_unextendibility_check(basis, restarts=20, tol=tol, rng=seed)
        assert verdict == (least >= tol)


def test_geometric_measure_checks_iterations_and_tol():
    """A sweep cap outside 1..10,000 or a tolerance that is not finite and
    non-negative is refused, not reported as a value after no sweep; a seed
    that numpy refuses (NaN used to raise ``TypeError``) is a ``ValueError``."""
    w = ek.w_state()
    for max_iterations in (0, -3, 10_001, 2.5):
        with pytest.raises(ValueError, match="max_iterations"):
            ek.geometric_measure(w, restarts=2, seed=0, max_iterations=max_iterations)
    for tol in (float("nan"), float("inf"), -1e-3):
        with pytest.raises(ValueError, match="tol"):
            ek.geometric_measure(w, restarts=2, seed=0, tol=tol)
    for seed in (float("nan"), 2.5, -1, "0"):
        with pytest.raises(ValueError, match="^seed must be"):
            ek.geometric_measure(w, restarts=2, seed=seed)
    res = ek.geometric_measure(w, restarts=2, seed=0, tol=0.0, max_iterations=1)
    assert res.evaluations == 2 and not res.converged and res.converged_restarts == 0


def test_multipartite_concurrence_bipartite_pattern():
    rng = np.random.default_rng(7)
    for _ in range(500):
        psi = ek.random_pure_state([2, 2], rng=rng)
        got = ek.multipartite_concurrence(psi, {(-1, -1): 1.0})
        expect = np.sqrt(2 * (1 - ek.purity(ek.partial_trace(psi, [0]))))
        assert got == pytest.approx(expect, abs=1e-8)


def test_multipartite_concurrence_ghz_and_product():
    pairs = {(-1, -1, 1): 1.0, (-1, 1, -1): 1.0, (1, -1, -1): 1.0}
    assert ek.multipartite_concurrence(ek.ghz_state(3, 2), pairs) > 0.5
    prod = ek.product_state(*(ek.random_pure_state([2], rng=k) for k in (8, 9, 10)))
    assert ek.multipartite_concurrence(prod, pairs) == pytest.approx(0.0, abs=1e-10)
    ghz = ek.ghz_state(3, 2)
    assert ek.multipartite_concurrence(ghz, {(-1, -1, 1): 1.0}) == pytest.approx(
        np.sqrt(0.5), abs=1e-12)
    assert ek.multipartite_concurrence(ghz, {(-1.0, -1, np.int64(1)): 1.0}) == (
        ek.multipartite_concurrence(ghz, {(-1, -1, 1): 1.0}))
    # a NaN weight no longer reads as "not entangled", nor an infinite one as inf
    for w in (-1.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="weight"):
            ek.multipartite_concurrence(ghz, {(-1, -1, 1): w})
    # a sign is exactly -1 or +1, not truncated to one
    for pattern in ((-1, -1), (-1, -1, 1.7), (-1, -1, 0), (-1, -1, 2), (-1, -1, float("nan"))):
        with pytest.raises(ValueError, match="pattern"):
            ek.multipartite_concurrence(ghz, {pattern: 1.0})


def test_meyer_wallach():
    prod = ek.basis_state([2, 2, 2], [0, 1, 1])
    assert ek.meyer_wallach(prod) == pytest.approx(0.0, abs=1e-12)
    assert ek.meyer_wallach(ek.ghz_state(3, 2)) == pytest.approx(1.0, abs=1e-10)
    assert ek.meyer_wallach(ek.w_state()) == pytest.approx(8 / 9, abs=1e-10)
    # coincides with the averaged one-tangle on three qubits
    rng = np.random.default_rng(11)
    for _ in range(20):
        psi = ek.random_pure_state([2, 2, 2], rng=rng)
        assert ek.meyer_wallach(psi) == pytest.approx(ek.tangles(psi)[0], abs=1e-10)
    with pytest.raises(ValueError):
        ek.meyer_wallach(ek.bell_state(3))


def _tangle2q(psi: ek.PureState) -> float:
    return ek.tangle_pure(psi)


def test_convex_roof_pure_state():
    psi = ek.random_pure_state([2, 2], rng=12)
    res = ek.convex_roof(psi.density(), _tangle2q, restarts=2, seed=0)
    assert res.value == pytest.approx(ek.tangle_pure(psi), abs=1e-10)
    prob_sum = sum(p for p, _ in res.argument)
    assert prob_sum == pytest.approx(1.0, abs=1e-9)


def test_convex_roof_takes_a_pure_state_as_its_projector():
    """A pure state enters as its projector: the tangle roof of a Bell state
    is its tangle, 1."""
    res = ek.convex_roof(ek.bell_state(2), ek.tangle_pure, restarts=2, seed=0)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_convex_roof_separable_mixture():
    rng = np.random.default_rng(13)
    kets = []
    for _ in range(2):
        a = ek.random_pure_state([2], rng=rng)
        b = ek.random_pure_state([2], rng=rng)
        kets.append(ek.product_state(a, b))
    mat = 0.5 * kets[0].density().matrix + 0.5 * kets[1].density().matrix
    rho = ek.DensityMatrix(mat, (2, 2))
    res = ek.convex_roof(rho, _tangle2q, ensemble_size=4, restarts=6, seed=1)
    assert res.value <= 1e-6


def test_convex_roof_matches_wootters_on_noisy_bell():
    bell = ek.bell_state(2).density().matrix
    for p in (0.1, 0.4, 0.7):
        rho = ek.DensityMatrix((1 - p) * bell + p * np.eye(4) / 4, (2, 2))
        res = ek.convex_roof(rho, _tangle2q, ensemble_size=4, restarts=6, seed=2)
        assert res.value == pytest.approx(
            ek.wootters_concurrence(rho) ** 2, abs=2e-3
        )


def test_convex_roof_upper_bounded_by_eigen_ensemble():
    rho = ek.random_density_matrix([2, 2], rank=3, rng=14)
    vals, vecs = np.linalg.eigh(rho.matrix)
    eigen_avg = sum(
        v * _tangle2q(ek.PureState(vecs[:, i], (2, 2)))
        for i, v in enumerate(vals)
        if v > 1e-12
    )
    res = ek.convex_roof(rho, _tangle2q, ensemble_size=4, restarts=4, seed=3)
    assert res.value <= eigen_avg + 1e-9


def test_convex_roof_monotone_in_restarts():
    rho = ek.random_density_matrix([2, 2], rank=2, rng=15)
    few = ek.convex_roof(rho, _tangle2q, ensemble_size=3, restarts=2, seed=4).value
    many = ek.convex_roof(rho, _tangle2q, ensemble_size=3, restarts=6, seed=4).value
    assert many <= few + 1e-12


def test_convex_roof_ensemble_size_validation():
    rho = ek.random_density_matrix([2, 2], rank=3, rng=16)
    with pytest.raises(ValueError):
        ek.convex_roof(rho, _tangle2q, ensemble_size=2)


def test_convex_roof_ensemble_is_a_decomposition():
    """The returned members decompose rho, and their weighted values add up
    to the reported roof value, for every rank and ensemble size tried, on
    the analytic-gradient path (``tangle_pure`` itself) and on the
    finite-difference path (any other callable)."""
    for f in (ek.tangle_pure, _tangle2q):
        for rank in (1, 2, 3, 4):
            rho = ek.random_density_matrix([2, 2], rank=rank, rng=20 + rank)
            for m in range(rank, rank + 3):
                res = ek.convex_roof(rho, f, ensemble_size=m, restarts=2, seed=m,
                                     maxiter=40)
                mix = sum(p * np.outer(psi.amplitudes, psi.amplitudes.conj())
                          for p, psi in res.argument)
                assert np.abs(mix - rho.matrix).max() < 1e-10
                value = sum(p * ek.tangle_pure(psi) for p, psi in res.argument)
                assert value == pytest.approx(res.value, abs=1e-12)
                assert len(res.argument) <= m


def _eigen_factor(rho):
    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > 1e-12
    return vecs[:, keep] * np.sqrt(vals[keep])


def test_tangle_roof_gradient_matches_central_differences():
    """The analytic gradient of the tangle roof cost (batched member kernel and
    the Daleckii-Krein adjoint from the one ``eigh`` of the generator) agrees
    with central differences."""
    from entkit.measures import _tangle_roof

    rng = np.random.default_rng(40)
    step = 1e-6
    for dims in ((2, 2), (2, 3), (3, 3)):
        for rank in (1, 2, 3, 4):
            b = _eigen_factor(ek.random_density_matrix(list(dims), rank=rank, rng=rng))
            for m in range(rank, rank + 3):
                x, low = 0.7 * rng.standard_normal(m * m), np.tri(m, k=-1, dtype=bool)
                _, grad = _tangle_roof(x, b, dims, low)
                assert grad.shape == x.shape and grad.dtype == float
                central = np.array([
                    (_tangle_roof(x + step * e, b, dims, low)[0]
                     - _tangle_roof(x - step * e, b, dims, low)[0]) / (2 * step)
                    for e in np.eye(m * m)
                ])
                assert np.abs(grad - central).max() < 1e-6
    # a cut with a one-dimensional side carries no tangle
    b = _eigen_factor(ek.random_density_matrix([1, 4], rank=3, rng=rng))
    value, grad = _tangle_roof(rng.standard_normal(16), b, (1, 4), np.tri(4, k=-1, dtype=bool))
    assert value == 0.0 and not grad.any()


def _scipy_members(h, b):
    """The ensemble as built before the one-``eigh`` kernel, on scipy's ``expm``."""
    from scipy.linalg import expm

    s = b @ expm(1j * h)[:, : b.shape[1]].conj().T
    return (np.abs(s) ** 2).sum(axis=0), s


def _scipy_tangle_roof(x, b, dims):
    """The tangle roof cost and gradient as built before the one-``eigh``
    kernel: the adjoint Frechet derivative from scipy's ``expm_frechet``."""
    from scipy.linalg import expm_frechet

    from entkit.measures import _generator
    from entkit.measures import _tangle_terms

    m = int(np.sqrt(x.size))
    h = _generator(x, np.tri(m, k=-1, dtype=bool))
    _, s = _scipy_members(h, b)
    value, ds = _tangle_terms(s.T.reshape(m, *dims))
    w = b.conj().T @ ds.reshape(m, -1).T
    g_u = np.zeros((m, m), dtype=complex)
    g_u[:, : b.shape[1]] = w.conj().T
    z = expm_frechet(-1j * h, g_u, compute_expm=False)
    q = 2j * z.conj()
    grad = np.tril(q + q.T, -1) + np.diag(np.diag(q)) + 1j * np.triu(q - q.T, 1)
    return value, grad.real.ravel()


def test_tangle_roof_matches_scipy_expm_frechet():
    """The one-``eigh`` kernel gives the value, members and gradient of the
    scipy path to 1e-12: on random generators, and on degenerate ones (zero,
    repeated eigenvalues, eigenvalue gaps of 1e-9 and 1e-12) where a divided
    difference written as a quotient would cancel."""
    from entkit.measures import _generator, _members, _tangle_roof, expm

    rng = np.random.default_rng(42)

    def coordinates(h):
        # inverse of _generator: the diagonal and the real parts below it,
        # the imaginary parts above it
        return (np.tril(h.real) + np.triu(h.imag, 1)).ravel()

    def with_spectrum(lam):
        q, _ = np.linalg.qr(rng.standard_normal((lam.size, lam.size))
                            + 1j * rng.standard_normal((lam.size, lam.size)))
        return coordinates((q * lam) @ q.conj().T)

    for dims in ((2, 2), (2, 3), (3, 3)):
        for rank in (1, 2, 3, 4):
            b = _eigen_factor(ek.random_density_matrix(list(dims), rank=rank, rng=rng))
            for m in range(rank, rank + 3):
                low = np.tri(m, k=-1, dtype=bool)
                lam = rng.standard_normal(m)
                points = [0.7 * rng.standard_normal(m * m), np.zeros(m * m),
                          coordinates(np.diag(0.8 * (np.arange(m) // 2)).astype(complex)),
                          with_spectrum(np.full(m, 0.3))]
                for gap in (1e-9, 1e-12):
                    close = lam.copy()
                    close[-1] = close[0] + gap
                    points.append(with_spectrum(close))
                for x in points:
                    assert np.array_equal(_generator(coordinates(_generator(x, low)), low),
                                          _generator(x, low))
                    value, grad = _tangle_roof(x, b, dims, low)
                    ref_value, ref_grad = _scipy_tangle_roof(x, b, dims)
                    assert abs(value - ref_value) < 1e-12
                    assert np.abs(grad - ref_grad).max() < 1e-12
                    p, s = _members(expm(_generator(x, low))[0], b)
                    ref_p, ref_s = _scipy_members(_generator(x, low), b)
                    assert np.abs(s - ref_s).max() < 1e-12
                    assert np.abs(p - ref_p).max() < 1e-12


def _generator_tril(x, m):
    """The generator as built with ``np.tril`` and ``np.triu``."""
    a = x.reshape(m, m)
    return np.tril(a) + np.tril(a, -1).T + 1j * (np.triu(a, 1) - np.triu(a, 1).T)


def _tangle_roof_tril(x, b, dims):
    """The tangle roof cost and gradient with the generator and the gradient
    fold on ``np.tril`` and ``np.triu``."""
    from entkit.measures import _members, expm
    from entkit.measures import _tangle_terms

    m = int(np.sqrt(x.size))
    u, lam, v = expm(_generator_tril(x, m))
    _, s = _members(u, b)
    value, ds = _tangle_terms(s.T.reshape(m, *dims))
    w = b.conj().T @ ds.reshape(m, -1).T
    a = v.conj().T @ (w.conj().T @ v[: b.shape[1]])
    phase = np.exp(-0.5j * lam)
    gamma = np.outer(phase, phase) * np.sinc((lam[:, None] - lam[None, :]) / (2 * np.pi))
    z = v @ (gamma * a) @ v.conj().T
    q = 2j * z.conj()
    grad = np.tril(q + q.T, -1) + np.diag(np.diag(q)) + 1j * np.triu(q - q.T, 1)
    return value, grad.real.ravel()


def test_generator_and_gradient_fold_match_tril_triu(monkeypatch):
    """The generator and the gradient fold on one below-diagonal mask are bit
    for bit those built with ``np.tril`` and ``np.triu``, for m = 1 to 6, and
    so are the roofs on the mask that ``convex_roof`` builds."""
    from entkit.measures import _generator, _tangle_roof

    rng = np.random.default_rng(43)
    for m in range(1, 7):
        low = np.tri(m, k=-1, dtype=bool)
        for x in (rng.standard_normal(m * m), np.zeros(m * m), np.arange(m * m) - 3.0):
            assert np.array_equal(_generator(x, low), _generator_tril(x, m))
        for dims in ((2, 2), (2, 3)):
            for rank in range(1, min(m, 4) + 1):
                b = _eigen_factor(ek.random_density_matrix(list(dims), rank=rank, rng=rng))
                for _ in range(3):
                    x = 0.7 * rng.standard_normal(m * m)
                    value, grad = _tangle_roof(x, b, dims, low)
                    ref_value, ref_grad = _tangle_roof_tril(x, b, dims)
                    assert value == ref_value and np.array_equal(grad, ref_grad)
    bell = ek.bell_state(2).density().matrix
    for rho in (ek.DensityMatrix(0.8 * bell + 0.2 * np.eye(4) / 4, (2, 2)),
                ek.random_density_matrix([2, 3], rank=3, rng=44)):
        for size in (None, 5):
            runs = []
            for _ in range(2):
                runs.append(ek.convex_roof(rho, ek.tangle_pure, ensemble_size=size, restarts=2,
                                           seed=8))
                monkeypatch.setattr(ek.measures, "_tangle_roof",
                                    lambda x, b, dims, low: _tangle_roof_tril(x, b, dims))
            monkeypatch.undo()
            res, ref = runs
            assert res.restart_values == ref.restart_values and res.evaluations == ref.evaluations
            assert len(res.argument) == len(ref.argument) and all(p == q and np.array_equal(a.amplitudes, c.amplitudes)
                       for (p, a), (q, c) in zip(res.argument, ref.argument))


def test_convex_roof_checks_maxiter(monkeypatch):
    """An iteration cap outside 1..10,000 is refused before any start, not
    reported as the value of a start point after no iteration."""
    bell = ek.bell_state(2).density().matrix
    rho = ek.DensityMatrix(0.7 * bell + 0.3 * np.eye(4) / 4, (2, 2))
    monkeypatch.setattr(ek.measures, "minimize", None)
    for maxiter in (0, -3, 2.5, 10_001):
        with pytest.raises(ValueError, match="maxiter"):
            ek.convex_roof(rho, ek.tangle_pure, ensemble_size=4, restarts=1, seed=0,
                           maxiter=maxiter)
    monkeypatch.undo()
    res = ek.convex_roof(rho, ek.tangle_pure, ensemble_size=4, restarts=1, seed=0, maxiter=1)
    assert res.evaluations >= 1 and res.restart_iterations[0] <= 1


def test_convex_roof_of_tangle_needs_two_parties(monkeypatch):
    rho = ek.random_density_matrix([2, 2, 2], rank=2, rng=41)
    monkeypatch.setattr(ek.measures, "minimize", None)
    with pytest.raises(ValueError, match="2-party"):
        ek.convex_roof(rho, ek.tangle_pure, restarts=1, seed=0)


def test_solver_diagnostics(monkeypatch):
    """Evaluations, per-restart values and per-restart iterations come back
    with the result: the iteration count ``measures.minimize`` reports for each roof
    restart, the sweeps of each geometric-measure restart.  The analytic
    gradient keeps a c11-style roof to a few dozen evaluations per restart."""
    bell = ek.bell_state(2).density().matrix
    rho = ek.DensityMatrix(0.7 * bell + 0.3 * np.eye(4) / 4, (2, 2))
    runs, lbfgs = [], ek.measures.minimize

    def recording(*args, **kwargs):
        runs.append(lbfgs(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(ek.measures, "minimize", recording)
    res = ek.convex_roof(rho, ek.tangle_pure, ensemble_size=4, restarts=6, seed=14)
    assert len(res.restart_values) == res.restarts_used == 6
    assert min(res.restart_values) == res.value
    assert 6 <= res.evaluations <= 60 * 6
    assert res.restart_iterations == tuple(run.nit for run in runs)
    assert all(1 <= k <= 400 for k in res.restart_iterations)
    assert sum(res.restart_iterations) <= res.evaluations == sum(run.nfev for run in runs)
    assert res.converged_restarts == sum(run.success for run in runs)
    res = ek.geometric_measure(ek.w_state(), restarts=5, seed=0)
    assert len(res.restart_values) == 5
    assert min(res.restart_values) == res.value
    assert 5 <= res.evaluations <= 5 * 500
    assert len(res.restart_iterations) == 5 and sum(res.restart_iterations) == res.evaluations


def _scipy_lbfgsb(fun, x0, *, jac, maxiter):
    """scipy's L-BFGS-B with its default stopping rules, the roof's reference."""
    from scipy.optimize import minimize

    return minimize(fun, x0, jac=jac, method="L-BFGS-B", options={"maxiter": maxiter})


def test_lbfgs_roofs_match_scipy_lbfgsb(monkeypatch):
    """Roofs on ``measures.minimize`` and on scipy's L-BFGS-B, from the same
    starts, agree on the 20 mixes of c11 and on random rank-3 (2, 3) states:
    the same converged flag, values within 1e-7, and mean evaluations within
    10%."""
    bell = ek.bell_state(2).density().matrix
    cases = [(ek.DensityMatrix((1 - p) * bell + p * np.eye(4) / 4, (2, 2)), 4, 6, 14)
             for p in np.linspace(0.0, 0.95, 20)]
    rng = np.random.default_rng(48)
    cases += [(ek.random_density_matrix([2, 3], rank=3, rng=rng), size, 3, seed)
              for seed, size in enumerate((None, 4, 5) * 5)]

    def roofs():
        return [ek.convex_roof(rho, ek.tangle_pure, ensemble_size=size, restarts=restarts,
                               seed=seed) for rho, size, restarts, seed in cases]

    ours = roofs()
    monkeypatch.setattr(ek.measures, "minimize", _scipy_lbfgsb)
    ref = roofs()
    for res, scipy_res in zip(ours, ref):
        assert res.converged == scipy_res.converged
        assert abs(res.value - scipy_res.value) <= 1e-7
    evaluations = sum(res.evaluations for res in ours)
    assert abs(evaluations / sum(res.evaluations for res in ref) - 1.0) <= 0.1


def _rosenbrock(x):
    """The Rosenbrock function of ``len(x)`` variables and its gradient."""
    a, b = x[:-1], x[1:]
    f = float((100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2).sum())
    g = np.zeros_like(x)
    g[:-1] = -400.0 * a * (b - a**2) - 2.0 * (1.0 - a)
    g[1:] += 200.0 * (b - a**2)
    return f, g


def test_lbfgs_reaches_the_minimum_of_hard_valleys():
    """The Rosenbrock valley in 2 and 10 variables, and a quadratic of
    condition number 1e4, are minimized to 1e-8, on the gradient and on
    forward differences; ``nfev`` counts every cost call."""
    from entkit.measures import minimize

    scales = np.logspace(0, 4, 8)

    def quadratic(x):
        return 0.5 * float(scales @ x**2), scales * x

    starts = [(_rosenbrock, np.array([-1.2, 1.0])), (_rosenbrock, np.tile([-1.2, 1.0], 5)),
              (quadratic, np.ones(8))]
    for fun, x0 in starts:
        for jac in (True, False):
            calls = []

            def counted(x):
                calls.append(1)
                return fun(x) if jac else fun(x)[0]

            res = minimize(counted, x0, jac=jac, maxiter=2000)
            assert res.success and res.fun < 1e-8
            assert res.nfev == len(calls) and 1 <= res.nit <= res.nfev
            assert res.fun == fun(res.x)[0]


def test_lbfgs_stops_at_maxiter():
    """One iteration allowed is one iteration run, reported as not
    converged; a start at a stationary point converges in none."""
    from entkit.measures import minimize

    res = minimize(_rosenbrock, np.array([-1.2, 1.0]), jac=True, maxiter=1)
    assert res.nit == 1 and not res.success
    assert res.fun < _rosenbrock(np.array([-1.2, 1.0]))[0]
    res = minimize(_rosenbrock, np.ones(2), jac=True, maxiter=1)
    assert res.nit == 0 and res.nfev == 1 and res.success and res.fun == 0.0


def test_lbfgs_retries_along_the_gradient_then_gives_up(monkeypatch):
    """When the line search finds no Wolfe point, the pairs are dropped and
    the iteration is retried along ``-g``; a second failure ends the run, not
    converged, at the last point accepted."""
    from entkit import measures

    real, calls = measures._wolfe_step, []

    def failing(evaluate, x, f0, d, dg0, t):
        calls.append((x.copy(), d.copy()))
        assert len(calls) <= 4, "the search went on after its second failure"
        return real(evaluate, x, f0, d, dg0, t) if len(calls) <= 2 else None

    monkeypatch.setattr(measures, "_wolfe_step", failing)
    res = measures.minimize(_rosenbrock, np.array([-1.2, 1.0]), jac=True, maxiter=100)
    assert not res.success and res.nit == 2 and len(calls) == 4
    f, g = _rosenbrock(res.x)
    assert res.fun == f
    (x3, d3), (x4, d4) = calls[2:]
    assert np.array_equal(x3, res.x) and np.array_equal(x4, res.x)
    assert np.array_equal(d4, -g) and not np.allclose(d3, -g)


def test_lbfgs_line_search_runs_out_of_trial_points():
    """A gradient that points uphill: every trial point along ``-g`` raises
    the cost, so the line search spends its 20 trials, finds no Wolfe point
    and, with no pairs to drop, ends the run at the start, not converged."""
    from entkit.measures import minimize

    res = minimize(lambda x: (x @ x, -2 * x), [1.0], jac=True, maxiter=10)
    assert res.x.tolist() == [1.0] and res.fun == 1.0
    assert (res.nit, res.nfev, res.success) == (0, 21, False)


def test_cubic_trial_takes_the_midpoint_where_the_cubic_has_no_minimizer():
    """On ``[0, 1]`` with slope 1 at both ends, a rise of 2/3 gives the
    cubic ``2/3 s^3 - s^2 + s``, whose slope never vanishes, and a rise of
    1/3 gives ``4/3 s^3 - 2 s^2 + s``, whose slope only touches zero: both
    take the midpoint, also with the first bracket stretched to ``[2, 4]``.
    Slopes -1 and 2 with no rise give ``s^3 - s``, whose minimizer is
    ``1/sqrt(3)``."""
    from entkit.measures import _cubic_trial

    assert _cubic_trial(0.0, 0.0, 1.0, 1.0, 2 / 3, 1.0) == 0.5
    assert _cubic_trial(0.0, 0.0, 1.0, 1.0, 1 / 3, 1.0) == 0.5
    assert _cubic_trial(0.0, 0.0, -1.0, 1.0, 0.0, 2.0) == pytest.approx(3 ** -0.5, abs=1e-15)
    assert _cubic_trial(2.0, 0.0, 1.0, 4.0, 4 / 3, 1.0) == 3.0


def test_convex_roof_ensemble_size_is_an_integer_up_to_dim_squared(monkeypatch):
    rho = ek.random_density_matrix([2, 2], rank=3, rng=16)
    # refused before any optimization starts
    monkeypatch.setattr(ek.measures, "minimize", None)
    for size in (4.7, 10**6, rho.dim**2 + 1, np.float64(4.0)):
        with pytest.raises(ValueError):
            ek.convex_roof(rho, _tangle2q, ensemble_size=size)
    monkeypatch.undo()
    res = ek.convex_roof(rho, _tangle2q, ensemble_size=np.int64(rho.dim**2), restarts=1,
                         seed=0, maxiter=2)
    assert sum(p for p, _ in res.argument) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("solver", [
    lambda k: ek.geometric_measure(ek.w_state(), restarts=k, seed=0),
    lambda k: ek.convex_roof(ek.bell_state(2).density(), _tangle2q, restarts=k, seed=0),
    lambda k: ek.tensor_rank_upper_bound(ek.w_state(), max_rank=3, restarts=k, seed=0),
    lambda k: ek.upb_unextendibility_check(ek.upb_basis()[:1], restarts=k, rng=0),
], ids=["geometric_measure", "convex_roof", "tensor_rank_upper_bound", "upb_check"])
def test_restart_count_is_checked(solver):
    """Restarts are an integer from 1 to 1000: zero no longer certifies a lone
    product vector as unextendible, and nothing is clamped or truncated."""
    for k in (0, -1, 1001, 10**9, 2.5, "3", None):
        with pytest.raises(ValueError):
            solver(k)
    solver(1)


def test_tensor_rank_upper_bound():
    prod = ek.product_state(*(ek.random_pure_state([2], rng=k) for k in (17, 18, 19)))
    assert ek.tensor_rank_upper_bound(prod, max_rank=3, seed=0) == 1
    assert ek.tensor_rank_upper_bound(ek.ghz_state(3, 2), max_rank=3, seed=0) == 2
    assert ek.tensor_rank_upper_bound(ek.w_state(), max_rank=4, seed=0) == 3


def test_tensor_rank_upper_bound_edge_cases():
    # every vector of a single party has tensor rank 1
    assert ek.tensor_rank_upper_bound(ek.random_pure_state([3], rng=0), seed=0) == 1
    for iterations in (0, -1, 10_001, 2.5):
        with pytest.raises(ValueError):
            ek.tensor_rank_upper_bound(ek.w_state(), iterations=iterations)
    # max_rank is checked too: GHZ has tensor rank 2, and no tensor under the
    # dimension cap of 256 has a larger rank than 256
    for max_rank in (0, -5, 2.5, 257):
        with pytest.raises(ValueError, match="max_rank"):
            ek.tensor_rank_upper_bound(ek.ghz_state(3, 2), max_rank=max_rank, seed=0)
    prod = ek.product_state(ek.basis_state([2], [0]), ek.basis_state([3], [2]))
    assert ek.tensor_rank_upper_bound(prod, seed=0, iterations=10_000) == 1
    assert ek.tensor_rank_upper_bound(ek.ghz_state(3, 2), max_rank=3, seed=0,
                                      iterations=1) >= 2
