import numpy as np
import pytest

import entkit as ek
from entkit.core import SizeLimitError
from entkit.partitions import single_party_bipartition

from conftest import ptranspose_elements


def test_partition_canonical_form_and_validation():
    p = ek.Partition(((2,), (1, 0)))
    assert p.blocks == ((0, 1), (2,))
    assert p.to_json() == [[0, 1], [2]]
    assert str(p) == "0,1|2"
    with pytest.raises(ValueError):
        ek.Partition(((0,), (0, 1)))
    with pytest.raises(ValueError):
        ek.Partition(((0,), (2,)))
    with pytest.raises(ValueError):
        ek.Partition(((0,), ()))
    with pytest.raises(ValueError, match="integers"):
        ek.Partition(((0.2,), (1,)))


def test_enumerate_partitions_bell_numbers():
    assert len(ek.enumerate_partitions(2)) == 2
    assert len(ek.enumerate_partitions(3)) == 5
    assert len(ek.enumerate_partitions(4)) == 15
    assert len(ek.enumerate_partitions(5)) == 52
    # deterministic canonical order
    assert ek.enumerate_partitions(3) == ek.enumerate_partitions(3)
    with pytest.raises(SizeLimitError):
        ek.enumerate_partitions(9)


def test_refines_examples():
    finest = ek.Partition(((0,), (1,), (2,)))
    coarsest = ek.Partition(((0, 1, 2),))
    assert ek.refines(finest, coarsest)
    assert not ek.refines(coarsest, finest)
    a = ek.Partition(((0, 1), (2,)))
    b = ek.Partition(((0, 2), (1,)))
    assert not ek.refines(a, b) and not ek.refines(b, a)
    assert ek.refines(a, a)
    with pytest.raises(ValueError):
        ek.refines(a, ek.Partition(((0,), (1,))))


def test_refines_is_partial_order_exhaustively():
    for n in (2, 3, 4, 5):
        parts = ek.enumerate_partitions(n)
        rel = {
            (i, j): ek.refines(parts[i], parts[j])
            for i in range(len(parts))
            for j in range(len(parts))
        }
        for i in range(len(parts)):
            assert rel[i, i]
            for j in range(len(parts)):
                if rel[i, j] and rel[j, i]:
                    assert parts[i] == parts[j]
                if n <= 4:
                    for k in range(len(parts)):
                        if rel[i, j] and rel[j, k]:
                            assert rel[i, k]
        # transitivity for n=5 on a sample to keep runtime low
        if n == 5:
            rng = np.random.default_rng(0)
            idx = rng.integers(0, len(parts), size=(3000, 3))
            for i, j, k in idx:
                if rel[i, j] and rel[j, k]:
                    assert rel[i, k]


def test_is_product_across_examples():
    bisep = ek.product_state(ek.random_pure_state([2], rng=1), ek.bell_state(2))
    assert ek.is_product_across(bisep, ek.Partition(((0,), (1, 2))))
    ghz = ek.ghz_state(3, 2)
    for bp in ek.all_bipartitions(3):
        assert not ek.is_product_across(ghz, bp)
    triv = ek.basis_state([2, 2, 2], [0, 0, 0])
    assert ek.is_product_across(triv, ek.Partition(((0,), (1,), (2,))))


def test_classify_pure_examples():
    rep = ek.classify_pure(ek.basis_state([2, 2, 2], [0, 0, 0]))
    assert rep.producibility_m == 1
    assert not rep.genuinely_multipartite
    assert rep.finest_product_partition.n_blocks == 3

    two_pairs = ek.product_state(ek.bell_state(2), ek.bell_state(2))
    rep = ek.classify_pure(two_pairs)
    assert rep.producibility_m == 2
    assert rep.finest_product_partition == ek.Partition(((0, 1), (2, 3)))
    assert rep.bipartition_product_flags[ek.Partition(((0, 1), (2, 3)))]
    assert not rep.bipartition_product_flags[ek.Partition(((0, 2), (1, 3)))]

    rep = ek.classify_pure(ek.ghz_state(3, 2))
    assert rep.producibility_m == 3
    assert rep.genuinely_multipartite

    bisep = ek.product_state(ek.random_pure_state([2], rng=2), ek.bell_state(2))
    rep = ek.classify_pure(bisep)
    assert rep.producibility_m == 2
    assert rep.finest_product_partition == ek.Partition(((0,), (1, 2)))


def _random_local_unitaries(dims, rng):
    us = []
    for d in dims:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(z)
        us.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return us


def test_classify_pure_lu_invariance():
    rng = np.random.default_rng(3)
    cases = [
        ek.basis_state([2, 2, 2, 2], [0, 1, 0, 1]),
        ek.product_state(ek.bell_state(2), ek.bell_state(2)),
        ek.product_state(ek.random_pure_state([2], rng=rng), ek.ghz_state(3, 2)),
        ek.ghz_state(4, 2),
    ]
    for psi in cases:
        base = ek.classify_pure(psi)
        for _ in range(5):
            us = _random_local_unitaries(psi.dims, rng)
            u = us[0]
            for m in us[1:]:
                u = np.kron(u, m)
            twirled = ek.PureState(u @ psi.amplitudes, psi.dims)
            rep = ek.classify_pure(twirled)
            assert rep.producibility_m == base.producibility_m
            assert sorted(len(b) for b in rep.finest_product_partition.blocks) == sorted(
                len(b) for b in base.finest_product_partition.blocks
            )


def test_partial_transpose_properties():
    rng = np.random.default_rng(4)
    a = ek.random_density_matrix([2], rng=rng)
    b = ek.random_density_matrix([2], rng=rng)
    prod = ek.DensityMatrix(np.kron(a.matrix, b.matrix), (2, 2))
    pt = ek.partial_transpose(prod, [1])
    assert np.abs(pt - np.kron(a.matrix, b.matrix.T)).max() < 1e-12
    assert np.linalg.eigvalsh(pt).min() > -1e-12

    bell = ek.bell_state(2).density()
    pt = ek.partial_transpose(bell, [1])
    assert np.linalg.eigvalsh(pt).min() == pytest.approx(-0.5, abs=1e-12)
    assert np.abs(pt - ptranspose_elements(bell.matrix, (2, 2), [1])).max() < 1e-12

    rho = ek.random_density_matrix([2, 3], rng=rng)
    once = ek.partial_transpose(rho, [0])
    # involution checked with the element-shuffling oracle (the intermediate
    # matrix need not be a valid density matrix)
    assert np.abs(ptranspose_elements(once, (2, 3), [0]) - rho.matrix).max() < 1e-12
    assert np.abs(once - once.conj().T).max() < 1e-12
    assert abs(np.trace(once).real - 1.0) < 1e-12
    # spectrum independent of the transposed side
    s0 = np.sort(np.linalg.eigvalsh(ek.partial_transpose(rho, [0])))
    s1 = np.sort(np.linalg.eigvalsh(ek.partial_transpose(rho, [1])))
    assert np.abs(s0 - s1).max() < 1e-10

    with pytest.raises(ValueError):
        ek.partial_transpose(rho, [])
    with pytest.raises(ValueError):
        ek.partial_transpose(rho, [0, 1])
    with pytest.raises(ValueError, match="integers"):
        ek.partial_transpose(rho, [0.7])


def test_ppt_check_examples():
    rng = np.random.default_rng(5)
    a = ek.random_density_matrix([2], rng=rng).matrix
    b = ek.random_density_matrix([2], rng=rng).matrix
    c = ek.random_density_matrix([2], rng=rng).matrix
    d = ek.random_density_matrix([2], rng=rng).matrix
    sep = ek.DensityMatrix(0.5 * np.kron(a, b) + 0.5 * np.kron(c, d), (2, 2))
    flag, _ = ek.ppt_check(sep)
    assert flag
    flag, mineig = ek.ppt_check(ek.bell_state(2).density())
    assert not flag and mineig == pytest.approx(-0.5, abs=1e-12)
    for bp in ek.all_bipartitions(3):
        assert ek.ppt_check(ek.upb_state(), bp)[0]


def test_ppt_check_pure_matches_dense_partial_transpose():
    """The pure-state formula ``-sqrt(l1 l2)`` against the spectrum of the
    dense partial transpose of ``|psi><psi|``, on every cut."""
    rng = np.random.default_rng(7)
    dims_list = ((2, 3), (1, 4), (4, 1, 2), (1, 1), (2, 2, 2, 2))
    states = [ek.random_pure_state(dims, rng=rng) for dims in dims_list]
    states += [  # Schmidt rank one on some or all cuts
        ek.product_state(ek.random_pure_state([2], rng=rng), ek.random_pure_state([3], rng=rng)),
        ek.product_state(ek.random_pure_state([2], rng=rng), ek.bell_state(2)),
        ek.basis_state([2, 2, 2], [0, 1, 0]),
        ek.ghz_state(4, 2, lam=[1 - 1e-12, 1e-12]),
    ]
    for psi in states:
        for bp in ek.all_bipartitions(psi.n_parties):
            flag, mineig = ek.ppt_check(psi, bp)
            dense = np.linalg.eigvalsh(ek.partial_transpose(psi.density(), bp.blocks[1]))
            assert abs(mineig - dense.min()) < 1e-12
            assert flag == ek.ppt_check(psi.density(), bp)[0]
    assert ek.ppt_check(ek.ghz_state(4, 2, lam=[1 - 1e-12, 1e-12]), ek.Partition(((0,), (1, 2, 3))))[
        1
    ] == pytest.approx(-1e-6, rel=1e-6)


def test_classify_pure_recovers_the_generating_partition():
    """Products of Haar blocks over every set partition of up to 5 parties,
    with the parties relabeled at random and local unitaries applied."""
    rng = np.random.default_rng(8)
    for n in range(1, 6):
        for base in ek.enumerate_partitions(n):
            sigma = rng.permutation(n)
            gen = ek.Partition(tuple(tuple(int(sigma[i]) for i in b) for b in base.blocks))
            dims = tuple(int(d) for d in rng.integers(2, 4, size=n))
            # the product lists the parties block by block; permute them back
            order = [i for b in gen.blocks for i in b]
            psi = ek.product_state(
                *(ek.random_pure_state([dims[i] for i in b], rng=rng) for b in gen.blocks)
            ).permute([order.index(i) for i in range(n)])
            u = np.eye(1)
            for m in _random_local_unitaries(dims, rng):
                u = np.kron(u, m)
            psi = ek.PureState(u @ psi.amplitudes, dims)

            rep = ek.classify_pure(psi)
            assert rep.finest_product_partition == gen
            assert rep.producibility_m == max(len(b) for b in gen.blocks)
            cuts = ek.all_bipartitions(n) if n >= 2 else []
            assert rep.bipartition_product_flags == {
                bp: ek.is_product_across(psi, bp) for bp in cuts
            }
            assert all(rep.bipartition_product_flags[bp] == ek.refines(gen, bp) for bp in cuts)


def test_ppt_all_bipartitions():
    flags = ek.ppt_all_bipartitions(ek.smolin_state())
    for bp, flag in flags.items():
        sizes = sorted(len(b) for b in bp.blocks)
        assert flag == (sizes == [2, 2])
    ghz = ek.ghz_state(3, 2).density()
    assert not any(ek.ppt_all_bipartitions(ghz).values())
    mixed = ek.DensityMatrix(np.eye(8) / 8, (2, 2, 2))
    assert all(ek.ppt_all_bipartitions(mixed).values())


def test_product_across_coarsenings():
    rng = np.random.default_rng(6)
    psi = ek.product_state(
        ek.random_pure_state([2], rng=rng),
        ek.random_pure_state([2], rng=rng),
        ek.bell_state(2),
    )
    alpha = ek.Partition(((0,), (1,), (2, 3)))
    assert ek.is_product_across(psi, alpha)
    for coarser in ek.enumerate_partitions(4):
        if ek.refines(alpha, coarser):
            assert ek.is_product_across(psi, coarser)


def test_upb_unextendibility():
    assert ek.upb_unextendibility_check(ek.upb_basis(), restarts=100, rng=0)
    single = [ek.basis_state([2, 2, 2], [0, 0, 0])]
    assert not ek.upb_unextendibility_check(single, restarts=20, rng=0)
    pair = [
        ek.basis_state([2, 2, 2], [0, 0, 0]),
        ek.basis_state([2, 2, 2], [1, 1, 1]),
    ]
    assert not ek.upb_unextendibility_check(pair, restarts=20, rng=0)


def test_single_party_bipartition_helper():
    bp = single_party_bipartition(1, 3)
    assert bp.blocks == ((0, 2), (1,)) or bp.blocks == ((1,), (0, 2))
    assert bp.is_bipartition
