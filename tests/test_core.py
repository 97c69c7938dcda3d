import numpy as np
import pytest

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
