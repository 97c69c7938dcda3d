"""Dimension checks, the package errors and the operator-level reshuffles.

Everything in the package works with flat, row-major amplitude arrays over an
ordered list of local dimensions.  A composite basis index decomposes as
``i = i_0 * d_1 * ... * d_{N-1} + ... + i_{N-1}`` (first subsystem is the
slowest index), and all higher modules inherit this convention.

``permute_matrix`` and ``partial_trace_matrix`` act on plain square matrices;
they are pure functions, so concurrent use is safe.  Dense arrays only: the
supported total Hilbert-space dimension is capped at ``DIM_CAP`` = 4096.
"""

from __future__ import annotations

import operator
from math import prod
from typing import Iterable, Sequence

import numpy as np

#: Absolute tolerance used for Hermiticity / positivity checks throughout.
HERMITIAN_ATOL = 1e-10

#: Desk-scale cap on the total Hilbert-space dimension of dense objects.
DIM_CAP = 4096


class SizeLimitError(ValueError):
    """Raised when an input exceeds a documented desk-scale size cap."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative routine fails to reach its tolerance.

    ``best_residual``, when the routine gives it, is the smallest residual it
    reached; the message then ends with its value.
    """

    def __init__(self, message: str, best_residual: float | None = None):
        if best_residual is not None:
            message = f"{message} (best residual {best_residual:.3e})"
        super().__init__(message)
        self.best_residual = best_residual


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(dims)
    try:
        dims = tuple(operator.index(d) for d in dims)
    except TypeError:
        raise ValueError(f"local dimensions must be integers, got {dims}") from None
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"local dimensions must all be >= 1, got {dims}")
    if prod(dims) > DIM_CAP:
        raise SizeLimitError(
            f"total dimension {prod(dims)} exceeds the dense cap {DIM_CAP}"
        )
    return dims


def permute_matrix(mat: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Apply a subsystem permutation to both sides of an operator."""
    dims = _check_dims(dims)
    n = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    d = prod(dims)
    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    t = t.transpose(perm + [p + n for p in perm])
    return t.reshape(d, d)


def partial_trace_matrix(
    mat: np.ndarray, dims: Sequence[int], keep: Iterable[int]
) -> np.ndarray:
    """Trace out all subsystems not in ``keep``; kept order is preserved.

    ``mat`` is a square matrix over the composite basis of ``dims``.
    """
    dims = _check_dims(dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must be a non-empty set of subsystem indices")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep {keep} out of range for {n} subsystems")
    mat = np.asarray(mat, dtype=complex)
    d = prod(dims)
    if mat.shape != (d, d):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
    drop = [i for i in range(n) if i not in keep]
    t = mat.reshape(dims + dims)
    t = t.transpose(
        keep + [k + n for k in keep] + drop + [i + n for i in drop]
    )
    dk = prod(dims[i] for i in keep)
    dd = d // dk
    t = t.reshape(dk, dk, dd, dd)
    return np.einsum("ijkk->ij", t)
