"""Dimension checks, the package errors and the operator-level reshuffles.

Everything in the package works with flat, row-major amplitude arrays over an
ordered list of local dimensions.  A composite basis index decomposes as
``i = i_0 * d_1 * ... * d_{N-1} + ... + i_{N-1}`` (first subsystem is the
slowest index), and all higher modules inherit this convention.

``permute_matrix`` and ``partial_trace_matrix`` act on plain square matrices;
they are pure functions, so concurrent use is safe.  Dense arrays only: the
supported total Hilbert-space dimension is capped at ``DIM_CAP`` = 4096.

Each kind of argument has one private checker here, which every public
function calls where the argument enters: ``_check_dims``, ``_check_indices``,
``_check_keep`` and ``_check_perm`` (subsystems), ``_as_int`` and
``_check_count`` (counts), ``_check_tol``, ``_check_base``, ``_check_finite``,
``_check_probabilities``, ``_check_same_dims``, ``_check_cap`` (size caps)
and ``_rng`` (seeds).  Each raises ``ValueError``; ``_check_cap`` raises
its subclass ``SizeLimitError``.
"""

from __future__ import annotations

import operator
from math import isfinite, prod
from typing import Iterable, Sequence

import numpy as np

#: Absolute tolerance used for Hermiticity / positivity checks throughout.
HERMITIAN_ATOL = 1e-10

#: Desk-scale cap on the total Hilbert-space dimension of dense objects.
DIM_CAP = 4096


class SizeLimitError(ValueError):
    """Raised by ``_check_cap``, and so by ``_check_dims``, when an input
    exceeds a documented desk-scale size cap."""


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


def _index(value) -> int:
    """``operator.index(value)``, but a ``bool`` is a ``TypeError`` too, so
    ``True`` is not read as 1."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(dims)
    try:
        dims = tuple(map(_index, dims))
    except TypeError:
        raise ValueError(f"local dimensions must be integers, got {dims}") from None
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"local dimensions must all be >= 1, got {dims}")
    _check_cap(prod(dims), DIM_CAP, "total dimension")
    return dims


def _check_indices(indices: Iterable[int]) -> list[int]:
    """Subsystem indices as Python ints; a non-integer such as ``0.5`` or
    ``True`` is rejected, not truncated or read as 1."""
    indices = list(indices)
    try:
        return list(map(_index, indices))
    except TypeError:
        raise ValueError(f"subsystem indices must be integers, got {indices}") from None


def _check_perm(perm: Iterable[int], n: int) -> list[int]:
    """``perm`` as a list of Python ints, a permutation of ``0..n-1``."""
    perm = _check_indices(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    return perm


def _check_keep(keep: Iterable[int], n: int, name: str = "keep") -> list[int]:
    """The distinct indices of ``keep``, sorted: a non-empty set in ``0..n-1``."""
    keep = sorted(set(_check_indices(keep)))
    if not keep:
        raise ValueError(f"{name} must be a non-empty set of subsystem indices")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"{name} {keep} out of range for {n} subsystems")
    return keep


def _plain(value):
    """``value`` as it should read in a message: a NumPy scalar as the Python
    number (or string) it holds, so ``np.float64(nan)`` reads ``nan``."""
    return value.item() if isinstance(value, np.generic) else value


def _as_int(value, name: str) -> int:
    """``value`` as a Python int; a non-integer such as ``4.7`` or ``True``
    is rejected."""
    try:
        return _index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {_plain(value)!r}") from None


def _check_count(value, name: str, lo: int = 1, hi: int = 1000) -> int:
    """``value`` as a Python int in ``lo..hi``, by default a restart count."""
    value = _as_int(value, name)
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in {lo}..{hi}, got {value}")
    return value


def _check_tol(value, name: str = "tol") -> None:
    """Reject a tolerance (or weight) that is NaN, infinite or negative."""
    if not (isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {_plain(value)!r}")


def _check_base(base) -> None:
    """Reject a logarithm base that is not finite, > 0 and != 1; ``None``
    (the natural log) passes."""
    if base is not None and not (isfinite(base) and base > 0 and base != 1):
        raise ValueError(f"base must be finite, > 0 and != 1, got {_plain(base)!r}")


def _check_finite(value, name: str) -> None:
    """Reject a number or array with a NaN or infinite entry."""
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite")


def _check_cap(value, cap, what: str) -> None:
    """Raise ``SizeLimitError`` when ``value`` exceeds the documented ``cap``."""
    if value > cap:
        raise SizeLimitError(f"{what} {value} exceeds the cap {cap}")


def _check_same_dims(a, b) -> None:
    """Reject two states over different local dimensions."""
    if a.dims != b.dims:
        raise ValueError(f"dims mismatch: {a.dims} vs {b.dims}")


def _check_probabilities(
    p, name: str = "p", slack: float = 0.0, normalized: bool = False
) -> np.ndarray:
    """``p`` as a float array, every entry finite and >= ``-slack``; with
    ``normalized``, summing to 1 within ``HERMITIAN_ATOL``."""
    p = np.asarray(p, dtype=float)
    bad = p[~(np.isfinite(p) & (p >= -slack))]
    if bad.size:
        raise ValueError(f"{name} must have finite entries >= 0, got {float(bad[0])!r}")
    if normalized and not abs(p.sum() - 1.0) <= HERMITIAN_ATOL:
        raise ValueError(f"{name} sums to {float(p.sum())!r}, not 1 within 1e-10")
    return p


def _rng(seed, name: str = "seed") -> np.random.Generator:
    """``np.random.default_rng(seed)``; a seed it refuses, such as NaN, 2.5
    or -1, is a ``ValueError`` naming the argument."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must be None, an integer >= 0 or a Generator, got {_plain(seed)!r}"
        ) from None


def permute_matrix(mat: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Apply a subsystem permutation to both sides of an operator."""
    dims = _check_dims(dims)
    n = len(dims)
    perm = _check_perm(perm, n)
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
    keep = _check_keep(keep, n)
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
