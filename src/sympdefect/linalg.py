"""Dense linear algebra for small phase-space matrices.

Only what numpy does not already say in one call lives here: the checked
solve, the transposed matrix-vector product, a real matrix applied to a
complex step in real arithmetic, the canonical structure matrix, and norms
and determinants that refuse non-finite input.
:func:`solve` also takes the complex steps of :mod:`sympdefect.autodiff`,
so flows that solve a linear system can be differentiated with no solve
rule of their own.  :func:`solve` and :func:`transposed_product` also
take one matrix per column of a batch (see :class:`sympdefect.PhaseState`)
and give each column what the unbatched call gives it;
:func:`frobenius_norm` and :func:`determinant` take a stack (K, n, n) and
give each matrix, bitwise, what the call on that matrix alone gives it.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np


def _check_square(a: np.ndarray, name: str = "matrix") -> int:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a.shape[0]


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")


def solve(a, b) -> np.ndarray:
    """Solve a x = b for a vector or matrix b by LAPACK's LU with partial pivoting.

    A stack a of shape (K, n, n) pairs with b of shape (n, K): column k of
    x solves a[k] x[:, k] = b[:, k], all K in one LAPACK call.

    On complex steps a = A + i e dA, b = B + i e dB it returns x + i e dx
    with dx = A^-1 (dB - dA x), the tangent rule, from the complex LU
    itself, while e * e underflows.  A singular matrix raises
    ``np.linalg.LinAlgError`` (a ValueError), and non-finite matrix entries
    raise ValueError, because LAPACK would return nan silently.
    """
    a = np.asarray(a)
    # a Python sum over tolist() is the cheap test on small matrices; it
    # also overflows for large finite entries, so np.isfinite confirms
    if not cmath.isfinite(sum(a.ravel().tolist())):
        _require_finite(a)
    if a.ndim == 3:
        return np.linalg.solve(a, b.T[:, :, None])[:, :, 0].T
    return np.linalg.solve(a, b)


def transposed_product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a^T x; with a of shape (n, n, K) and x of shape (n, K), column by column.

    The batch is one stacked matmul.  Its K matrices are laid out as the
    transpose of a C-ordered matrix, as a.T is in the 2-D case, so BLAS
    runs the same product and each column is bitwise the unbatched result.
    """
    if x.ndim == 1:
        return a.T @ x
    stack = np.ascontiguousarray(a.transpose(2, 0, 1))  # no copy for a tokamak Jacobian
    return (stack.transpose(0, 2, 1) @ x.T[:, :, None])[:, :, 0].T


def real_product(a: np.ndarray, x) -> np.ndarray:
    """a @ x for a real matrix a and a real or complex vector or batch x.

    numpy would cast a to complex and run a complex product.  A complex x
    instead goes through one real GEMM on its float64 view, (n, n) @ (n, 2K),
    whose interleaved columns are the real and imaginary parts of a @ x.
    Any other x gives plain ``a @ x``.
    """
    x = np.asarray(x)
    if x.dtype != np.complex128:
        return a @ x
    pairs = np.ascontiguousarray(x).reshape(x.shape[0], -1).view(np.float64)
    return (a @ pairs).view(np.complex128).reshape(x.shape)


@lru_cache(maxsize=16)
def symplectic_matrix(n: int) -> np.ndarray:
    """Canonical structure matrix [[0, I], [-I, 0]] of size 2n x 2n, built
    once per n and read-only."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    j = np.zeros((2 * n, 2 * n))
    eye = np.eye(n)
    j[:n, n:] = eye
    j[n:, :n] = -eye
    j.flags.writeable = False
    return j


def frobenius_norm(a: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack (..., m, n).

    Each is the root of one dot product of the flat matrix with itself, as
    ``np.linalg.norm`` takes it on one matrix, so a stack's norms are
    bitwise its matrices' (``np.linalg.norm(axis=(-2, -1))``'s are not).
    """
    a = np.asarray(a, dtype=float)
    flat = a.reshape(*a.shape[:-2], 1, -1)
    return np.sqrt((flat @ flat.swapaxes(-1, -2)).reshape(a.shape[:-2]))


def determinant(a: np.ndarray):
    """Determinant of a float matrix or of each of a (K, n, n) stack (LU);
    numpy refuses a non-square one."""
    a = np.asarray(a, dtype=float)
    _require_finite(a)
    return np.linalg.det(a)
