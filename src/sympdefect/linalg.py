"""Dense linear algebra for small phase-space matrices.

Only what numpy does not already say in one call lives here: the checked
solve, the transposed matrix-vector product, a real matrix applied to a
complex step in real arithmetic, the canonical structure matrix, and norms
and determinants that refuse non-finite input.
:func:`solve` also takes the complex steps of :mod:`sympdefect.autodiff`,
so flows that solve a linear system can be differentiated with no solve
rule of their own.  :func:`solve` and :func:`transposed_product` also
take one matrix per column of a batch (see :class:`sympdefect.PhaseState`)
and give each column what the unbatched call gives it.
"""

from __future__ import annotations

import cmath

import numpy as np


def _check_square(a: np.ndarray, name: str = "matrix") -> int:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a.shape[0]


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
    if not cmath.isfinite(sum(a.ravel().tolist())) and not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
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


def symplectic_matrix(n: int) -> np.ndarray:
    """Canonical structure matrix [[0, I], [-I, 0]] of size 2n x 2n."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    j = np.zeros((2 * n, 2 * n))
    eye = np.eye(n)
    j[:n, n:] = eye
    j[n:, :n] = -eye
    return j


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def determinant(a: np.ndarray) -> float:
    """Determinant of a float matrix (LU with partial pivoting)."""
    a = np.asarray(a, dtype=float)
    _check_square(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.det(a))
