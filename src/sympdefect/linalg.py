"""Dense linear algebra for small phase-space matrices.

Only what numpy does not already say in one call lives here: the checked
solve and its 3 x 3 form on Python floats, a real matrix applied to a
complex step in real arithmetic, the canonical structure matrix, and a
Frobenius norm.
:func:`solve` also takes the complex steps of :mod:`sympdefect.autodiff`,
so flows that solve a linear system can be differentiated with no solve
rule of their own.  :func:`solve` also takes one matrix per column of a
batch (see :class:`sympdefect.PhaseState`) and gives each column what the
unbatched call gives it;
:func:`frobenius_norm` takes a stack (K, n, n) and gives each matrix,
bitwise, what the call on that matrix alone gives it.
"""

from __future__ import annotations

import cmath
import math
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


def solve3(a: list, *rhs) -> list:
    """:func:`solve` on Python floats for a 3 x 3 list of rows a, with its
    errors: Gaussian elimination with partial pivoting, the first largest
    pivot leading as in LAPACK's LU, with no numpy dispatch to pay.  One
    elimination solves a x = b for every 3-sequence b of `rhs`; the
    solutions come back in order, as 3-tuples."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    if not math.isfinite(a00 + a01 + a02 + a10 + a11 + a12 + a20 + a21 + a22):
        _require_finite(np.array(a))  # the sum of finite entries may overflow
    # rows i0, i1, i2 of a are the pivot rows r0, r1, r2 of the elimination
    i0, i1, i2, r0, r1, r2 = 0, 1, 2, (a00, a01, a02), (a10, a11, a12), (a20, a21, a22)
    if abs(a10) > abs(a00) and abs(a10) >= abs(a20):
        i0, i1, r0, r1 = 1, 0, r1, r0
    elif abs(a20) > max(abs(a00), abs(a10)):
        i0, i2, r0, r2 = 2, 0, r2, r0
    try:  # a zero pivot divides by zero
        f1, f2 = r1[0] / r0[0], r2[0] / r0[0]
        r1 = (r1[1] - f1 * r0[1], r1[2] - f1 * r0[2])
        r2 = (r2[1] - f2 * r0[1], r2[2] - f2 * r0[2])
        if abs(r2[0]) > abs(r1[0]):
            i1, i2, f1, f2, r1, r2 = i2, i1, f2, f1, r2, r1
        f = r2[0] / r1[0]
        pivot = r2[1] - f * r1[1]
        if pivot == 0.0:
            raise ZeroDivisionError
    except ZeroDivisionError:
        raise np.linalg.LinAlgError("Singular matrix") from None
    solutions = []
    for b in rhs:
        b0 = b[i0]
        b1, b2 = b[i1] - f1 * b0, b[i2] - f2 * b0
        x2 = (b2 - f * b1) / pivot
        x1 = (b1 - r1[1] * x2) / r1[0]
        solutions.append(((b0 - r0[1] * x1 - r0[2] * x2) / r0[0], x1, x2))
    return solutions


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
    if a.ndim == 2:  # one matrix: the same product, without the stack's reshapes
        flat = a.ravel()
        return np.sqrt(flat.dot(flat))
    flat = a.reshape(*a.shape[:-2], 1, -1)
    return np.sqrt((flat @ flat.swapaxes(-1, -2)).reshape(a.shape[:-2]))
