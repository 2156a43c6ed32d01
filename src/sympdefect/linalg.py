"""Dense linear algebra for small phase-space matrices.

Only what numpy does not already say in one call lives here: the checked
solve, the canonical structure matrix, and norms and determinants that
refuse non-finite input.  :func:`solve` also takes the complex steps of
:mod:`sympdefect.autodiff`, so flows that solve a linear system can be
differentiated with no solve rule of their own.
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
    return np.linalg.solve(a, b)


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
