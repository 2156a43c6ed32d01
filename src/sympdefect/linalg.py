"""Dense linear algebra for small phase-space matrices.

Everything here operates on plain numpy arrays.  The linear solve, which
must also carry dual numbers, is :func:`sympdefect.autodiff.solve`.
"""

from __future__ import annotations

import numpy as np

MAX_POWER = 64


def _check_square(a: np.ndarray, name: str = "matrix") -> int:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a.shape[0]


def bracket(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Antisymmetrized product R^T S - S^T R of two equal-shape blocks."""
    r = np.asarray(r)
    s = np.asarray(s)
    if r.shape != s.shape or r.ndim != 2:
        raise ValueError(f"operands must be equal-shape 2-d arrays, got {r.shape} and {s.shape}")
    return r.T @ s - s.T @ r


def skew_part(a: np.ndarray) -> np.ndarray:
    """Skew-symmetric part (A - A^T) / 2."""
    a = np.asarray(a)
    _check_square(a)
    return (a - a.T) / 2


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


def mat_pow(a: np.ndarray, k: int) -> np.ndarray:
    """k-th power by repeated multiplication, preserving the input dtype."""
    n = _check_square(a)
    if not 0 <= k <= MAX_POWER:
        raise ValueError(f"exponent must be in [0, {MAX_POWER}], got {k}")
    a = np.asarray(a)
    out = np.eye(n, dtype=a.dtype)
    for _ in range(k):
        out = out @ a
    return out
