"""Closed-form defect blocks for the quadratic model.

For the quadratic Hamiltonian the momentum sweeps are polynomials in the
constant mixed Hessian, and the defect blocks of the p-implicit step with M
sweeps collapse to single powers of the coupling matrix:

    diagonal block   = (-1)^M h^(M+1) (C^M - (C^M)^T)
    antidiagonal     = I + (-1)^M h^(M+1) C^(M+1)

with C the coupling matrix from :func:`sympdefect.hamiltonians.mixed_hessian`.
:func:`coupling_power` returns C^M itself, an int64 Toeplitz matrix computed
in exact integer arithmetic, giving an independent oracle for the AD route.
"""

from __future__ import annotations

import math

import numpy as np

from .hamiltonians import mixed_hessian

MAX_DIM = 64
MAX_SWEEPS = 16


def coupling_power(n: int, m: int) -> np.ndarray:
    """C^m of the n x n coupling matrix in exact int64 arithmetic.

    The power is Toeplitz: entry (i, j) depends only on the band l = i - j,
    read as ``C[l, 0]`` for l >= 0 and ``C[0, -l]`` for l < 0.  Checked on
    every call: the power is Toeplitz, and for m >= 1 its bands satisfy the
    wrap relation -2 band[l] = band[l - n] for l = 1..n-1.  A violation
    means the arithmetic overflowed or the construction is wrong, so it
    raises instead of returning bad data.  With the wrap relation, a
    symmetric power has every off-diagonal band zero (m = 0, or n = 2 with
    even m), so its skew part, and with it the predicted diagonal block,
    vanishes.
    """
    if not 2 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be in [2, {MAX_DIM}], got {n}")
    if not 0 <= m <= MAX_SWEEPS:
        raise ValueError(f"power must be in [0, {MAX_SWEEPS}], got {m}")
    # entries are bounded by the induced infinity norm (2(n-1))^m; refuse
    # combinations where that could leave the exact int64 range
    if m * math.log(2 * (n - 1)) > 62 * math.log(2):
        raise ValueError(f"C^{m} at size {n} may overflow int64")
    power = np.linalg.matrix_power(mixed_hessian(n, dtype=np.int64), m)
    if not np.array_equal(power[1:, 1:], power[:-1, :-1]):
        raise ValueError(f"power C^{m} of size {n} is not Toeplitz")
    # power[1:, 0] holds bands 1..n-1 and power[0, :0:-1] bands 1-n..-1
    if m >= 1 and not np.array_equal(-2 * power[1:, 0], power[0, :0:-1]):
        raise ValueError(f"band wrap relation fails for C^{m}, size {n}")
    return power


def predicted_defect_blocks(n: int, m: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (diagonal, antidiagonal) defect blocks of the p-implicit
    step with m sweeps at step size h, for the quadratic model of size n."""
    if h < 0 or not np.isfinite(h):
        raise ValueError(f"step size must be non-negative and finite, got {h}")
    sign = -1.0 if m % 2 else 1.0
    power_m = coupling_power(n, m).astype(float)
    power_m1 = coupling_power(n, m + 1).astype(float)
    diag = sign * h ** (m + 1) * (power_m - power_m.T)
    antidiag = np.eye(n) + sign * h ** (m + 1) * power_m1
    return diag, antidiag
