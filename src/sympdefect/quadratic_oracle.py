"""Closed-form defect blocks for the quadratic model.

For the quadratic Hamiltonian the momentum sweeps are polynomials in the
constant mixed Hessian, and the defect blocks of the p-implicit step with M
sweeps collapse to single powers of the coupling matrix:

    diagonal block   = (-1)^M h^(M+1) (C^M - (C^M)^T)
    antidiagonal     = I + (-1)^M h^(M+1) C^(M+1)

with C the coupling matrix from :func:`sympdefect.hamiltonians.mixed_hessian`.
:func:`coupling_power` returns C^M itself, an int64 Toeplitz matrix computed
in exact integer arithmetic and cached read-only per (n, M), giving an
independent oracle for the AD route.  :func:`check_case` states the (n, M)
range where that arithmetic stays exact.
"""

from __future__ import annotations

import functools

import numpy as np

from .hamiltonians import mixed_hessian

MAX_DIM = 64
MAX_SWEEPS = 16


class OracleRangeError(ValueError):
    """An argument outside the range where the closed form is exact.

    `key` names it: "n" for the dimension, "m" for the power or sweep count.
    """

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def max_power(n: int) -> int:
    """Largest m for which C^m of size n is admitted: m <= MAX_SWEEPS, and
    the entries' bound, the induced infinity norm (2(n-1))^m, at most 2^62
    so the exact int64 range cannot be left."""
    if not 2 <= n <= MAX_DIM:
        raise OracleRangeError("n", f"dimension must be in [2, {MAX_DIM}], got {n}")
    return next(m for m in range(MAX_SWEEPS, -1, -1) if (2 * (n - 1)) ** m <= 2**62)


def check_case(n: int, m: int) -> None:
    """Refuse an (n, m) outside the range of :func:`predicted_defect_blocks`:
    a p-implicit step has m >= 1 sweeps, and its blocks need C^(m+1)."""
    top = max_power(n) - 1
    if not 1 <= m <= top:
        raise OracleRangeError(
            "m", f"sweep count must be in [1, {top}] at dimension {n} "
            f"since its blocks need C^(m+1), got {m}"
        )


def coupling_power(n: int, m: int) -> np.ndarray:
    """C^m of the n x n coupling matrix in exact int64 arithmetic, read-only.

    The power is Toeplitz: entry (i, j) depends only on the band l = i - j,
    read as ``C[l, 0]`` for l >= 0 and ``C[0, -l]`` for l < 0.  Checked
    whenever a power is computed: the power is Toeplitz, and for m >= 1 its
    bands satisfy the wrap relation -2 band[l] = band[l - n] for
    l = 1..n-1.  A violation means the arithmetic overflowed or the
    construction is wrong, so it raises instead of returning bad data.
    With the wrap relation, a symmetric power has every off-diagonal band
    zero (m = 0, or n = 2 with even m), so its skew part, and with it the
    predicted diagonal block, vanishes.

    Each checked power is cached per (n, m), so every later call returns
    the same read-only array.
    """
    # a plain function over the cache: bench/layers.py times plain
    # functions only, so quadratic_oracle.coupling_power.us_p50 stays measured
    return _checked_power(n, m)


@functools.lru_cache(maxsize=128)
def _checked_power(n: int, m: int) -> np.ndarray:
    top = max_power(n)
    if not 0 <= m <= top:
        raise OracleRangeError(
            "m", f"power must be in [0, {top}] at size {n} (at most {MAX_SWEEPS}, "
            f"and no int64 overflow), got {m}"
        )
    power = np.linalg.matrix_power(mixed_hessian(n, dtype=np.int64), m)
    if not np.array_equal(power[1:, 1:], power[:-1, :-1]):
        raise ValueError(f"power C^{m} of size {n} is not Toeplitz")
    # power[1:, 0] holds bands 1..n-1 and power[0, :0:-1] bands 1-n..-1
    if m >= 1 and not np.array_equal(-2 * power[1:, 0], power[0, :0:-1]):
        raise ValueError(f"band wrap relation fails for C^{m}, size {n}")
    power.setflags(write=False)
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
