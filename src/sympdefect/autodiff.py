"""Forward-mode differentiation by complex steps.

:func:`jacobian` runs a vector map once, on the n-column batch whose
column j is x + i STEP e_j, and reads column j of the Jacobian from the
imaginary parts of output column j.  STEP is so small that its square
underflows to zero, so complex arithmetic on these inputs is dual-number
arithmetic: real parts are the float computation, imaginary parts its
first-order tangents, and truncated iterations are differentiated exactly
as executed.  Model code needs no number type of its own, only operations
that act column by column on a trailing batch axis and primitives that
accept complex input (``cmath``, or a :class:`CustomPrimitive`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# STEP is a power of two, so x + i STEP t carries the tangent t scaled
# exactly and imag / STEP recovers it, and STEP * STEP == 0.0, so products
# of two tangents vanish and no second-order term reaches a real part.
# Tangents below about 1e-127 fall into the subnormal range and lose digits.
STEP = 2.0**-600


class NonFiniteError(ValueError):
    """A NaN or Inf appeared in a value or derivative."""


@dataclass
class CustomPrimitive:
    """Scalar function with a registered derivative.

    `evaluate` maps float -> float and may run arbitrary code (e.g. a
    branched closed form with a series loop); `derivative` supplies
    d(evaluate)/dx directly, so that code is never differentiated.  A
    complex step x + i t maps to evaluate(x) + i derivative(x) t.
    """

    evaluate: Callable[[float], float]
    derivative: Callable[[float], float]
    name: str = field(default="primitive")

    def __call__(self, x):
        if isinstance(x, complex):
            return complex(self.evaluate(x.real), self.derivative(x.real) * x.imag)
        return self.evaluate(x)


def jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Jacobian of a vector map at x, from one complex-step pass over all inputs.

    `fn` receives the complex (n, n) batch whose column j seeds input j,
    and must return an (m, n) array whose column j is the map at column j
    of its input; entries with zero imaginary part are constant components.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("seed point must be a one-dimensional vector")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("seed point has non-finite entries")
    n = x.size
    z = np.empty((n, n), dtype=complex)
    z.real = x[:, None]
    z.imag = STEP * np.eye(n)
    out = np.asarray(fn(z), dtype=complex)
    if out.ndim != 2 or out.shape[1] != n:
        raise ValueError(f"map must return one column per input ({n}), got shape {out.shape}")
    with np.errstate(over="ignore"):
        jac = out.imag / STEP
    bad = ~(np.isfinite(out) & np.isfinite(jac))
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        raise NonFiniteError(f"non-finite value or derivative in output component {i}")
    return jac


def finite_difference_jacobian(
    fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference Jacobian, O(step^2) accurate.

    The per-component increment is step * max(1, |x_j|).  Used as an
    independent cross-check of :func:`jacobian`, never as the primary route.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        delta = step * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += delta
        xm[j] -= delta
        fp = np.asarray(fn(xp), dtype=float)
        fm = np.asarray(fn(xm), dtype=float)
        cols.append((fp - fm) / (2.0 * delta))
    jac = np.column_stack(cols)
    if not np.all(np.isfinite(jac)):
        raise NonFiniteError("non-finite entry in finite-difference Jacobian")
    return jac
