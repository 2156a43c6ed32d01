"""Forward-mode differentiation by complex steps.

:func:`jacobian` runs a vector map once, on the n-column batch whose
column j is x + i STEP e_j (a cached read-only seed plus x), or on K
copies of it side by side, and reads column j of the Jacobian from the
imaginary parts of output column j.
STEP is so small that its square underflows to zero, so complex
arithmetic on these inputs is dual-number arithmetic: real parts are the
float computation, imaginary parts its first-order tangents, and
truncated iterations are differentiated exactly as executed.  Model code
needs no number type of its own, only operations that act column by
column on a trailing batch axis and primitives that accept complex input
(``cmath``).  No tokamak Jacobian runs here (its kernel gives them all),
nor do the quadratic models' sweep steps, each linear and so its own
tangent map (`defect.flow_jacobians`); a pass here is every other
Jacobian's route (the exact maps') and the quadratic models' cross-check.
:func:`seed_point` checks the point a Jacobian is taken at, for every route.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

# STEP is a power of two, so x + i STEP t carries the tangent t scaled
# exactly and imag / STEP recovers it, and STEP * STEP == 0.0, so products
# of two tangents vanish and no second-order term reaches a real part.
# Tangents below about 1e-127 fall into the subnormal range and lose digits.
STEP = 2.0**-600


class NonFiniteError(ValueError):
    """A NaN or Inf appeared in a value or derivative."""


@functools.lru_cache(maxsize=128)
def _seed(n: int) -> np.ndarray:
    """The read-only (n, n) seed i STEP I, with real parts -0.0: -0.0 + x is
    x for every float x, signed zeros included, so seed + x carries x exactly."""
    seed = np.empty((n, n), dtype=complex)
    seed.real = -0.0
    seed.imag = STEP * np.eye(n)
    seed.setflags(write=False)
    return seed


def seed_point(x) -> np.ndarray:
    """x as a float64 vector to take a Jacobian at: ValueError if it is not
    one-dimensional, NonFiniteError if an entry is not finite."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("seed point must be a one-dimensional vector")
    # a Python sum is the cheap test; finite entries may overflow it, as in linalg.solve
    if not math.isfinite(sum(x.tolist())) and not np.isfinite(x).all():
        raise NonFiniteError("seed point has non-finite entries")
    return x


def jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, copies: int | None = None) -> np.ndarray:
    """Jacobian of a vector map at x, from one complex-step pass over all inputs.

    `fn` receives the complex (n, n) batch whose column j seeds input j,
    and must return an (m, n) array whose column j is the map at column j
    of its input; entries with zero imaginary part are constant components.
    With `copies` = K it receives K such batches side by side, (n, K n), and
    returns the (K, m, n) stack of their Jacobians; the map may give copy k
    its own parameters (a step size), so one pass covers K settings.
    """
    x = seed_point(x)
    n = x.size
    seed = _seed(n) if copies is None else np.tile(_seed(n), copies)
    out = np.asarray(fn(seed + x[:, None]), dtype=complex)
    if out.ndim != 2 or out.shape[1] != seed.shape[1]:
        raise ValueError(f"map must return one column per input ({seed.shape[1]}), got shape {out.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        jac = out.imag / STEP
        # two sums are the cheap test; finite entries may overflow them too
        if not (math.isfinite(jac.sum()) and math.isfinite(out.real.sum())):
            bad = ~(np.isfinite(out) & np.isfinite(jac))
            if bad.any():
                i = int(np.argmax(bad.any(axis=1)))
                raise NonFiniteError(f"non-finite value or derivative in output component {i}")
    return jac if copies is None else jac.reshape(-1, copies, n).swapaxes(0, 1)


def finite_difference_jacobian(
    fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference Jacobian, O(step^2) accurate.

    The per-component increment is step * max(1, |x_j|).  Used as an
    independent cross-check of :func:`jacobian`, never as the primary route.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
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
