"""Forward-mode automatic differentiation with multi-directional dual numbers.

A :class:`Dual` carries a scalar value and a gradient row of fixed width W.
Seeding W unit directions and pushing them through a function in a single
pass yields exact Jacobian rows, with truncated iterations differentiated
exactly as executed.  Arithmetic is implemented directly on the pair
(value, grad); no taping or graph construction is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class NonFiniteError(ValueError):
    """A NaN or Inf appeared in a value or derivative."""


class Dual:
    """Scalar dual number value + grad, where grad is a width-W row vector.

    All duals mixing in one expression must share the same width; plain
    numbers are treated as constants with zero gradient.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value: float, grad: np.ndarray):
        self.value = float(value)
        self.grad = grad if isinstance(grad, np.ndarray) else np.asarray(grad, dtype=float)

    @classmethod
    def seed(cls, value: float, index: int, width: int) -> "Dual":
        """Input variable number `index` out of `width` independents."""
        if not 0 <= index < width:
            raise ValueError(f"seed index {index} outside width {width}")
        grad = np.zeros(width)
        grad[index] = 1.0
        return cls(value, grad)

    @classmethod
    def constant(cls, value: float, width: int) -> "Dual":
        return cls(value, np.zeros(width))

    @property
    def width(self) -> int:
        return self.grad.size

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.grad + other.grad)
        if isinstance(other, np.ndarray):
            # defer to numpy so array operands broadcast elementwise
            return NotImplemented
        return Dual(self.value + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.grad - other.grad)
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Dual(self.value - other, self.grad)

    def __rsub__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Dual(other - self.value, -self.grad)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value * other.value,
                self.grad * other.value + other.grad * self.value,
            )
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Dual(self.value * other, self.grad * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.value
            return Dual(
                self.value * inv,
                (self.grad - (self.value * inv) * other.grad) * inv,
            )
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Dual(self.value / other, self.grad / other)

    def __rtruediv__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        inv = 1.0 / self.value
        return Dual(other * inv, (-other * inv * inv) * self.grad)

    def __pow__(self, n):
        if isinstance(n, Dual):
            raise TypeError("dual exponents are not supported")
        return Dual(self.value**n, (n * self.value ** (n - 1)) * self.grad)

    def __neg__(self):
        return Dual(-self.value, -self.grad)

    def __pos__(self):
        return self

    # Comparisons order by value part so domain guards work unchanged.

    def __lt__(self, other):
        return self.value < _value_of(other)

    def __le__(self, other):
        return self.value <= _value_of(other)

    def __gt__(self, other):
        return self.value > _value_of(other)

    def __ge__(self, other):
        return self.value >= _value_of(other)

    # -- elementary functions (method form lets numpy object arrays dispatch)

    def sqrt(self) -> "Dual":
        s = math.sqrt(self.value)
        return Dual(s, self.grad / (2.0 * s))

    def log(self) -> "Dual":
        return Dual(math.log(self.value), self.grad / self.value)

    def exp(self) -> "Dual":
        e = math.exp(self.value)
        return Dual(e, e * self.grad)

    def __repr__(self) -> str:
        return f"Dual({self.value!r}, {self.grad!r})"


def _value_of(x) -> float:
    return x.value if isinstance(x, Dual) else float(x)


def value_of(x) -> float:
    """Value part of a dual, or the number itself."""
    return _value_of(x)


def sqrt(x):
    return x.sqrt() if isinstance(x, Dual) else math.sqrt(x)


def log(x):
    return x.log() if isinstance(x, Dual) else math.log(x)


def exp(x):
    return x.exp() if isinstance(x, Dual) else math.exp(x)


@dataclass
class CustomPrimitive:
    """Scalar function with a registered derivative.

    `evaluate` maps float -> float and may run arbitrary code (e.g. a
    branched closed form with a series loop); `derivative` supplies
    d(evaluate)/dx directly, so that code is never differentiated.
    """

    evaluate: Callable[[float], float]
    derivative: Callable[[float], float]
    name: str = field(default="primitive")

    def __call__(self, x):
        if isinstance(x, Dual):
            return Dual(self.evaluate(x.value), self.derivative(x.value) * x.grad)
        return self.evaluate(x)


def _split_tangents(a: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Values (shape of a) and tangents (that shape + (width,)) of a dual array;
    plain numbers are constants with zero tangent."""
    entries = a.ravel().tolist()
    zero = np.zeros(width)
    values = np.array([_value_of(e) for e in entries]).reshape(a.shape)
    tangents = np.array([e.grad if isinstance(e, Dual) else zero for e in entries])
    return values, tangents.reshape(a.shape + (width,))


def _require_finite(a: np.ndarray) -> None:
    # a Python sum over tolist() is the cheap test on small matrices; it
    # also overflows for large finite entries, so np.isfinite confirms
    if not math.isfinite(sum(a.ravel().tolist())) and not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")


def solve(a, b) -> np.ndarray:
    """Solve a x = b for a vector or matrix b, through duals in a or b.

    Float input goes straight to ``np.linalg.solve`` (LAPACK's LU with
    partial pivoting).  When either operand is an object array of duals,
    one float solve gives the values x and a second solve with the same
    matrix gives the tangents by the rule dx = A^-1 (db - dA x); no
    elimination runs on duals.  A singular matrix raises
    ``np.linalg.LinAlgError`` (a ValueError), and non-finite matrix
    entries raise ValueError, because LAPACK would return nan silently.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype != object and b.dtype != object:
        _require_finite(a)
        return np.linalg.solve(a, b)
    entries = a.ravel().tolist() + b.ravel().tolist()
    width = next((e.width for e in entries if isinstance(e, Dual)), None)
    if width is None:
        return solve(a.astype(float), b.astype(float))
    a_value, a_tangent = _split_tangents(a, width)
    b_value, b_tangent = _split_tangents(b, width)
    _require_finite(a_value)
    x = np.linalg.solve(a_value, b_value)
    rhs = b_tangent - np.einsum("ijw,j...->i...w", a_tangent, x)
    dx = np.linalg.solve(a_value, rhs.reshape(len(rhs), -1)).reshape(rhs.shape)
    out = np.empty(x.shape, dtype=object)
    for index in np.ndindex(x.shape):
        out[index] = Dual(x[index], dx[index])
    return out


def seeded_vector(x: np.ndarray) -> np.ndarray:
    """Object array of duals seeding one unit direction per component."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("seed point must be a one-dimensional vector")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("seed point has non-finite entries")
    w = x.size
    out = np.empty(w, dtype=object)
    for i in range(w):
        out[i] = Dual.seed(x[i], i, w)
    return out


def jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Jacobian of a vector map at x in one forward pass.

    `fn` receives an object array of duals and must return a sequence whose
    entries are duals or plain numbers (constant components).
    """
    x = np.asarray(x, dtype=float)
    seeds = seeded_vector(x)
    out = fn(seeds)
    w = x.size
    rows = []
    for i, component in enumerate(np.asarray(out, dtype=object).ravel()):
        if isinstance(component, Dual):
            if component.width != w:
                raise ValueError(
                    f"output component {i} has gradient width {component.width}, expected {w}"
                )
            value, row = component.value, component.grad
        else:
            value, row = float(component), np.zeros(w)
        if not math.isfinite(value) or not np.all(np.isfinite(row)):
            raise NonFiniteError(f"non-finite value or derivative in output component {i}")
        rows.append(row)
    return np.array(rows)


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
