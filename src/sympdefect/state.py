"""Phase-space state container, and the error raised when a state leaves the
finite range, shared by models, integrators and diagnostics.

Two equal-length tuples of Python floats (a scalar step kernel's output) are held in that float
form for the next kernel step; q and p become arrays, by np.asarray, when first read.
"""

from __future__ import annotations

import numpy as np


class NonFiniteIterateError(ValueError):
    """A fixed-point iterate or updated state left the finite range, directly
    or through a field evaluated at it."""


class PhaseState:
    """A point (q, p) in 2N-dimensional phase space, or a batch of K points.

    q and p have shape (N,), or (N, K) with a trailing batch axis whose
    column k is the k-th point.  Entries are usually float64 but may be
    complex steps (complex128): a Jacobian seeds one column per input
    along that axis (the seed axis), so one-step maps are differentiated
    by running them once, unchanged.  `floats` is the float form's (q, p)
    tuples until q or p is read, else None.
    """

    __slots__ = ("q", "p", "floats")

    def __init__(self, q, p, float_form: bool = False) -> None:
        # `float_form`: the caller vouches for two equal-length tuples of Python floats
        if float_form or (type(q) is tuple and type(p) is tuple and len(q) == len(p) and q
                          and all(type(v) is float for v in q + p)):
            self.floats = q, p
            # only the float form has __getattr__, which slows every attribute read
            self.__class__ = _FloatHeld
            return
        self.floats = None
        # asarray without a dtype keeps complex steps intact
        self.q = np.asarray(q)
        self.p = np.asarray(p)
        if self.q.shape != self.p.shape:
            raise ValueError(
                f"q and p must have equal shapes, got {self.q.shape} and {self.p.shape}"
            )
        if self.q.ndim not in (1, 2):
            raise ValueError("q and p must be vectors (N,) or batches (N, K)")

    def __repr__(self) -> str:
        return f"PhaseState(q={self.q!r}, p={self.p!r})"

    @property
    def dim(self) -> int:
        """Number of degrees of freedom N."""
        return self.q.shape[0] if self.floats is None else len(self.floats[0])

    def to_vector(self) -> np.ndarray:
        """Stack to the length-2N vector (q_1..q_N, p_1..p_N), or (2N, K) batch."""
        return np.concatenate(self.floats or (self.q, self.p))

    @classmethod
    def from_vector(cls, z: np.ndarray) -> "PhaseState":
        z = np.asarray(z)
        if z.ndim not in (1, 2) or z.shape[0] % 2:
            raise ValueError("state vector must have even length 2N, shape (2N,) or (2N, K)")
        n = z.shape[0] // 2
        return cls(z[:n], z[n:])


class _FloatHeld(PhaseState):
    """A PhaseState in the float form, until its first q or p read."""

    __slots__ = ()

    def __reduce__(self):  # pickled, it is still float-held
        return PhaseState, self.floats

    def __getattr__(self, name: str):
        if name not in ("q", "p"):
            raise AttributeError(f"'PhaseState' object has no attribute {name!r}")
        self.q, self.p, self.floats = np.asarray(self.floats[0]), np.asarray(self.floats[1]), None
        self.__class__ = PhaseState
        return getattr(self, name)
