"""Phase-space state container, and the error raised when a state leaves the
finite range, shared by models, integrators and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonFiniteIterateError(ValueError):
    """A fixed-point iterate or updated state left the finite range, directly
    or through a field evaluated at it."""


@dataclass
class PhaseState:
    """A point (q, p) in 2N-dimensional phase space, or a batch of K points.

    q and p have shape (N,), or (N, K) with a trailing batch axis whose
    column k is the k-th point.  Entries are usually float64 but may be
    complex steps (complex128): a Jacobian seeds one column per input
    along that axis (the seed axis), so one-step maps are differentiated
    by running them once, unchanged.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        # asarray without a dtype keeps complex steps intact
        self.q = np.asarray(self.q)
        self.p = np.asarray(self.p)
        if self.q.shape != self.p.shape:
            raise ValueError(
                f"q and p must have equal shapes, got {self.q.shape} and {self.p.shape}"
            )
        if self.q.ndim not in (1, 2):
            raise ValueError("q and p must be vectors (N,) or batches (N, K)")

    @property
    def dim(self) -> int:
        """Number of degrees of freedom N."""
        return self.q.shape[0]

    def to_vector(self) -> np.ndarray:
        """Stack to the length-2N vector (q_1..q_N, p_1..p_N), or (2N, K) batch."""
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_vector(cls, z: np.ndarray) -> "PhaseState":
        z = np.asarray(z)
        if z.ndim not in (1, 2) or z.shape[0] % 2:
            raise ValueError("state vector must have even length 2N, shape (2N,) or (2N, K)")
        n = z.shape[0] // 2
        return cls(z[:n], z[n:])
