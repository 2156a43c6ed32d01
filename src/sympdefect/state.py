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
    """A point (q, p) in 2N-dimensional phase space.

    Entries are usually float64 but may be dual numbers (object dtype) so
    that one-step maps can be differentiated by running them unchanged.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        # asarray without a dtype keeps object arrays of duals intact
        self.q = np.asarray(self.q)
        self.p = np.asarray(self.p)
        if self.q.ndim != 1 or self.p.ndim != 1:
            raise ValueError("q and p must be one-dimensional")
        if self.q.shape != self.p.shape:
            raise ValueError(
                f"q and p must have equal length, got {self.q.size} and {self.p.size}"
            )

    @property
    def dim(self) -> int:
        """Number of degrees of freedom N."""
        return self.q.size

    def to_vector(self) -> np.ndarray:
        """Flatten to the length-2N vector (q_1..q_N, p_1..p_N)."""
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_vector(cls, z: np.ndarray) -> "PhaseState":
        z = np.asarray(z)
        if z.ndim != 1 or z.size % 2:
            raise ValueError("state vector must be one-dimensional with even length")
        n = z.size // 2
        return cls(z[:n], z[n:])

    def copy(self) -> "PhaseState":
        return PhaseState(self.q.copy(), self.p.copy())
