"""Block-wise structure defect of a one-step map.

For a map with Jacobian D at a point, the transformed structure
J~ = D^T J D of a symplectic map equals J exactly.  Truncating the implicit
solve leaves a structured residue: J~ is always skew-symmetric, one diagonal
N x N block vanishes identically (which one depends on the implicit side),
and the remaining blocks deviate at order h^(M+1).  This module computes D
by complex-step forward AD (or finite differences, or closed-form
recursions where available) and packages the block decomposition of J~.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .autodiff import finite_difference_jacobian, jacobian
from .hamiltonians import SwappedModel
from .integrators import (
    Scheme, SchemeConfig, momentum_iterates, one_step, step_p_implicit, step_q_implicit,
)
from .state import PhaseState


def swap_coordinates(state: PhaseState) -> PhaseState:
    """The linear symplectic change of variables (q, p) -> (-p, q)."""
    return PhaseState(-state.p, state.q)


def swap_coordinates_inverse(state: PhaseState) -> PhaseState:
    return PhaseState(state.p, -state.q)


def flow_map(model, config: SchemeConfig):
    """The configured one-step map as a function of the flat state vector
    (2N,), or of a (2N, K) batch of them, one state per column."""

    def apply(z: np.ndarray) -> np.ndarray:
        return one_step(model, config, PhaseState.from_vector(z)).to_vector()

    return apply


def flow_jacobian_ad(model, config: SchemeConfig, state: PhaseState) -> np.ndarray:
    """Jacobian of the one-step map by complex-step forward AD (primary route):
    one step of the batch that seeds every phase-space coordinate."""
    return jacobian(flow_map(model, config), state.to_vector())


def flow_jacobian_fd(
    model, config: SchemeConfig, state: PhaseState, step: float = 1e-6
) -> np.ndarray:
    """Central-difference Jacobian of the one-step map (cross-check route)."""
    return finite_difference_jacobian(flow_map(model, config), state.to_vector(), step)


def flow_jacobian_analytic(model, config: SchemeConfig, state: PhaseState) -> np.ndarray:
    """Closed-form Jacobian from the unrolled fixed-point recursion.

    Available for the one-sided schemes only.  The q-implicit Jacobian is
    obtained from the p-implicit one of the coordinate-swapped Hamiltonian,
    conjugated back through the swap.
    """
    if config.scheme is Scheme.P_IMPLICIT:
        return _analytic_p_implicit(model, state, config.h, config.M)
    if config.scheme is Scheme.Q_IMPLICIT:
        j = linalg.symplectic_matrix(model.dim)
        swapped = _analytic_p_implicit(
            SwappedModel(model), swap_coordinates(state), config.h, config.M
        )
        return -j @ swapped @ j
    raise ValueError(f"no closed-form Jacobian for scheme {config.scheme.value!r}")


def _analytic_p_implicit(model, state: PhaseState, h: float, m: int) -> np.ndarray:
    """Unrolled-recursion Jacobian of the p-implicit step.

    With Hessian blocks evaluated along the momentum sweeps p_0..p_M,

        dp~/dq = sum_{n=1..M} (-h)^n H_pq^[M-1] .. H_pq^[M-n+1] H_qq^[M-n]
        dp~/dp = sum_{n=0..M} (-h)^n H_pq^[M-1] .. H_pq^[M-n]
        dq~/dq = I + h H_qp^[M] + h H_pp^[M] dp~/dq
        dq~/dp = h H_pp^[M] dp~/dp
    """
    n_dim = model.dim
    sweeps = momentum_iterates(model, state, h, m)
    qq, pp, pq = zip(*(model.hessian_blocks(state.q, pk) for pk in sweeps))

    eye = np.eye(n_dim)
    prod = eye  # running product H_pq^[M-1] .. H_pq^[M-n]
    ptp = eye.copy()
    ptq = np.zeros((n_dim, n_dim))
    for n in range(1, m + 1):
        coeff = (-h) ** n
        ptq = ptq + coeff * (prod @ qq[m - n])
        prod = prod @ pq[m - n]
        ptp = ptp + coeff * prod
    qtq = eye + h * pq[m].T + h * (pp[m] @ ptq)
    qtp = h * (pp[m] @ ptp)

    out = np.empty((2 * n_dim, 2 * n_dim))
    out[:n_dim, :n_dim] = qtq
    out[:n_dim, n_dim:] = qtp
    out[n_dim:, :n_dim] = ptq
    out[n_dim:, n_dim:] = ptp
    return out


@dataclass
class DefectReport:
    """Block decomposition of the transformed structure J~ = D^T J D.

    A symplectic map has J~ = J, whose blocks are the targets: P11 = 0,
    P12 = +I, P21 = -I, P22 = 0.  `delta` is the Frobenius norm of the
    diagonal block that measures the defect for the scheme at hand
    (`delta_block` says which); `alpha` is the distance of the
    antidiagonal block P12 from +I.
    """

    structure: np.ndarray
    diag_q: np.ndarray
    diag_p: np.ndarray
    antidiag: np.ndarray
    delta_block: str
    delta: float
    alpha: float
    skew_residual: float
    det_flow: float
    det_antidiag: float

    @property
    def diag_q_norm(self) -> float:
        return linalg.frobenius_norm(self.diag_q)

    @property
    def diag_p_norm(self) -> float:
        return linalg.frobenius_norm(self.diag_p)

    @property
    def deviations(self) -> dict[str, float]:
        """Frobenius distance of each block P11..P22 from its target."""
        n = len(self.diag_q)
        return {
            "P11": self.diag_q_norm,
            "P12": self.alpha,
            "P21": linalg.frobenius_norm(self.structure[n:, :n] + np.eye(n)),
            "P22": self.diag_p_norm,
        }

    @property
    def volume_gap(self) -> float:
        """||det D| - |det P12||: det J~ factors through the antidiagonal
        block, so this sits at round-off while each determinant differs
        from 1 at the defect order."""
        return abs(abs(self.det_flow) - abs(self.det_antidiag))

    @property
    def volume_defect(self) -> float:
        """|det D - 1|, the phase-space volume the map fails to preserve."""
        return abs(self.det_flow - 1.0)


def defect_report(dflow: np.ndarray, delta_block: str = "q") -> DefectReport:
    """Decompose J~ = D^T J D for a flow Jacobian D of even size."""
    dflow = np.asarray(dflow, dtype=float)
    size = linalg._check_square(dflow, "flow Jacobian")
    if size % 2:
        raise ValueError(f"flow Jacobian must have even size, got {size}")
    if delta_block not in ("q", "p"):
        raise ValueError(f"delta_block must be 'q' or 'p', got {delta_block!r}")
    n = size // 2
    j = linalg.symplectic_matrix(n)
    structure = dflow.T @ j @ dflow
    diag_q = structure[:n, :n]
    diag_p = structure[n:, n:]
    antidiag = structure[:n, n:]
    eye = np.eye(n)
    delta_matrix = diag_q if delta_block == "q" else diag_p
    return DefectReport(
        structure=structure,
        diag_q=diag_q,
        diag_p=diag_p,
        antidiag=antidiag,
        delta_block=delta_block,
        delta=linalg.frobenius_norm(delta_matrix),
        alpha=linalg.frobenius_norm(antidiag - eye),
        skew_residual=linalg.frobenius_norm(structure + structure.T),
        det_flow=linalg.determinant(dflow),
        det_antidiag=linalg.determinant(antidiag),
    )


def analyze(model, config: SchemeConfig, state: PhaseState) -> DefectReport:
    """AD flow Jacobian plus block decomposition; delta measures the
    explicit side's diagonal block (the one-sided maps zero the other)."""
    dflow = flow_jacobian_ad(model, config, state)
    return defect_report(dflow, "q" if config.scheme.implicit_side == "p" else "p")


def coordinate_swap_check(model, h: float, m: int, state: PhaseState) -> float:
    """Max componentwise gap of the conjugation identity for SE schemes.

    Applying either SE step to H must equal swapping coordinates, applying
    the other step to the swapped Hamiltonian, and swapping back.  Returns
    the larger of the two discrepancies.
    """
    swapped_model = SwappedModel(model)
    swapped_state = swap_coordinates(state)
    gap = 0.0
    for step, conjugate in (
        (step_q_implicit, step_p_implicit),
        (step_p_implicit, step_q_implicit),
    ):
        direct = step(model, state, h, m)
        conjugated = swap_coordinates_inverse(conjugate(swapped_model, swapped_state, h, m))
        gap = max(gap, np.max(np.abs(direct.to_vector() - conjugated.to_vector())))
    return float(gap)
