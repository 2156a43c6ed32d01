"""Block-wise structure defect of a one-step map.

For a map with Jacobian D at a point, the transformed structure
J~ = D^T J D of a symplectic map equals J exactly.  Truncating the implicit
solve leaves a structured residue: J~ is always skew-symmetric, one diagonal
N x N block vanishes identically (which one depends on the implicit side),
and the remaining blocks deviate at order h^(M+1).  This module computes D
by complex-step forward AD (or finite differences, or closed-form
recursions where available) and packages the block decomposition of J~.
`defect_report` decomposes one Jacobian or a (K, 2N, 2N) stack of them
with one body: a stack's figures are arrays over K, each bitwise what
the report of that Jacobian alone gives.
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
    P12 = +I, P21 = -I, P22 = 0.  `deviations` maps each block to its
    Frobenius distance from its target; `delta` is that of the diagonal
    block that measures the defect for the scheme at hand (`delta_block`
    says which), `alpha` that of P12.  A report of a stack of K Jacobians
    carries the leading K axis on every array and every figure.
    """

    structure: np.ndarray
    diag_q: np.ndarray
    diag_p: np.ndarray
    antidiag: np.ndarray
    delta_block: str
    delta: float
    alpha: float
    deviations: dict[str, float]
    skew_residual: float
    det_flow: float
    det_antidiag: float

    @property
    def diag_q_norm(self) -> float:
        return self.deviations["P11"]

    @property
    def diag_p_norm(self) -> float:
        return self.deviations["P22"]

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
    """Decompose J~ = D^T J D for a flow Jacobian D of even size 2N, or for
    each Jacobian of a (K, 2N, 2N) stack in the same numpy calls."""
    dflow = np.asarray(dflow, dtype=float)
    if dflow.ndim not in (2, 3) or dflow.shape[-1] != dflow.shape[-2] or dflow.shape[-1] % 2:
        raise ValueError(f"flow Jacobian must be square of even size, got shape {dflow.shape}")
    if delta_block not in ("q", "p"):
        raise ValueError(f"delta_block must be 'q' or 'p', got {delta_block!r}")
    n = dflow.shape[-1] // 2
    j = linalg.symplectic_matrix(n)
    linalg._require_finite(dflow)
    structure = dflow.swapaxes(-1, -2) @ j @ dflow
    linalg._require_finite(structure)
    # the blocks P11, P12, P21, P22 of J~ - J, each less its target
    lead = dflow.shape[:-2]
    blocks = (structure - j).reshape(*lead, 2, n, 2, n).swapaxes(-3, -2).reshape(*lead, 4, n, n)
    deviations = dict(zip(("P11", "P12", "P21", "P22"), linalg.frobenius_norm(blocks).T))
    antidiag = structure[..., :n, n:]
    return DefectReport(
        structure=structure,
        diag_q=structure[..., :n, :n],
        diag_p=structure[..., n:, n:],
        antidiag=antidiag,
        delta_block=delta_block,
        delta=deviations["P11" if delta_block == "q" else "P22"],
        alpha=deviations["P12"],
        deviations=deviations,
        skew_residual=linalg.frobenius_norm(structure + structure.swapaxes(-1, -2)),
        det_flow=np.linalg.det(dflow),
        det_antidiag=np.linalg.det(antidiag),
    )


def analyze(model, config: SchemeConfig, state: PhaseState) -> DefectReport:
    """AD flow Jacobian plus block decomposition; delta measures the
    explicit side's diagonal block."""
    return defect_report(flow_jacobian_ad(model, config, state), config.scheme.explicit_side)


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
