"""Block-wise structure defect of a one-step map.

For a map with Jacobian D at a point, the transformed structure
J~ = D^T J D of a symplectic map equals J exactly.  Truncating the implicit
solve leaves a structured residue: J~ is always skew-symmetric, one diagonal
N x N block vanishes identically (which one depends on the implicit side),
and the remaining blocks deviate at order h^(M+1).  This module computes D
by forward AD, from a model's tangent-linear kernel (the tokamak's), from
a linear step's own real pass (the quadratic models' sweep schemes) or a
complex-step pass (the exact maps; or finite differences, or closed-form
recursions where available), and packages the block decomposition of J~.
`defect_report` decomposes one Jacobian or a (K, 2N, 2N) stack of them
with one body: a stack's figures are arrays over K, each bitwise what
the report of that Jacobian alone gives.  The two determinants are
computed on first read, since the block figures do not need them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .autodiff import finite_difference_jacobian, jacobian, seed_point
from .hamiltonians import SwappedModel
from .integrators import Scheme, SchemeConfig, momentum_iterates, step_p_implicit, step_q_implicit
from .state import PhaseState


def swap_coordinates(state: PhaseState) -> PhaseState:
    """The linear symplectic change of variables (q, p) -> (-p, q)."""
    return PhaseState(-state.p, state.q)


def swap_coordinates_inverse(state: PhaseState) -> PhaseState:
    return PhaseState(state.p, -state.q)


def flow_map(model, config: SchemeConfig, h=None):
    """The configured one-step map as a function of the flat state vector
    (2N,), or of a (2N, K) batch of them, one state per column.  A step
    size h, a float or one per column (shape (K,)), replaces config.h."""
    step = config.h if h is None else h

    def apply(z: np.ndarray) -> np.ndarray:
        return config.scheme.step(model, PhaseState.from_vector(z), config, step).to_vector()

    return apply


def flow_jacobian_ad(model, config: SchemeConfig, state: PhaseState) -> np.ndarray:
    """Jacobian of the one-step map by forward AD (primary route), `flow_jacobians` of one
    config: D straight from a model's kernel (the tokamak's), from a linear step's real
    pass (the quadratic models'), else from a complex-step pass (the exact maps')."""
    return flow_jacobians(model, [config], state)[0]


# the kernel side of each one-sided scheme that the tokamak's kernel steps
_KERNEL_SIDES = {Scheme.P_IMPLICIT: "p", Scheme.Q_IMPLICIT: "q", Scheme.LINEAR_IMPLICIT_EM: "em"}


def flow_jacobians(model, configs: list[SchemeConfig], state: PhaseState) -> np.ndarray:
    """The (K, 2N, 2N) flow Jacobians at K configs of one scheme and sweep counts, at a
    state checked and cast to float64 as a seed point (`autodiff.seed_point`).

    A model with a kernel (`linearized_step`, the tokamak) gives D straight from it, and
    refuses a complex state with TypeError: D of the step for a one-sided scheme or em, and
    for a composition D_second @ D_first of its half steps (h/2, M1 then M2), one stacked
    product.  Where the kernel raises at a config, so does the grid: with the error of that
    config's float step, which names the iterate, or else with the kernel's own.
    A model with a constant coupling (`coupling`, the quadratic models) makes a sweep
    scheme's step linear, its own D: D is the step of the unit columns, one real pass per
    config, so a grid row is its per-point D.  Otherwise one complex-step pass whose seed
    copy k steps with configs[k].h (a lone config with its float h)."""
    z = state.to_vector()
    scheme = configs[0].scheme
    step = getattr(model, "linearized_step", None)
    if step is not None and z.dtype.kind == "c":
        raise TypeError("flow Jacobians from the kernel (linearized_step) take a real state")
    z = seed_point(z)
    if step is not None and (scheme.composition or scheme in _KERNEL_SIDES):
        n = z.size // 2
        q, p = z[:n].tolist(), z[n:].tolist()
        jacs = []
        for c in configs:
            try:
                if scheme.composition:  # the first half solves for the explicit side
                    qh, ph, first = step(scheme.explicit_side, q, p, 0.5 * c.h, c.M1)
                    # D_second's entries, then D_first's
                    jacs.append(step(scheme.implicit_side, qh, ph, 0.5 * c.h, c.M2)[2] + first)
                else:
                    jacs.append(step(_KERNEL_SIDES[scheme], q, p, c.h, c.M)[2])
            except (ValueError, ArithmeticError) as exc:
                error = exc
                break
        else:
            stack = np.array(jacs).reshape(len(configs), -1, 2 * n, 2 * n)
            return stack[:, 0] @ stack[:, 1] if scheme.composition else stack[:, 0]
        scheme.step(model, PhaseState.from_vector(z), c, c.h)  # the float step names the iterate
        raise error
    # an overflow ends in the steps' finiteness checks, not in a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if getattr(model, "coupling", None) is not None and scheme.counts:
            eye = np.eye(z.size)
            return np.array([flow_map(model, c)(eye) for c in configs])
        if len(configs) == 1:
            return jacobian(flow_map(model, configs[0]), z)[None]
        h = np.repeat([c.h for c in configs], z.size)
        return jacobian(flow_map(model, configs[0], h), z, copies=len(configs))


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

    dflow: np.ndarray
    structure: np.ndarray
    diag_q: np.ndarray
    diag_p: np.ndarray
    antidiag: np.ndarray
    delta_block: str
    delta: float
    alpha: float
    deviations: dict[str, float]
    skew_residual: float
    # det D and det P12, computed on first read
    det_flow = cached_property(lambda self: np.linalg.det(self.dflow))
    det_antidiag = cached_property(lambda self: np.linalg.det(self.antidiag))

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
    dflow = np.array(dflow, dtype=float)  # a copy, since the determinants read it later
    if dflow.ndim not in (2, 3) or dflow.shape[-1] != dflow.shape[-2] or dflow.shape[-1] % 2:
        raise ValueError(f"flow Jacobian must be square of even size, got shape {dflow.shape}")
    if delta_block not in ("q", "p"):
        raise ValueError(f"delta_block must be 'q' or 'p', got {delta_block!r}")
    n = dflow.shape[-1] // 2
    j = linalg.symplectic_matrix(n)
    lead = dflow.shape[:-2]
    # inf * 0 and inf - inf from a non-finite D, and overflows of J~ or its norms
    with np.errstate(over="ignore", invalid="ignore"):
        structure = dflow.swapaxes(-1, -2) @ j @ dflow
        skew_residual = linalg.frobenius_norm(structure + structure.swapaxes(-1, -2))
        # the blocks P11, P12, P21, P22 of J~ - J, each less its target
        blocks = (structure - j).reshape(*lead, 2, n, 2, n).swapaxes(-3, -2).reshape(*lead, 4, n, n)
        norms = linalg.frobenius_norm(blocks)
    # a non-finite D or J~ leaves a figure non-finite, and so does a J~ whose norms overflow
    if not math.isfinite(sum(skew_residual.ravel().tolist(), sum(norms.ravel().tolist()))):
        for figures in (dflow, structure, skew_residual, norms):
            linalg._require_finite(figures)
    deviations = dict(zip(("P11", "P12", "P21", "P22"), norms.T))
    antidiag = structure[..., :n, n:]
    return DefectReport(
        dflow=dflow,
        structure=structure,
        diag_q=structure[..., :n, :n],
        diag_p=structure[..., n:, n:],
        antidiag=antidiag,
        delta_block=delta_block,
        delta=deviations["P11" if delta_block == "q" else "P22"],
        alpha=deviations["P12"],
        deviations=deviations,
        skew_residual=skew_residual,
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
