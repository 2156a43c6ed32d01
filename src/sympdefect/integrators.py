"""One-step maps built on truncated fixed-point iteration.

The implicit half of a symplectic Euler step is replaced by exactly M
fixed-point sweeps, always initialized at the explicit input value and never
stopped early: the truncated map itself is the object under study, so an
adaptive exit would change the flow being measured.  Two-sided compositions
of half steps give the Stoermer-Verlet variants; the literal single-pass
forms are kept alongside as references.  Each `Scheme` member declares
its sweep counts, implicit side and step once; other modules read them.
Every step also takes a batch of states (q and p of shape (N, K)) and
steps each column as it would step that state alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import solve, transposed_product
from .state import NonFiniteIterateError, PhaseState


class IntegrationError(RuntimeError):
    """A step failed during trajectory integration; carries the step index."""

    def __init__(self, step_index: int, message: str):
        self.step_index = step_index
        super().__init__(f"integration failed at step {step_index}: {message}")


class Scheme(str, Enum):
    """Each member is (value, counts, implicit side, step).

    `counts` names the SchemeConfig counts the scheme takes (others are
    ignored).  The implicit side, "p" or "q", is the variable the map
    solves for, a composition's that of its second half; `explicit_side`
    is the other, whose diagonal block of J~ carries the defect.
    `step(model, state, config)` looks its step function up by name at
    call time, so a patched module attribute (a tracer) takes effect.
    """

    P_IMPLICIT = "p-implicit", ("M",), "p", lambda f, z, c: step_p_implicit(f, z, c.h, c.M)
    Q_IMPLICIT = "q-implicit", ("M",), "q", lambda f, z, c: step_q_implicit(f, z, c.h, c.M)
    SV_PQ = "sv-pq", ("M1", "M2"), "q", lambda f, z, c: step_sv_pq(f, z, c.h, c.M1, c.M2)
    SV_QP = "sv-qp", ("M1", "M2"), "p", lambda f, z, c: step_sv_qp(f, z, c.h, c.M1, c.M2)
    LINEAR_IMPLICIT_EM = (
        "linear-implicit-em", (), "p", lambda f, z, c: step_linear_implicit_em(f, z, c.h)
    )
    EXACT_QUADRATIC_P = (
        "exact-quadratic-p", (), "p", lambda f, z, c: exact_se_quadratic(f, z, c.h, "p")
    )
    EXACT_QUADRATIC_Q = (
        "exact-quadratic-q", (), "q", lambda f, z, c: exact_se_quadratic(f, z, c.h, "q")
    )

    def __new__(cls, value: str, counts: tuple[str, ...], implicit_side: str, step):
        member = str.__new__(cls, value)
        member._value_ = value
        member.counts = counts
        member.implicit_side = implicit_side
        member.explicit_side = "q" if implicit_side == "p" else "p"
        member.step = step
        return member

    @property
    def composition(self) -> bool:
        """Two half steps with their own counts M1 and M2."""
        return self.counts == ("M1", "M2")


@dataclass
class SchemeConfig:
    """Scheme selection plus step size and iteration counts.

    M is the sweep count for the one-sided schemes; M1/M2 are the counts of
    the first and second half step of a composition.
    """

    scheme: Scheme
    h: float
    M: int | None = None
    M1: int | None = None
    M2: int | None = None

    def __post_init__(self) -> None:
        self.scheme = Scheme(self.scheme)
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"step size must be positive and finite, got {self.h}")
        for name in self.scheme.counts:
            _require_count(name, getattr(self, name))


def _require_count(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_step(h: float) -> None:
    if not (math.isfinite(h) and h >= 0):
        raise ValueError(f"step size must be non-negative and finite, got {h}")


def _check_finite(vec: np.ndarray, label: str) -> None:
    # a Python sum over tolist() costs a fraction of ndarray.sum on 3-vectors
    # and is non-finite whenever a component is (real or imaginary part), or
    # when large finite ones overflow; on a batch it costs more than isfinite
    if not (vec.ndim == 1 and cmath.isfinite(sum(vec.tolist())) or np.isfinite(vec).all()):
        raise NonFiniteIterateError(f"non-finite {label}")


def momentum_iterates(model, state: PhaseState, h: float, m: int) -> list[np.ndarray]:
    """All momentum sweeps p_0..p_M of the p-implicit half at (q, p)."""
    _check_step(h)
    _require_count("M", m)
    q, p = state.q, state.p
    iterates = [p]
    pn = p
    for n in range(m):
        pn = p - h * model.grad_q(q, pn)
        _check_finite(pn, f"momentum iterate {n + 1}")
        iterates.append(pn)
    return iterates


def position_iterates(model, state: PhaseState, h: float, m: int) -> list[np.ndarray]:
    """All position sweeps q_0..q_M of the q-implicit half at (q, p)."""
    _check_step(h)
    _require_count("M", m)
    q, p = state.q, state.p
    iterates = [q]
    qn = q
    for n in range(m):
        qn = q + h * model.grad_p(qn, p)
        _check_finite(qn, f"position iterate {n + 1}")
        iterates.append(qn)
    return iterates


def step_p_implicit(model, state: PhaseState, h: float, m: int) -> PhaseState:
    """Symplectic Euler with implicit momentum, M fixed-point sweeps."""
    pn = momentum_iterates(model, state, h, m)[-1]
    qt = state.q + h * model.grad_p(state.q, pn)
    _check_finite(qt, "updated position")
    return PhaseState(qt, pn)


def step_q_implicit(model, state: PhaseState, h: float, m: int) -> PhaseState:
    """Symplectic Euler with implicit position, M fixed-point sweeps."""
    qn = position_iterates(model, state, h, m)[-1]
    pt = state.p - h * model.grad_q(qn, state.p)
    _check_finite(pt, "updated momentum")
    return PhaseState(qn, pt)


def step_sv_pq(model, state: PhaseState, h: float, m1: int, m2: int) -> PhaseState:
    """Stoermer-Verlet as q-implicit(M2) after p-implicit(M1) half steps."""
    half = step_p_implicit(model, state, 0.5 * h, m1)
    return step_q_implicit(model, half, 0.5 * h, m2)


def step_sv_qp(model, state: PhaseState, h: float, m1: int, m2: int) -> PhaseState:
    """Stoermer-Verlet as p-implicit(M2) after q-implicit(M1) half steps."""
    half = step_q_implicit(model, state, 0.5 * h, m1)
    return step_p_implicit(model, half, 0.5 * h, m2)


def step_sv_pq_direct(model, state: PhaseState, h: float, m1: int, m2: int) -> PhaseState:
    """Literal single-pass form of :func:`step_sv_pq`.

    Agrees with the composition exactly up to floating-point association;
    kept as an independent reference.
    """
    _check_step(h)
    _require_count("M1", m1)
    _require_count("M2", m2)
    q, p = state.q, state.p
    hh = 0.5 * h
    pbar = p
    for n in range(m1):
        pbar = p - hh * model.grad_q(q, pbar)
        _check_finite(pbar, f"momentum iterate {n + 1}")
    gp0 = model.grad_p(q, pbar)
    qn = q + hh * gp0
    for n in range(m2):
        qn = q + hh * (gp0 + model.grad_p(qn, pbar))
        _check_finite(qn, f"position iterate {n + 1}")
    pt = pbar - hh * model.grad_q(qn, pbar)
    _check_finite(pt, "updated momentum")
    return PhaseState(qn, pt)


def step_sv_qp_direct(model, state: PhaseState, h: float, m1: int, m2: int) -> PhaseState:
    """Literal single-pass form of :func:`step_sv_qp`."""
    _check_step(h)
    _require_count("M1", m1)
    _require_count("M2", m2)
    q, p = state.q, state.p
    hh = 0.5 * h
    qbar = q
    for n in range(m1):
        qbar = q + hh * model.grad_p(qbar, p)
        _check_finite(qbar, f"position iterate {n + 1}")
    gq0 = model.grad_q(qbar, p)
    pn = p - hh * gq0
    for n in range(m2):
        pn = p - hh * (gq0 + model.grad_q(qbar, pn))
        _check_finite(pn, f"momentum iterate {n + 1}")
    qt = qbar + hh * model.grad_p(qbar, pn)
    _check_finite(qt, "updated position")
    return PhaseState(qt, pn)


def step_linear_implicit_em(model, state: PhaseState, h: float) -> PhaseState:
    """Linearly implicit Euler for minimally coupled H = |p - A(q)|^2 / 2.

    The momentum update solves the N x N system
    (I - h dA/dq(q))^T p~ = p - h (dA/dq(q))^T A(q), then
    q~ = q + h (p~ - A(q)).  Requires a model exposing the vector potential
    and its Jacobian.  A batch solves its K systems in one stacked solve.
    """
    _check_step(h)
    if not hasattr(model, "potential_and_jacobian"):
        raise TypeError("model does not expose a vector potential with Jacobian")
    q, p = state.q, state.p
    pot, jac = model.potential_and_jacobian(q)
    lhs = np.eye(model.dim) - h * jac.T
    rhs = p - h * transposed_product(jac, pot)
    pt = solve(lhs, rhs)
    _check_finite(pt, "updated momentum")
    qt = q + h * (pt - pot)
    _check_finite(qt, "updated position")
    return PhaseState(qt, pt)


def exact_se_quadratic(model, state: PhaseState, h: float, variant: str = "p") -> PhaseState:
    """Exactly solved symplectic Euler step for :class:`QuadraticModel`.

    The implicit relation is linear there, so one linear solve replaces the
    fixed-point sweeps; this is the M -> infinity reference map, solved
    for the side `variant` ("p" or "q"; Scheme.EXACT_QUADRATIC_P and
    EXACT_QUADRATIC_Q pass theirs).  Requires a model exposing its
    constant coupling matrix.
    """
    _check_step(h)
    if variant not in ("p", "q"):
        raise ValueError(f"variant must be 'p' or 'q', got {variant!r}")
    if not hasattr(model, "coupling"):
        raise TypeError("model does not expose a constant coupling matrix")
    coupling = model.coupling
    q, p = state.q, state.p
    eye = np.eye(state.dim)
    if variant == "p":
        pt = solve(eye + h * coupling, p - h * q)
        qt = q + h * (pt + coupling.T @ q)
    else:
        qt = solve(eye - h * coupling.T, q + h * p)
        pt = p - h * (qt + coupling @ p)
    _check_finite(pt, "updated momentum")
    _check_finite(qt, "updated position")
    return PhaseState(qt, pt)


def one_step(model, config: SchemeConfig, state: PhaseState) -> PhaseState:
    """Apply the configured scheme once."""
    return config.scheme.step(model, state, config)


@dataclass
class Trajectory:
    """Sampled orbit: states are rows (q_1..q_N, p_1..p_N)."""

    step_indices: np.ndarray
    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    config: SchemeConfig

    @property
    def dim(self) -> int:
        return self.states.shape[1] // 2


def orbit(model, config: SchemeConfig, state: PhaseState, steps: int, stride: int = 1):
    """Yield (k, z_k) at step 0, at every `stride`-th step and at the final step.

    A failed step raises IntegrationError carrying its index.  The caller
    validates `steps` and `stride` and may stop early by leaving its loop.
    """
    yield 0, state
    current = state
    for k in range(1, steps + 1):
        try:
            current = one_step(model, config, current)
        except (ValueError, ArithmeticError) as exc:
            raise IntegrationError(k, str(exc)) from exc
        if k % stride == 0 or k == steps:
            yield k, current


def integrate(
    model,
    config: SchemeConfig,
    state: PhaseState,
    steps: int,
    stride: int = 1,
) -> Trajectory:
    """Iterate the one-step map, sampling every `stride` steps.

    Step 0 and the final step are always sampled.  A non-finite state or a
    failed solve aborts with the offending step index.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError(f"steps must be a non-negative integer, got {steps!r}")
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    indices = []
    rows = []
    energies = []
    # a diverging orbit overflows before its iterate check turns the inf
    # into IntegrationError; one guard per run keeps numpy quiet meanwhile
    with np.errstate(over="ignore", invalid="ignore"):
        for k, current in orbit(model, config, state, steps, stride):
            indices.append(k)
            rows.append(current.to_vector().astype(float))
            energies.append(model.energy(current))
    idx = np.array(indices, dtype=int)
    return Trajectory(
        step_indices=idx,
        times=config.h * idx,
        states=np.array(rows),
        energies=np.array(energies),
        config=config,
    )
