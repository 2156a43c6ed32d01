"""One-step maps built on truncated fixed-point iteration.

The implicit half of a symplectic Euler step is replaced by exactly M
fixed-point sweeps, always initialized at the explicit input value and never
stopped early: the truncated map itself is the object under study, so an
adaptive exit would change the flow being measured.  Two-sided compositions
of half steps give the Stoermer-Verlet variants; the literal single-pass
forms are kept alongside as references.  Each `Scheme` member declares
its sweep counts, implicit side and step once; other modules read them.
Every step also takes a batch of states (q and p of shape (N, K)) and
steps each column as it would step that state alone, with a float step
size h or one per column, h of shape (K,).  A model with a scalar kernel
`float_step` (the tokamak) steps real float64 states there, a batch column
by column, and complex q-implicit and em steps through `linearized_step`,
once per group of columns with equal real parts and step size; complex
p-implicit steps and the other models run the numpy code here.
A single state comes back holding the kernel's float tuples (`PhaseState`), which the
next step passes on: an orbit builds arrays only where it reads q or p, at its samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

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
    `step(model, state, config, h)` steps with the counts of `config` and
    step size h, a float or one per batch column (`one_step` passes
    config.h).  It looks its step function up by name at call time, so a
    patched module attribute (a tracer) takes effect.
    """

    P_IMPLICIT = "p-implicit", ("M",), "p", lambda f, z, c, h: step_p_implicit(f, z, h, c.M)
    Q_IMPLICIT = "q-implicit", ("M",), "q", lambda f, z, c, h: step_q_implicit(f, z, h, c.M)
    SV_PQ = "sv-pq", ("M1", "M2"), "q", lambda f, z, c, h: step_sv_pq(f, z, h, c.M1, c.M2)
    SV_QP = "sv-qp", ("M1", "M2"), "p", lambda f, z, c, h: step_sv_qp(f, z, h, c.M1, c.M2)
    LINEAR_IMPLICIT_EM = (
        "linear-implicit-em", (), "p", lambda f, z, c, h: step_linear_implicit_em(f, z, h)
    )
    EXACT_QUADRATIC_P = (
        "exact-quadratic-p", (), "p", lambda f, z, c, h: exact_se_quadratic(f, z, h, "p")
    )
    EXACT_QUADRATIC_Q = (
        "exact-quadratic-q", (), "q", lambda f, z, c, h: exact_se_quadratic(f, z, h, "q")
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


def _require_count(name: str, value) -> int:
    """`value` as an int, if it is an integer >= 1 (not a bool); ValueError otherwise."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _check_step(h) -> None:
    """h is a float, or a (K,) array with one step size per batch column."""
    ok = (np.isfinite(h) & (h >= 0)).all() if isinstance(h, np.ndarray) else math.isfinite(h) and h >= 0
    if not ok:
        raise ValueError(f"step size must be non-negative and finite, got {h}")


def _check_finite(vec: np.ndarray, label: str) -> None:
    if not np.isfinite(vec).all():
        raise NonFiniteIterateError(f"non-finite {label}")


@lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(n), (n, n))  # a read-only view


def momentum_iterates(model, state: PhaseState, h: float, m: int) -> list[np.ndarray]:
    """All momentum sweeps p_0..p_M of the p-implicit half at (q, p)."""
    return _sweeps(lambda pn: state.p - h * model.grad_q(state.q, pn), state.p, h, m, "momentum")


def position_iterates(model, state: PhaseState, h: float, m: int) -> list[np.ndarray]:
    """All position sweeps q_0..q_M of the q-implicit half at (q, p)."""
    return _sweeps(lambda qn: state.q + h * model.grad_p(qn, state.p), state.q, h, m, "position")


def _sweeps(update, start: np.ndarray, h, m: int, name: str) -> list[np.ndarray]:
    """start and the M fixed-point sweeps x_{n+1} = update(x_n), each checked."""
    _check_step(h)
    _require_count("M", m)
    iterates = [start]
    for n in range(1, m + 1):
        iterates.append(update(iterates[-1]))
        _check_finite(iterates[-1], f"{name} iterate {n}")
    return iterates


def _float_step(model, state: PhaseState, h, side: str, m: int | None = None) -> PhaseState | None:
    """`model.float_step` on a real float64 state or a float-held one's tuples, a batch column by
    column, and `_tangent_step` on a complex one of side "q" or "em"; None where the model has no
    kernel.  A complex p-implicit step stays on the numpy route: its field is fixed in q, so a
    pass evaluates it once, and its sweeps are a few batched products.  h and m get the full
    checks only if a type test fails."""
    floats = state.floats
    if floats is None:
        kinds = state.q.dtype.char + state.p.dtype.char
        if kinds != "dd" and (kinds != "DD" or side == "p"):
            return None
    if getattr(model, "float_step", None) is None:
        return None
    if not (type(h) is float and 0.0 <= h < math.inf):
        _check_step(h)
    if not (m is None or type(m) is int and m >= 1):
        _require_count("M", m)
    # the kernel returns tuples of Python floats, so its states take the float form unchecked
    # (float_form, passed by position: as a keyword it costs each drift step about 0.1 µs)
    if floats is not None:
        return PhaseState(*model.float_step(side, *floats, h, m), True)
    if kinds == "DD":
        return _tangent_step(model, state.to_vector(), h, side, m)
    q, p = state.q, state.p
    if q.ndim == 1:
        return PhaseState(*model.float_step(side, q.tolist(), p.tolist(), h, m), True)
    hs = h.tolist() if isinstance(h, np.ndarray) else [h] * q.shape[1]
    steps = [model.float_step(side, *column, m) for column in zip(q.T.tolist(), p.T.tolist(), hs)]
    return PhaseState.from_vector(np.array(steps).reshape(-1, 2 * q.shape[0]).T)


def _tangent_step(model, z: np.ndarray, h, side: str, m: int | None) -> PhaseState | None:
    """A complex-step state z, (2N,) or (2N, K), stepped by `model.linearized_step`: real parts
    are its values, imaginary parts its Jacobian times theirs.  Columns with equal real parts
    and step size, compared by value (0.0 and -0.0 are equal), are a group, stepped once (an
    `analyze` pass is one group, a grid pass one per h).  Where a step fails, or gives a
    non-finite value or derivative, this returns None: the numpy route then steps the batch
    and raises its error."""
    batch = z if z.ndim == 2 else z[:, None]
    n, k = batch.shape[0] // 2, batch.shape[1]
    keyed = batch.real.T
    if isinstance(h, np.ndarray):
        keyed = np.column_stack((keyed, h))
    raw, width = keyed.tobytes(), 8 * keyed.shape[1]
    if raw == raw[:width] * k:  # one group
        index, rows = [0] * k, [keyed[0].tolist()]
    else:
        groups: dict[tuple, int] = {}
        index = [groups.setdefault(tuple(row), len(groups)) for row in keyed.tolist()]
        rows = list(groups)
    stepped, jacobians = [], []
    try:
        for row in rows:  # (q, p), then h if it is one per column
            step = row[2 * n] if len(row) > 2 * n else h
            qt, pt, jac = model.linearized_step(side, row[:n], row[n:2 * n], step, m)
            stepped.append(qt + pt)
            jacobians.append(jac)
    except (ValueError, ArithmeticError):
        return None
    out = np.empty((k, 2 * n), dtype=complex)
    out.real = stepped[0] if len(stepped) == 1 else np.array(stepped).take(index, axis=0)
    # one (2N, 2N) @ (2N, 1) product per column, the same whatever the batch around it
    jacobians = np.array(jacobians).reshape(-1, 2 * n, 2 * n).take(index, axis=0)
    out.imag = (jacobians @ np.ascontiguousarray(batch.imag.T)[:, :, None])[:, :, 0]
    return PhaseState.from_vector(out.T if z.ndim == 2 else out[0])


def step_p_implicit(model, state: PhaseState, h: float, m: int) -> PhaseState:
    """Symplectic Euler with implicit momentum, M fixed-point sweeps."""
    if (out := _float_step(model, state, h, "p", m)) is not None:
        return out
    pn = momentum_iterates(model, state, h, m)[-1]
    qt = state.q + h * model.grad_p(state.q, pn)
    _check_finite(qt, "updated position")
    return PhaseState(qt, pn)


def step_q_implicit(model, state: PhaseState, h: float, m: int) -> PhaseState:
    """Symplectic Euler with implicit position, M fixed-point sweeps."""
    if (out := _float_step(model, state, h, "q", m)) is not None:
        return out
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
    pbar = momentum_iterates(model, state, hh, m1)[-1]
    gp0 = model.grad_p(q, pbar)
    qn = _sweeps(lambda qk: q + hh * (gp0 + model.grad_p(qk, pbar)), q + hh * gp0, hh, m2, "position")[-1]
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
    qbar = position_iterates(model, state, hh, m1)[-1]
    gq0 = model.grad_q(qbar, p)
    pn = _sweeps(lambda pk: p - hh * (gq0 + model.grad_q(qbar, pk)), p - hh * gq0, hh, m2, "momentum")[-1]
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
    if (out := _float_step(model, state, h, "em")) is not None:
        return out
    _check_step(h)
    if not hasattr(model, "potential_and_jacobian"):
        raise TypeError("model does not expose a vector potential with Jacobian")
    q, p = state.q, state.p
    pot, jac = model.potential_and_jacobian(q)
    lhs = _identity(model.dim) - (h * jac).T
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
    eye = _identity(state.dim)
    if variant == "p":
        pt = solve(eye + np.multiply.outer(h, coupling), p - h * q)
        qt = q + h * (pt + coupling.T @ q)
    else:
        qt = solve(eye - np.multiply.outer(h, coupling.T), q + h * p)
        pt = p - h * (qt + coupling @ p)
    _check_finite(pt, "updated momentum")
    _check_finite(qt, "updated position")
    return PhaseState(qt, pt)


def one_step(model, config: SchemeConfig, state: PhaseState) -> PhaseState:
    """Apply the configured scheme once."""
    return config.scheme.step(model, state, config, config.h)


@dataclass
class Trajectory:
    """Sampled orbit: states are rows (q_1..q_N, p_1..p_N)."""

    step_indices: np.ndarray
    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    config: SchemeConfig


def orbit(model, config: SchemeConfig, state: PhaseState, steps: int, stride: int = 1):
    """Yield (k, z_k, H(z_k)) at step 0, at every `stride`-th step and at the final step.

    A failed step, or a failing energy at a sampled step k > 0, raises
    IntegrationError carrying its index.  The caller validates `steps` and
    `stride` and may stop early by leaving its loop.
    """
    yield 0, state, model.energy(state)
    current = state
    for k in range(1, steps + 1):
        try:
            current = one_step(model, config, current)
            if k % stride and k != steps:
                continue
            energy = model.energy(current)
        except (ValueError, ArithmeticError) as exc:
            raise IntegrationError(k, str(exc)) from exc
        yield k, current, energy


def integrate(
    model,
    config: SchemeConfig,
    state: PhaseState,
    steps: int,
    stride: int = 1,
) -> Trajectory:
    """Iterate the one-step map, sampling every `stride` steps.

    Step 0 and the final step are always sampled.  A non-finite state, a
    failed solve or a failing sampled energy aborts with its step index.
    """
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 0:
        raise ValueError(f"steps must be a non-negative integer, got {steps!r}")
    _require_count("stride", stride)
    indices = []
    rows = []
    energies = []
    # a diverging orbit overflows before its iterate check turns the inf
    # into IntegrationError; one guard per run keeps numpy quiet meanwhile
    with np.errstate(over="ignore", invalid="ignore"):
        for k, current, energy in orbit(model, config, state, steps, stride):
            indices.append(k)
            rows.append(current.to_vector().astype(float, copy=False))
            energies.append(energy)
    idx = np.array(indices, dtype=int)
    return Trajectory(
        step_indices=idx,
        times=config.h * idx,
        states=np.array(rows),
        energies=np.array(energies),
        config=config,
    )
