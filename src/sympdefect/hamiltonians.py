"""Hamiltonian models: separable test systems and a guiding-field tokamak.

The tokamak model describes a charged particle in a static magnetic field
with helical field lines around a circular magnetic axis of radius R.  In
Cartesian coordinates the vector potential is

    A_x = -B0 F(r) y / rho^2,   A_y = B0 F(r) x / rho^2,
    A_z = -B0 R log(rho / R),

with rho^2 = x^2 + y^2 the squared distance from the torus axis, r the
distance from the magnetic axis circle, and F(r) the antiderivative of the
field profile f(r) = r (1 + r^2) / (R (1 + a r)).  After nondimensionalizing
with the gyration scales (L0, T0, P0) the Hamiltonian is the minimally
coupled kinetic energy H = |p - A(q)|^2 / 2.

All model callables accept float or complex arrays, so flows built on them
can be differentiated by complex-step forward mode unchanged.  Gradients
and the tokamak potential also take batches (N, K) with a trailing batch
axis, so one step, and one forward-mode pass, covers K states; `value` and
`energy` take single states only.  The tokamak potential is one body for
both dtypes: it picks real or complex primitives once per call and
otherwise runs the same operations, once per column of a batch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import CustomPrimitive, jacobian
from .linalg import _check_square, real_product, transposed_product
from .state import NonFiniteIterateError, PhaseState

# Positions closer to the torus axis than this fraction of R are rejected
# because the potential has a genuine singularity at rho = 0.
AXIS_TOLERANCE = 1e-9

# cmath.log's real part is not math.log's near 1 (CPython switches to a
# log1p form there), and log(rho / R) lives near 1; this primitive keeps the
# complex pass on the float step's arithmetic
_LOG = CustomPrimitive(evaluate=math.log, derivative=lambda x: 1.0 / x, name="log")


class AxisSingularityError(ValueError):
    """Evaluation requested on (or numerically at) the torus axis rho = 0."""


@dataclass(frozen=True)
class PhysicalParams:
    """Tokamak field and particle constants in SI units."""

    R: float = 5.0  # major radius [m]
    a: float = 1.0  # safety-factor shaping coefficient [1/m]
    B0: float = 0.02  # field strength [T]
    mass: float = 1.673e-27  # particle mass [kg]
    charge: float = 1.602e-19  # particle charge [C]

    def __post_init__(self) -> None:
        for name in ("R", "a", "B0", "mass", "charge"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class CharacteristicScales:
    """Gyration-based scales used to nondimensionalize states and fields.

    L0 is one circumference of the magnetic axis, T0 the inverse gyration
    frequency, P0 = mass * L0 / T0 the momentum scale; A0 = P0 / charge
    (= L0 B0) makes the scaled potential charge-free and H0 = P0^2 / mass
    is the energy scale.
    """

    L0: float
    T0: float
    P0: float
    A0: float
    H0: float

    @classmethod
    def from_params(cls, params: PhysicalParams) -> "CharacteristicScales":
        length = 2.0 * math.pi * params.R
        time = params.mass / (params.charge * params.B0)
        momentum = params.mass * length / time
        return cls(
            L0=length,
            T0=time,
            P0=momentum,
            A0=momentum / params.charge,
            H0=momentum**2 / params.mass,
        )

    def nondimensionalize(self, state: PhaseState) -> PhaseState:
        """SI state -> dimensionless state."""
        return PhaseState(state.q / self.L0, state.p / self.P0)

    def dimensionalize(self, state: PhaseState) -> PhaseState:
        """Dimensionless state -> SI state."""
        return PhaseState(state.q * self.L0, state.p * self.P0)


def safety_factor(r, params: PhysicalParams):
    """Field-line pitch profile q(r) = (1 + a r) / (1 + r^2)."""
    return (1.0 + params.a * r) / (1.0 + r * r)


def field_profile(r, params: PhysicalParams):
    """f(r) = r / (R q(r)), the radial profile under the flux integral."""
    return r * (1.0 + r * r) / (params.R * (1.0 + params.a * r))


def F_integral(r: float, params: PhysicalParams) -> float:
    """F(r) = integral of f from 0 to r, in closed form.

    r is in the same length unit as params.R (meters).  With x = a r,
    g = x - log1p(x) and h4 = g - x^2/2 + x^3/3, the antiderivative is
    a^4 R F = a^2 g + h4.  Both g and h4 cancel at small x, so where
    |u| <= 1/2, u = x / (2 + x), they are expanded through
    log1p(x) = 2 atanh(u) into g / x^2 and h4 / x^4, which are free of
    cancellation, and R F = r^2 (g / x^2 + r^2 h4 / x^4) holds for any a,
    a = 0 included.  For x > 2 the direct form is accurate to a few ulp.
    """
    r = float(r)
    if not math.isfinite(r) or r < 0:
        raise ValueError(f"radius must be finite and non-negative, got {r}")
    a = params.a
    x = a * r
    if 1.0 + x <= 0:
        raise ValueError("field profile has a pole inside the integration range")
    w = 1.0 / (2.0 + x)
    u = x * w
    if -0.5 <= u <= 0.5:
        # s5 = sum_k u^(2k) / (2k + 5), the atanh series past its u^3 term
        u2 = u * u
        s5, power, k = 0.2, 1.0, 5.0
        while True:
            power *= u2
            k += 2.0
            s5_next = s5 + power / k
            if s5_next == s5:
                break
            s5 = s5_next
        w2 = w * w
        tail = 2.0 * x * w2 * w
        g_over_x2 = w - tail * (1.0 / 3.0 + u2 * s5)
        h4_over_x4 = w * (6.0 - 3.0 * u + u2) / 12.0 - tail * w2 * s5
        r2 = r * r
        return r2 * (g_over_x2 + r2 * h4_over_x4) / params.R
    a2 = a * a
    total = (1.0 + a2) * (x - math.log1p(x)) + x * x * (x / 3.0 - 0.5)
    return total / (a2 * a2 * params.R)


class HamiltonianModel:
    """Smooth Hamiltonian H(q, p) with gradients and Hessian blocks.

    Subclasses set `dim` and implement value/grad_q/grad_p; the Hessian
    blocks default to the complex-step Jacobian of the stacked gradients
    and are overridden where they are constant.
    """

    dim: int

    def value(self, q: np.ndarray, p: np.ndarray):
        raise NotImplementedError

    def grad_q(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_p(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian_blocks(self, q: np.ndarray, p: np.ndarray):
        """Blocks (H_qq, H_pp, H_pq) with H_pq[r, s] = d^2 H / dp_s dq_r.

        By default the complex-step Jacobian of (grad_q, grad_p): one
        batched pass of both gradients over all 2N seed columns.
        """
        n = self.dim

        def stacked(z):
            return np.concatenate([self.grad_q(z[:n], z[n:]), self.grad_p(z[:n], z[n:])])

        z0 = np.concatenate([np.asarray(q, dtype=float), np.asarray(p, dtype=float)])
        jac = jacobian(stacked, z0)
        return jac[:n, :n], jac[n:, n:], jac[:n, n:]

    def energy(self, state: PhaseState) -> float:
        # a diverging orbit passes finite states whose energy exceeds the
        # float range; that energy is inf, with no numpy warning
        with np.errstate(over="ignore"):
            return float(self.value(state.q, state.p))


def mixed_hessian(n: int, dtype=float) -> np.ndarray:
    """Constant coupling matrix with 0 diagonal, -2 above it and +1 below."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    ones = np.ones((n, n), dtype=dtype)
    return np.tril(ones, -1) - 2 * np.triu(ones, 1)


class QuadraticModel(HamiltonianModel):
    """Quadratic Hamiltonian with a constant coupling matrix C,

        H = (|q|^2 + |p|^2) / 2 + q^T C p,

    so H_qq = H_pp = I and H_pq = C.  With C from :func:`mixed_hessian`
    (:func:`quadratic_model`) the skew part of C never vanishes, which
    makes the model a sharp probe for block-defect measurements; with
    C = 0 (:func:`harmonic_oscillator`) it is separable.
    """

    def __init__(self, coupling: np.ndarray):
        self.dim = _check_square(coupling, "coupling")
        self.coupling = coupling

    def value(self, q, p):
        return 0.5 * (q @ q + p @ p) + q @ (self.coupling @ p)

    def grad_q(self, q, p):
        return q + real_product(self.coupling, p)

    def grad_p(self, q, p):
        return p + real_product(self.coupling.T, q)

    def hessian_blocks(self, q, p):
        n = self.dim
        return np.eye(n), np.eye(n), self.coupling.copy()


class SwappedModel(HamiltonianModel):
    """The wrapped Hamiltonian in swapped coordinates (Q, P) = (-p, q).

    Composing with the inverse swap gives H'(Q, P) = H(P, -Q); p-type
    schemes applied to H' reproduce q-type schemes applied to H after
    conjugating states back.
    """

    def __init__(self, inner: HamiltonianModel):
        self.inner = inner
        self.dim = inner.dim

    def value(self, q, p):
        return self.inner.value(p, -q)

    def grad_q(self, q, p):
        return -self.inner.grad_p(p, -q)

    def grad_p(self, q, p):
        return self.inner.grad_q(p, -q)

    def hessian_blocks(self, q, p):
        qq, pp, pq = self.inner.hessian_blocks(p, -q)
        return pp, qq, -pq.T


class TokamakModel(HamiltonianModel):
    """Charged particle in the helical tokamak field, dimensionless form.

    Positions and momenta are in units of (L0, P0); the one-step maps see
    H(q, p) = |p - A(q)|^2 / 2 with A the scaled vector potential.  The
    flux integral F is a registered AD primitive whose derivative is the
    field profile f, so differentiating a flow never runs through F's
    closed form, whose branches and series loop are exact only in value.
    Float and complex positions share one potential body, so the AD
    Jacobian differentiates exactly the arithmetic of the float step; a
    position whose radius r or flux F(r) overflows raises
    NonFiniteIterateError on both.
    """

    dim = 3

    def __init__(self, params: PhysicalParams | None = None):
        self.params = params if params is not None else PhysicalParams()
        self.scales = CharacteristicScales.from_params(self.params)
        self._flux = CustomPrimitive(
            evaluate=self._flux_value,
            derivative=self._flux_slope,
            name="field-profile-integral",
        )
        # one-entry memo: fixed-point sweeps and adjacent steps revisit the
        # same position, so this halves field evaluations
        self._memo_key: bytes | tuple | None = None
        self._memo_pot: np.ndarray | None = None
        self._memo_jac: np.ndarray | None = None

    def _flux_value(self, r: float) -> float:
        return F_integral(r, self.params)

    def _flux_slope(self, r: float) -> float:
        return field_profile(r, self.params)

    def potential_and_jacobian(self, q: np.ndarray, with_jacobian: bool = True):
        """Dimensionless A(q) and optionally its Jacobian dA/dq.

        One body serves float and complex arrays: only the primitives differ
        (math.sqrt/log and F_integral for floats, cmath.sqrt and the
        registered log and flux primitives for complex steps), so both run the same
        operations in the same order, and guards compare real parts.  For a
        batch q of shape (3, K) the body runs once per column, and A has
        shape (3, K) and dA/dq shape (3, 3, K).  The arrays returned are
        read-only.  Results are memoised for one input.  A 3-vector's bytes
        fix its dtype by their length, but a batch is keyed on its shape and
        dtype as well: a float (3, 2) batch and a complex 3-vector can have
        the same bytes.
        """
        vector = q.ndim == 1
        key = q.tobytes() if vector else (q.shape, q.dtype.char, q.tobytes())
        if key == self._memo_key and (self._memo_jac is not None or not with_jacobian):
            return self._memo_pot, (self._memo_jac if with_jacobian else None)
        if q.dtype.kind == "c":
            sqrt, log, flux_of = cmath.sqrt, _LOG, self._flux
        else:
            sqrt, log, flux_of = math.sqrt, math.log, self._flux_value
        par = self.params
        b0, big_r, a = par.B0, par.R, par.a
        s = self.scales
        inv_a0 = 1.0 / s.A0
        pots, jacs = [], []
        for x, y, z in (q.tolist(),) if vector else q.T.tolist():
            x, y, z = x * s.L0, y * s.L0, z * s.L0
            u = x * x + y * y
            rho = sqrt(u)
            if rho.real <= AXIS_TOLERANCE * big_r:
                raise AxisSingularityError(
                    f"position is within {AXIS_TOLERANCE:g} R of the torus axis"
                )
            dr = rho - big_r
            r = sqrt(dr * dr + z * z)
            # a diverging orbit overflows r, or F(r), while q itself is finite;
            # any comparison with nan fails
            flux = flux_of(r) if r.real < math.inf else math.inf
            if not flux.real < math.inf:
                raise NonFiniteIterateError(f"field flux overflows at radius {r.real:g} m")
            w = flux / u
            pots.append([
                -b0 * y * w * inv_a0,
                b0 * x * w * inv_a0,
                -b0 * big_r * log(rho / big_r) * inv_a0,
            ])
            if with_jacobian:
                # g = f(r)/r stays finite on the magnetic axis circle r = 0
                g = (1.0 + r * r) / (big_r * (1.0 + a * r))
                c = (g * dr / rho - 2.0 * w) / u
                wx = x * c
                wy = y * c
                wz = g * z / u
                scale = s.L0 / s.A0
                jacs.append([
                    -b0 * y * wx * scale, -b0 * (w + y * wy) * scale, -b0 * y * wz * scale,
                    b0 * (w + x * wx) * scale, b0 * x * wy * scale, b0 * x * wz * scale,
                    -b0 * big_r * x / u * scale, -b0 * big_r * y / u * scale, 0.0,
                ])
        if vector:
            pot = np.array(pots[0])
            jac = np.array(jacs[0]).reshape(3, 3) if with_jacobian else None
        else:
            pot = np.array(pots).T
            jac = np.array(jacs).reshape(-1, 3, 3).transpose(1, 2, 0) if with_jacobian else None
        pot.setflags(write=False)
        if jac is not None:
            jac.setflags(write=False)
        self._memo_key, self._memo_pot, self._memo_jac = key, pot, jac
        return pot, jac

    def vector_potential(self, q: np.ndarray) -> np.ndarray:
        return self.potential_and_jacobian(q, with_jacobian=False)[0]

    def value(self, q, p):
        d = p - self.vector_potential(q)
        return 0.5 * (d @ d)

    def grad_q(self, q, p):
        pot, jac = self.potential_and_jacobian(q)
        d = p - pot
        return -transposed_product(jac, d)

    def grad_p(self, q, p):
        return p - self.vector_potential(q)


def harmonic_oscillator() -> QuadraticModel:
    """H = (q^2 + p^2) / 2 in one degree of freedom: zero coupling."""
    return QuadraticModel(np.zeros((1, 1)))


def quadratic_model(n: int) -> QuadraticModel:
    return QuadraticModel(mixed_hessian(n))


def tokamak_model(params: PhysicalParams | None = None) -> TokamakModel:
    return TokamakModel(params)


def reference_initial_state_si() -> PhaseState:
    """Bundled SI initial condition: a passing particle near the axis circle."""
    return PhaseState(
        np.array([5.1, 0.0, 0.1]),
        np.array([1e-23, 1e-23, 1e-21]),
    )


def reference_initial_state(model: TokamakModel) -> PhaseState:
    """The bundled initial condition in the model's dimensionless units."""
    return model.scales.nondimensionalize(reference_initial_state_si())
