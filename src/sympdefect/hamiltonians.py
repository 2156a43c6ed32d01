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
`energy` take single states only.  The tokamak potential has one float
body, which returns A, dA/dq and, on request, the Hessians of A.  A
complex step runs it on the real part, through one cache keyed on position
value (0.0 and -0.0 are one position), so once per distinct position of a
pass, and takes its tangents from those derivatives (tangent-linear mode
with the whole potential as one elemental function).  Real float states
step on Python floats (`TokamakModel.float_step`) through a one-entry memo,
which a float-held state's energy reads too.  `TokamakModel.linearized_step`
runs that step's own arithmetic, every side, through the position cache and
carries its Jacobian beside it on 3 x 3 blocks of Python floats (the whole
step as one elemental function): the tokamak's flow Jacobians come from it
(`defect.flow_jacobians`), and complex steps, the cross-check and the
fallback where it fails, take the numpy route."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import jacobian
from .linalg import _check_square, _require_finite, real_product, solve3, transposed_product
from .state import NonFiniteIterateError, PhaseState

# Positions closer to the torus axis than this fraction of R are rejected
# because the potential has a genuine singularity at rho = 0.
AXIS_TOLERANCE = 1e-9

# Positions the pass cache (`linearized_step`, complex steps) holds before it is emptied: one
# state's default-grid traffic reads 31 for q-implicit M=1..3, 81 for every scheme; 151 at 50 h.
PASS_POSITIONS = 128


class AxisSingularityError(ValueError):
    """Evaluation requested on (or numerically at) the torus axis rho = 0."""


def _finite(values: tuple, label: str, n: int = 0) -> tuple:
    """`values`, unless an entry is non-finite (a finite sum proves them finite)."""
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise NonFiniteIterateError(f"non-finite {label} {n}" if n else f"non-finite {label}")
    return values


def _plus_jt(c: tuple, h: float, field: list, dx: float, dy: float, dz: float) -> tuple:
    """c + h J^T d, J = dA/dq from a `_field` list, summed as J[0][k] d_0 + J[1][k] d_1 + J[2][k] d_2."""
    return (c[0] + h * (field[3] * dx + field[6] * dy + field[9] * dz),
            c[1] + h * (field[4] * dx + field[7] * dy + field[10] * dz),
            c[2] + h * (field[5] * dx + field[8] * dy + field[11] * dz))


def _em_matrix(field: list, h: float) -> list:
    """I - h J^T as 3 rows, J = dA/dq from a `_field` list: linear-implicit-em's system matrix."""
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = field[3:12]
    return [[1.0 - h * j00, -h * j10, -h * j20], [-h * j01, 1.0 - h * j11, -h * j21],
            [-h * j02, -h * j12, 1.0 - h * j22]]


def _finite_step(q: tuple, p: tuple, qq: tuple, qp: tuple, pq: tuple, pp: tuple) -> tuple:
    """(q, p, D) of a linearized step, D = [[qq, qp], [pq, pp]] from four 3 x 3 blocks as one
    row-major 36-tuple; NonFiniteIterateError if an entry is not finite."""
    jac = (qq[0:3] + qp[0:3] + qq[3:6] + qp[3:6] + qq[6:9] + qp[6:9]
           + pq[0:3] + pp[0:3] + pq[3:6] + pp[3:6] + pq[6:9] + pp[6:9])
    if not math.isfinite(sum(q) + sum(p) + sum(jac)):
        _finite(q + p + jac, "linearized step")
    return q, p, jac


def _plus_diag(a: tuple, s: float) -> tuple:
    """a + s I for a 3 x 3 matrix as a row-major 9-tuple."""
    return (a[0] + s, a[1], a[2], a[3], a[4] + s, a[5], a[6], a[7], a[8] + s)


def _scaled(a, s: float) -> tuple:
    """s a for a 3 x 3 matrix as 9 row-major entries."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    return (s * a00, s * a01, s * a02, s * a10, s * a11, s * a12, s * a20, s * a21, s * a22)


def _muladd(a: tuple, b: tuple, c: tuple = (0.0,) * 9) -> tuple:
    """c + a b for 3 x 3 matrices as row-major 9-tuples."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = b
    return (c[0] + (a00 * b00 + a01 * b10 + a02 * b20), c[1] + (a00 * b01 + a01 * b11 + a02 * b21),
            c[2] + (a00 * b02 + a01 * b12 + a02 * b22), c[3] + (a10 * b00 + a11 * b10 + a12 * b20),
            c[4] + (a10 * b01 + a11 * b11 + a12 * b21), c[5] + (a10 * b02 + a11 * b12 + a12 * b22),
            c[6] + (a20 * b00 + a21 * b10 + a22 * b20), c[7] + (a20 * b01 + a21 * b11 + a22 * b21),
            c[8] + (a20 * b02 + a21 * b12 + a22 * b22))


def _kick_matrices(field: list, h: float, d0: float, d1: float, d2: float) -> tuple:
    """The derivative of `_plus_jt`'s c + h J^T (x - A(q)) at d = x - A is dc + P dx + Q dq,
    with P = h J^T and Q = h (G - J^T J), G = sum_i d_i d^2 A_i / dq^2: (P, Q) as row-major
    9-tuples, from a `_field(..., 2)` list."""
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = field[3:12]
    a, b, c = field[12:21], field[21:30], field[30:39]  # d^2 A_0, d^2 A_1, d^2 A_2 row-major
    q00 = h * (d0 * a[0] + d1 * b[0] + d2 * c[0] - (j00 * j00 + j10 * j10 + j20 * j20))
    q01 = h * (d0 * a[1] + d1 * b[1] + d2 * c[1] - (j00 * j01 + j10 * j11 + j20 * j21))
    q02 = h * (d0 * a[2] + d1 * b[2] + d2 * c[2] - (j00 * j02 + j10 * j12 + j20 * j22))
    q11 = h * (d0 * a[4] + d1 * b[4] + d2 * c[4] - (j01 * j01 + j11 * j11 + j21 * j21))
    q12 = h * (d0 * a[5] + d1 * b[5] + d2 * c[5] - (j01 * j02 + j11 * j12 + j21 * j22))
    q22 = h * (d0 * a[8] + d1 * b[8] + d2 * c[8] - (j02 * j02 + j12 * j12 + j22 * j22))
    return ((h * j00, h * j10, h * j20, h * j01, h * j11, h * j21, h * j02, h * j12, h * j22),
            (q00, q01, q02, q01, q11, q12, q02, q12, q22))


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


def field_profile(r, params: PhysicalParams):
    """f(r) = r / (R q(r)), the radial profile under the flux integral, with
    the safety factor q(r) = (1 + a r) / (1 + r^2)."""
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
        """H(z) by `value` on the state's arrays; inf, with no numpy warning, past the float
        range (a diverging orbit passes such finite states)."""
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
    C = 0 (:func:`harmonic_oscillator`) it is separable.  A sweep step is
    linear here, its own Jacobian on the unit columns (`defect.flow_jacobians`).
    """

    def __init__(self, coupling: np.ndarray):
        """Keeps C as a read-only float64 copy; ValueError if C is not square or not finite."""
        coupling = np.array(coupling, dtype=float)
        self.dim = _check_square(coupling, "coupling")
        _require_finite(coupling)
        coupling.setflags(write=False)
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
    derivatives of A are closed forms in F, its derivative f and f', so
    differentiating a flow never runs through F's closed form, whose
    branches and series loop are exact only in value.  Complex steps take
    their values from the float body that `float_step` runs too, and
    `linearized_step` runs `float_step`'s arithmetic itself; a position
    whose radius r or flux F(r) overflows raises NonFiniteIterateError on
    all three.  The Hessian blocks are closed forms from the same derivatives.
    """

    dim = 3

    def __init__(self, params: PhysicalParams | None = None):
        self.params = params if params is not None else PhysicalParams()
        self.scales = CharacteristicScales.from_params(self.params)
        par, s = self.params, self.scales
        # the float body's constants: B0, R, a, L0, 1 / A0 and L0 / A0
        self._constants = (par.B0, par.R, par.a, s.L0, 1.0 / s.A0, s.L0 / s.A0)
        # the float kernel's memo (position, `_field` list) holds one entry: sweeps, adjacent
        # steps and sampled energies revisit only the last position
        self._memo: tuple = (None, None)
        self._arrays: tuple = (None, None, None)  # `potential_and_jacobian`'s last (key, A, dA/dq)
        self._passes: dict[tuple, list] = {}  # the pass cache: position -> `_field` list

    def _field(self, x: float, y: float, z: float, order: int) -> list[float]:
        """A and its derivatives up to `order` (0, 1 or 2) at one dimensionless
        position, in floats, as one flat list: A_i (3 entries), then
        dA_i/dq_j row-major (9), then d^2 A_i / dq_j dq_l in [i, j, l] order (27).
        """
        par = self.params
        b0, big_r, a, length, inv_a0, scale = self._constants
        x, y, z = x * length, y * length, z * length
        u = x * x + y * y
        rho = math.sqrt(u)
        if rho <= AXIS_TOLERANCE * big_r:
            raise AxisSingularityError(
                f"position is within {AXIS_TOLERANCE:g} R of the torus axis"
            )
        dr = rho - big_r
        r = math.sqrt(dr * dr + z * z)
        # a diverging orbit overflows r, or F(r), while q itself is finite;
        # any comparison with nan fails
        flux = F_integral(r, par) if r < math.inf else math.inf
        if not flux < math.inf:
            raise NonFiniteIterateError(f"field flux overflows at radius {r:g} m")
        w = flux / u
        out = [
            -b0 * y * w * inv_a0,
            b0 * x * w * inv_a0,
            -b0 * big_r * math.log(rho / big_r) * inv_a0,
        ]
        if order == 0:
            return out
        # g = f(r)/r stays finite on the magnetic axis circle r = 0
        g = (1.0 + r * r) / (big_r * (1.0 + a * r))
        c = (g * dr / rho - 2.0 * w) / u
        wx = x * c
        wy = y * c
        wz = g * z / u
        out += [
            -b0 * y * wx * scale, -b0 * (w + y * wy) * scale, -b0 * y * wz * scale,
            b0 * (w + x * wx) * scale, b0 * x * wy * scale, b0 * x * wz * scale,
            -b0 * big_r * x / u * scale, -b0 * big_r * y / u * scale, 0.0,
        ]
        if order == 1:
            return out
        # second derivatives of w = F/u: w_xx = c + x^2 e, w_xy = x y e,
        # w_jz = q_j c_z, with g' = dg/dr; dr/r and z/r are bounded and
        # always multiplied by dr or z, so on r = 0 they count as 0
        ar = 1.0 + a * r
        g1 = (2.0 * r + a * r * r - a) / (big_r * ar * ar)
        dr_r, z_r = (dr / r, z / r) if r > 0.0 else (0.0, 0.0)
        e = (g1 * dr * dr_r / u + g * big_r / (rho * u) - 4.0 * c) / u
        cz = (g1 * dr * z_r / rho - 2.0 * g * z / u) / u
        wxx, wxy, wyy = c + x * x * e, x * y * e, c + y * y * e
        wxz, wyz, wzz = x * cz, y * cz, (g + g1 * z * z_r) / u
        hx = -b0 * scale * length
        hy = -hx
        hz = b0 * big_r / (u * u) * scale * length
        axy, ayy = hx * (wx + y * wxy), hx * (2.0 * wy + y * wyy)
        axz, ayz = hx * y * wxz, hx * (wz + y * wyz)
        bxx, bxy = hy * (2.0 * wx + x * wxx), hy * (wy + x * wxy)
        bxz, byz = hy * (wz + x * wxz), hy * x * wyz
        zxx, zxy = hz * (x * x - y * y), hz * 2.0 * x * y
        out += [
            hx * y * wxx, axy, axz, axy, ayy, ayz, axz, ayz, hx * y * wzz,
            bxx, bxy, bxz, bxy, hy * x * wyy, byz, bxz, byz, hy * x * wzz,
            zxx, zxy, 0.0, zxy, -zxx, 0.0, 0.0, 0.0, 0.0,
        ]
        return out

    def _field_at(self, q: tuple, order: int) -> list[float]:
        """`_field` at a real position given as a 3-tuple, through the float kernel's memo."""
        key, field = self._memo
        # an entry of order 0, 1 or 2 has 3, 12 or 39 entries
        if q != key or order and len(field) <= 9 * order:
            field = self._field(*q, order)
            self._memo = q, field
        return field

    def _pass_field(self, q: tuple, order: int) -> list[float]:
        """`_field` at a position q (a 3-tuple) of `linearized_step` or a complex-step pass, through
        the pass cache: each entry holds the highest order asked there; emptied at PASS_POSITIONS."""
        field = self._passes.get(q)
        if field is None or len(field) <= 9 * order:
            if len(self._passes) >= PASS_POSITIONS:
                self._passes.clear()
            field = self._passes[q] = self._field(*q, order)
        return field

    def potential_and_jacobian(self, q: np.ndarray, with_jacobian: bool = True):
        """Dimensionless A(q) and optionally its Jacobian dA/dq.

        Float positions run the float body `_field` once per column, a real
        3-vector through the float kernel's memo.  A complex position x + i t
        is a complex step: its real part runs the float body, through the
        pass cache (once per distinct position of a complex-step pass), and
        the tangents are the exact first-order products dA/dq t and
        (d^2 A/dq^2) t, each summed in one fixed order per column.  Real
        parts are therefore bitwise the float body's.  For a batch q of
        shape (3, K), A has shape (3, K) and dA/dq shape (3, 3, K).  The
        arrays returned are read-only.  The last input's arrays are kept:
        a real 3-vector keyed on its values (0.0 and -0.0 are one position),
        any other input on its shape, dtype and bytes (a float (3, 2) batch
        and a complex 3-vector can have the same bytes).
        """
        real = q.dtype.kind != "c"
        key = tuple(q.tolist()) if real and q.ndim == 1 else (q.shape, q.dtype.char, q.tobytes())
        last, pot, jac = self._arrays
        if key == last and (jac is not None or not with_jacobian):
            return pot, (jac if with_jacobian else None)
        order = 1 if with_jacobian else 0
        # rows: A, then dA/dq row-major; one column per batch column
        if not real:
            out = self._complex_step(q.reshape(3, -1), order).reshape(-1, *q.shape[1:])
        elif q.ndim == 1:
            out = np.array(self._field_at(key, order)[:3 + 9 * order])
        else:
            out = np.array(list(map(self._field, *q.tolist(), [order] * q.shape[1]))).T
        out.setflags(write=False)
        pot, jac = out[:3], (out[3:].reshape(3, 3, *out.shape[1:]) if order else None)
        self._arrays = key, pot, jac
        return pot, (jac if with_jacobian else None)

    def _complex_step(self, q: np.ndarray, order: int) -> np.ndarray:
        """The rows of `_field(order)` for a complex (3, K) batch: values from
        the float body, read from the pass cache once per column (once for a
        one-state pass, whose columns have equal real bytes), and tangents as
        first-order products summed in one fixed order per column."""
        real = q.real.T
        raw, columns = real.tobytes(), real.tolist()
        if raw == raw[:24] * len(columns):  # one state's pass: its row broadcasts
            columns = columns[:1]
        # entry 3 + 3 r + l of a field is the derivative of its entry r along q_l
        rows = 3 + 9 * order
        fields = np.array([self._pass_field(tuple(c), order + 1)[:3 + 3 * rows] for c in columns])
        slopes = fields[:, 3:].reshape(-1, rows, 3).T * q.imag[:, None, :]
        out = np.empty((rows, q.shape[1]), dtype=complex)
        out.real = fields[:, :rows].T
        out.imag = slopes[0] + slopes[1] + slopes[2]
        return out

    def float_step(self, side: str, q, p, h: float, m: int | None) -> tuple:
        """One step on Python floats from 3-tuples (or lists) q, p to 3-tuples (q~, p~):
        side "p" or "q" is p- or q-implicit Euler with M sweeps (a position sweep is one
        `grad_p` call on 3-tuples), "em" linear-implicit-em.  Updates and checks are the
        numpy step's, J^T d summed as in `_plus_jt` (J = dA/dq), em solved by `solve3`."""
        x, y, z = q = tuple(q)
        for n in range(1, m + 1 if side == "q" else 1):
            gx, gy, gz = self.grad_p(q, p)
            q = (x + h * gx, y + h * gy, z + h * gz)
            if not math.isfinite(q[0] + q[1] + q[2]):
                _finite(q, "position iterate", n)
        field = self._field_at(q, 1)
        ax, ay, az = field[0], field[1], field[2]
        if side == "q":
            return q, _finite(_plus_jt(p, h, field, p[0] - ax, p[1] - ay, p[2] - az), "updated momentum")
        pn = p
        for n in range(1, m + 1 if side == "p" else 1):
            pn = _plus_jt(p, h, field, pn[0] - ax, pn[1] - ay, pn[2] - az)
            if not math.isfinite(pn[0] + pn[1] + pn[2]):
                _finite(pn, "momentum iterate", n)
        if side == "em":  # the rhs is p - h J^T A
            (pn,) = solve3(_em_matrix(field, h), _plus_jt(p, h, field, -ax, -ay, -az))
            _finite(pn, "updated momentum")
        q = (x + h * (pn[0] - ax), y + h * (pn[1] - ay), z + h * (pn[2] - az))
        return _finite(q, "updated position"), pn

    def linearized_step(self, side: str, q, p, h: float, m: int | None) -> tuple:
        """`float_step` and its Jacobian: (q~, p~, D) with (q~, p~) by the float step's own
        arithmetic, bitwise, and D = d(q~, p~)/d(q, p) as a row-major 36-tuple, the chain
        rule of that arithmetic carried on 3 x 3 blocks from iterate to iterate (tangent-linear
        mode, with the whole step as one elemental function).  Later q-side position sweeps
        read `_field(..., 1)`, every other position `_field(..., 2)`; em solves for its value
        and for the inverse of its system matrix with one `solve3` elimination.  Iterates are
        not checked: a non-finite value or derivative reaches an output, which raises
        NonFiniteIterateError without naming it."""
        x, y, z = q = tuple(q)
        if side == "q":  # (dq_n/dq, dq_n/dp) = (I, h I) - h J(q_{n-1}) (dq_{n-1}/dq, dq_{n-1}/dp)
            for n in range(m):
                field = self._pass_field(q, 1 if n else 2)  # the start at every side's order
                gx, gy, gz = p[0] - field[0], p[1] - field[1], p[2] - field[2]
                step = _scaled(field[3:12], -h)
                if n:
                    qq, qp = _plus_diag(_muladd(step, qq), 1.0), _plus_diag(_muladd(step, qp), h)
                else:  # from (I, 0)
                    qq, qp = _plus_diag(step, 1.0), _plus_diag((0.0,) * 9, h)
                q = (x + h * gx, y + h * gy, z + h * gz)
            field = self._pass_field(q, 2)
            d0, d1, d2 = p[0] - field[0], p[1] - field[1], p[2] - field[2]
            jt, coupling = _kick_matrices(field, h, d0, d1, d2)
            pq, pp = _muladd(coupling, qq), _plus_diag(_muladd(coupling, qp, jt), 1.0)
            return _finite_step(q, _plus_jt(p, h, field, d0, d1, d2), qq, qp, pq, pp)
        field = self._pass_field(q, 2)
        ax, ay, az = field[0], field[1], field[2]
        if side == "p":  # (dp_n/dq, dp_n/dp) = (P dp_{n-1}/dq + Q_n, I + P dp_{n-1}/dp)
            pn = p
            for n in range(m):
                d0, d1, d2 = pn[0] - ax, pn[1] - ay, pn[2] - az
                jt, coupling = _kick_matrices(field, h, d0, d1, d2)
                if n:
                    pq, pp = _muladd(jt, pq, coupling), _plus_diag(_muladd(jt, pp), 1.0)
                else:  # from (0, I)
                    pq, pp = coupling, _plus_diag(jt, 1.0)
                pn = _plus_jt(p, h, field, d0, d1, d2)
        else:  # em: the system matrix L gives p~ and (dp~/dq, dp~/dp) = L^-1 (Q, I), Q at p~ - A
            pn, *columns = solve3(_em_matrix(field, h), _plus_jt(p, h, field, -ax, -ay, -az),
                                  (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
            pp = sum(zip(*columns), ())  # L^-1, from its columns
            pq = _muladd(pp, _kick_matrices(field, h, pn[0] - ax, pn[1] - ay, pn[2] - az)[1])
        q = (x + h * (pn[0] - ax), y + h * (pn[1] - ay), z + h * (pn[2] - az))
        # (dq~/dq, dq~/dp) = (I + h (dp~/dq - J), h dp~/dp)
        qq = _plus_diag(tuple(h * (b - a) for a, b in zip(field[3:12], pq)), 1.0)
        return _finite_step(q, pn, qq, _scaled(pp, h), pq, pp)

    def vector_potential(self, q: np.ndarray) -> np.ndarray:
        return self.potential_and_jacobian(q, with_jacobian=False)[0]

    def energy(self, state: PhaseState) -> float:
        """H(z), bitwise `value`'s; a float-held state's on its floats and the memo entry its step
        left (the field order `value` reads), so the state stays float-held."""
        if state.floats is None:
            return super().energy(state)
        q, p = state.floats
        a = self._field_at(q, 1)
        d = np.array((p[0] - a[0], p[1] - a[1], p[2] - a[2]))
        with np.errstate(over="ignore"):
            return float(0.5 * (d @ d))

    def value(self, q, p):
        # the memo entry with dA/dq, which the next step's gradient here reads
        d = p - self.potential_and_jacobian(q)[0]
        return 0.5 * (d @ d)

    def grad_q(self, q, p):
        pot, jac = self.potential_and_jacobian(q)
        d = p - pot
        return -transposed_product(jac, d)

    def grad_p(self, q, p):
        """p - A(q), also as a tuple for two float 3-tuples (`float_step`'s sweeps)."""
        if type(q) is tuple:
            a = self._field_at(q, 0)
            return p[0] - a[0], p[1] - a[1], p[2] - a[2]
        return p - self.vector_potential(q)

    def hessian_blocks(self, q, p):
        """Closed-form blocks from the float body: with J = dA/dq and
        d = p - A, H_qq = J^T J - sum_k d_k d^2 A_k / dq^2, H_pp = I and
        H_pq = -J^T."""
        field = np.array(self._field(*np.asarray(q, dtype=float).tolist(), 2))
        jac = field[3:12].reshape(3, 3)
        d = np.asarray(p, dtype=float) - field[:3]
        qq = jac.T @ jac - np.tensordot(d, field[12:].reshape(3, 3, 3), axes=1)
        return qq, np.eye(3), -jac.T


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
