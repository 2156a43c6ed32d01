"""A 90-digit mpmath reference for the tokamak's truncated one-step maps.

The maps are written here from the scheme definitions, with
H = |p - A(q)|^2 / 2, not by calling the package's steps:

- p-implicit: p_n = p + h J(q)^T (p_{n-1} - A(q)) for n = 1..M from p_0 = p,
  then q~ = q + h (p_M - A(q));
- q-implicit: q_n = q + h (p - A(q_{n-1})) for n = 1..M from q_0 = q,
  then p~ = p + h J(q_M)^T (p - A(q_M));
- linear-implicit-em: (I - h J(q)^T) p~ = p - h J(q)^T A(q), then
  q~ = q + h (p~ - A(q));
- sv-pq and sv-qp: the p- then q-implicit half steps (h/2, M1 then M2), and
  the q- then p-implicit ones.

A(q) is the closed form of the field, with F(r) from its antiderivative
(`mpmath.log1p`), in the model's float constants taken exactly.  J = dA/dq
comes from central differences with step 1e-35, and the flow Jacobian D from
central differences of the map with step 1e-25: at 90 digits both are exact
far below double precision.
"""

import mpmath
import numpy as np

DIGITS = 90

# each scheme's steps in order: (side, h divided by, the config's sweep count)
HALF_STEPS = {
    "p-implicit": [("p", 1, "M")],
    "q-implicit": [("q", 1, "M")],
    "linear-implicit-em": [("em", 1, None)],
    "sv-pq": [("p", 2, "M1"), ("q", 2, "M2")],
    "sv-qp": [("q", 2, "M1"), ("p", 2, "M2")],
}


class TokamakReference:
    """The truncated maps of one `TokamakModel`'s field, at `DIGITS` digits."""

    def __init__(self, model):
        par, s = model.params, model.scales
        with mpmath.workdps(DIGITS):
            self.b0, self.big_r, self.a = mpmath.mpf(par.B0), mpmath.mpf(par.R), mpmath.mpf(par.a)
            self.length, self.a0 = mpmath.mpf(s.L0), mpmath.mpf(s.A0)
            self.field_step, self.flow_step = mpmath.mpf("1e-35"), mpmath.mpf("1e-25")
        self._potentials = {}  # position -> A, shared by every map of one instance

    def flux(self, r):
        """F(r), the integral of r (1 + r^2) / (R (1 + a r)) from 0 to r, in closed form."""
        x = self.a * r
        total = (1 + self.a**2) * (x - mpmath.log1p(x)) + x * x * (x / 3 - mpmath.mpf(1) / 2)
        return total / (self.a**4 * self.big_r)

    def potential(self, q):
        """The dimensionless A(q) as a 3-tuple."""
        key = tuple(q)
        if key not in self._potentials:
            x, y, z = (v * self.length for v in q)
            u = x * x + y * y
            rho = mpmath.sqrt(u)
            w = self.flux(mpmath.sqrt((rho - self.big_r) ** 2 + z * z)) / u
            scale = self.b0 / self.a0
            self._potentials[key] = (-scale * y * w, scale * x * w,
                                     -scale * self.big_r * mpmath.log(rho / self.big_r))
        return self._potentials[key]

    def jacobian(self, q):
        """J = dA/dq as rows J[i][j] = dA_i/dq_j."""
        return central_difference(self.potential, q, self.field_step)

    def gradient(self, q, p):
        """(dH/dq, dH/dp) of H = |p - A(q)|^2 / 2 as six values: (-J^T d, d), d = p - A(q)."""
        d = [pi - ai for pi, ai in zip(p, self.potential(q))]
        jac = self.jacobian(q)
        return [-sum(jac[i][k] * d[i] for i in range(3)) for k in range(3)] + d

    def hessian_blocks(self, q, p):
        """(H_qq, H_pp, H_pq) at a real (q, p), H_pq[r, s] = d^2 H / dp_s dq_r, as float
        arrays: central differences of `gradient` with step 1e-25."""
        with mpmath.workdps(DIGITS):
            z = [mpmath.mpf(v) for v in list(q) + list(p)]
            hessian = np.array(central_difference(lambda w: self.gradient(w[:3], w[3:]), z,
                                                  self.flow_step), dtype=float)
        return hessian[:3, :3], hessian[3:, 3:], hessian[:3, 3:]

    def half_step(self, side, q, p, h, m):
        """One step of the truncated map: side "p" or "q" is p- or q-implicit Euler with m
        sweeps, "em" linear-implicit-em."""
        if side == "q":
            qn = q
            for _ in range(m):
                qn = [qi + h * (pi - ai) for qi, pi, ai in zip(q, p, self.potential(qn))]
            d = [pi - ai for pi, ai in zip(p, self.potential(qn))]
            jac = self.jacobian(qn)
            return qn, [p[k] + h * sum(jac[i][k] * d[i] for i in range(3)) for k in range(3)]
        pot, jac = self.potential(q), self.jacobian(q)
        if side == "p":
            pn = p
            for _ in range(m):
                d = [pi - ai for pi, ai in zip(pn, pot)]
                pn = [p[k] + h * sum(jac[i][k] * d[i] for i in range(3)) for k in range(3)]
        else:
            lhs = mpmath.matrix([[(1 if i == k else 0) - h * jac[i][k] for i in range(3)]
                                 for k in range(3)])
            rhs = mpmath.matrix([p[k] - h * sum(jac[i][k] * pot[i] for i in range(3))
                                 for k in range(3)])
            pn = list(mpmath.lu_solve(lhs, rhs))
        return [qi + h * (pi - ai) for qi, pi, ai in zip(q, pn, pot)], pn

    def step(self, config, z):
        """The configured map at z = (q, p), six mpf values, as six mpf values."""
        q, p = z[:3], z[3:]
        for side, parts, count in HALF_STEPS[config.scheme.value]:
            q, p = self.half_step(side, q, p, mpmath.mpf(config.h) / parts, count and getattr(config, count))
        return list(q) + list(p)

    def flow_jacobian(self, config, state):
        """D of the configured map at a real state, as a float (6, 6) array."""
        with mpmath.workdps(DIGITS):
            z = [mpmath.mpf(v) for v in state.to_vector().tolist()]
            return np.array(central_difference(lambda w: self.step(config, w), z, self.flow_step),
                            dtype=float)


def central_difference(fn, x, step):
    """The Jacobian of fn at x (lists of mpf) as rows, by central differences with `step`."""
    columns = []
    for j in range(len(x)):
        up, down = list(x), list(x)
        up[j] += step
        down[j] -= step
        columns.append([(a - b) / (2 * step) for a, b in zip(fn(up), fn(down))])
    return [list(row) for row in zip(*columns)]
