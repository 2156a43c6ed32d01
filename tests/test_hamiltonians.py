import math
import types

import numpy as np
import pytest

from sympdefect.autodiff import STEP, finite_difference_jacobian
from sympdefect.hamiltonians import (
    AxisSingularityError,
    CharacteristicScales,
    F_integral,
    PhysicalParams,
    SwappedModel,
    TokamakModel,
    field_profile,
    mixed_hessian,
    quadratic_model,
    reference_initial_state,
    reference_initial_state_si,
    safety_factor,
)
from sympdefect.state import NonFiniteIterateError, PhaseState


def test_params_reject_nonpositive_values():
    with pytest.raises(ValueError):
        PhysicalParams(B0=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(mass=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(R=math.inf)


def test_characteristic_scales_frozen_values():
    s = CharacteristicScales.from_params(PhysicalParams())
    assert s.L0 == 2.0 * math.pi * 5.0
    np.testing.assert_allclose(s.T0, 5.22159800249688e-07, rtol=1e-15)
    np.testing.assert_allclose(s.P0, 1.0065662862101696e-19, rtol=1e-15)
    np.testing.assert_allclose(s.A0, 0.6283185307179586, rtol=1e-15)
    np.testing.assert_allclose(s.H0, 6.056041174745565e-12, rtol=1e-15)
    # A0 is also the product L0 B0, which removes the charge from the field
    np.testing.assert_allclose(s.A0, s.L0 * 0.02, rtol=1e-15)


def test_nondimensionalization_roundtrip():
    s = CharacteristicScales.from_params(PhysicalParams())
    st = PhaseState(np.array([5.1, 0.0, 0.1]), np.array([1e-23, 1e-23, 1e-21]))
    back = s.dimensionalize(s.nondimensionalize(st))
    np.testing.assert_allclose(back.q, st.q, rtol=1e-15)
    np.testing.assert_allclose(back.p, st.p, rtol=1e-15)
    zero = s.nondimensionalize(PhaseState(np.zeros(3), np.zeros(3)))
    assert np.array_equal(zero.to_vector(), np.zeros(6))


def test_reference_state_frozen(tokamak):
    st = reference_initial_state(tokamak)
    np.testing.assert_allclose(
        st.q, [0.16233804195373325, 0.0, 0.003183098861837907], rtol=1e-15
    )
    np.testing.assert_allclose(
        st.p,
        [9.934765486385478e-05, 9.934765486385478e-05, 0.009934765486385477],
        rtol=1e-15,
    )
    si = reference_initial_state_si()
    assert np.array_equal(si.q, [5.1, 0.0, 0.1])


def test_profile_spot_values():
    par = PhysicalParams()
    np.testing.assert_allclose(safety_factor(0.5, par), 1.2, rtol=1e-15)
    np.testing.assert_allclose(field_profile(0.5, par), 0.5 * 1.25 / 7.5, rtol=1e-15)
    # f = r / (R q) by construction
    r = 1.7
    np.testing.assert_allclose(
        field_profile(r, par), r / (par.R * safety_factor(r, par)), rtol=1e-14
    )


def test_flux_integral_against_closed_form():
    # for a = 1 the integrand reduces to r^2 - r + 2 - 2/(1+r), so
    # F(r) = (r^3/3 - r^2/2 + 2r - 2 log(1+r)) / R
    par = PhysicalParams()

    def closed(r):
        return (r**3 / 3.0 - r**2 / 2.0 + 2.0 * r - 2.0 * math.log1p(r)) / par.R

    for r in np.linspace(0.01, 3.0, 40):
        np.testing.assert_allclose(F_integral(r, par), closed(r), rtol=1e-11)
    assert F_integral(0.0, par) == 0.0
    np.testing.assert_allclose(F_integral(1.0, par), 0.08940779444268854, rtol=1e-15)


@pytest.mark.parametrize(
    "par, bound",
    [
        (PhysicalParams(), 1e-15),
        (types.SimpleNamespace(R=5.0, a=0.25), 4e-15),
        (types.SimpleNamespace(R=5.0, a=4.0), 4e-15),
    ],
    ids=["default", "a=0.25", "a=4"],
)
def test_flux_integral_against_mpmath_oracle(par, bound):
    import mpmath

    radii = list(np.geomspace(1e-10, par.R, 200))
    # the closed form switches from the atanh expansion to the log1p form at a r = 2
    switch = 2.0 / par.a
    radii += [switch * (1.0 - 1e-12), np.nextafter(switch, 0.0), switch,
              np.nextafter(switch, np.inf), switch * (1.0 + 1e-12)]
    with mpmath.workdps(50):
        big_r, shaping = mpmath.mpf(par.R), mpmath.mpf(par.a)

        def integrand(t):
            return (t + t**3) / (big_r * (1 + shaping * t))

        worst = 0.0
        for r in radii:
            exact = mpmath.quad(integrand, [0, mpmath.mpf(float(r))])
            rel = abs((mpmath.mpf(F_integral(r, par)) - exact) / exact)
            worst = max(worst, float(rel))
    assert worst <= bound


def test_flux_integral_monotone():
    par = PhysicalParams()
    values = [F_integral(r, par) for r in np.linspace(0.0, 2.0, 21)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_flux_integral_rejects_bad_radius():
    par = PhysicalParams()
    with pytest.raises(ValueError):
        F_integral(-0.1, par)
    with pytest.raises(ValueError):
        F_integral(math.nan, par)
    # a negative shaping coefficient puts a pole of f inside [0, r]
    bad = types.SimpleNamespace(R=5.0, a=-1.0)
    with pytest.raises(ValueError, match="pole"):
        F_integral(1.5, bad)


def test_mixed_hessian_frozen_pattern():
    assert np.array_equal(
        mixed_hessian(3), [[0.0, -2.0, -2.0], [1.0, 0.0, -2.0], [1.0, 1.0, 0.0]]
    )
    assert mixed_hessian(4, dtype=np.int64).dtype == np.int64
    with pytest.raises(ValueError):
        mixed_hessian(1)


def test_quadratic_model_gradients_and_blocks():
    model = quadratic_model(2)
    q = np.array([1.0, 0.0])
    p = np.array([0.0, 1.0])
    assert np.array_equal(model.grad_q(q, p), [-1.0, 0.0])
    assert np.array_equal(model.grad_p(q, p), [0.0, -1.0])
    assert model.value(np.zeros(2), np.zeros(2)) == 0.0
    qq, pp, pq = model.hessian_blocks(q, p)
    assert np.array_equal(qq, np.eye(2))
    assert np.array_equal(pp, np.eye(2))
    assert np.array_equal(pq, mixed_hessian(2))


def test_quadratic_value_matches_gradient_structure(quad3, quad3_state):
    # H is its own quadratic form: 2H = q.grad_q + p.grad_p for this model
    q, p = quad3_state.q, quad3_state.p
    lhs = 2.0 * quad3.value(q, p)
    rhs = q @ quad3.grad_q(q, p) + p @ quad3.grad_p(q, p)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-14)


def test_harmonic_blocks(oscillator, oscillator_state):
    q, p = oscillator_state.q, oscillator_state.p
    qq, pp, pq = oscillator.hessian_blocks(q, p)
    assert np.array_equal(qq, np.eye(1))
    assert np.array_equal(pp, np.eye(1))
    assert np.array_equal(pq, np.zeros((1, 1)))
    assert oscillator.energy(oscillator_state) == 0.5 * (0.7**2 + 0.3**2)


def test_swapped_model_is_conjugated_hamiltonian(quad3, quad3_state):
    swapped = SwappedModel(quad3)
    q, p = quad3_state.q, quad3_state.p
    big_q, big_p = -p, q
    np.testing.assert_allclose(
        swapped.value(big_q, big_p), quad3.value(q, p), rtol=1e-15
    )
    np.testing.assert_allclose(
        swapped.grad_q(big_q, big_p), -quad3.grad_p(q, p), rtol=1e-15
    )
    np.testing.assert_allclose(
        swapped.grad_p(big_q, big_p), quad3.grad_q(q, p), rtol=1e-15
    )
    qq, pp, pq = swapped.hessian_blocks(big_q, big_p)
    iq, ip_, ipq = quad3.hessian_blocks(q, p)
    assert np.array_equal(qq, ip_)
    assert np.array_equal(pp, iq)
    assert np.array_equal(pq, -ipq.T)


def test_tokamak_energy_zero_on_field_aligned_momentum(tokamak, tokamak_state):
    q = tokamak_state.q
    aligned = tokamak.vector_potential(q).copy()
    assert tokamak.value(q, aligned) == 0.0
    np.testing.assert_allclose(tokamak.energy(tokamak_state), 8.563639744745259e-05, rtol=1e-13)


def test_tokamak_gradients_match_finite_differences(tokamak, tokamak_state):
    q, p = tokamak_state.q, tokamak_state.p
    fd_q = finite_difference_jacobian(lambda qv: np.array([tokamak.value(qv, p)]), q)[0]
    fd_p = finite_difference_jacobian(lambda pv: np.array([tokamak.value(q, pv)]), p)[0]
    np.testing.assert_allclose(tokamak.grad_q(q, p), fd_q, atol=1e-10)
    np.testing.assert_allclose(tokamak.grad_p(q, p), fd_p, atol=1e-12)


def test_tokamak_hessian_blocks(tokamak, tokamak_state):
    q, p = tokamak_state.q, tokamak_state.p
    qq, pp, pq = tokamak.hessian_blocks(q, p)
    assert np.array_equal(pp, np.eye(3))
    np.testing.assert_allclose(qq, qq.T, atol=1e-15)
    fd_qq = finite_difference_jacobian(lambda qv: tokamak.grad_q(qv, p), q)
    np.testing.assert_allclose(qq, fd_qq, atol=1e-9)
    # the mixed block is d(grad_q)/dp; the q-derivative of grad_p is its transpose
    fd_pq = finite_difference_jacobian(lambda pv: tokamak.grad_q(q, pv), p)
    np.testing.assert_allclose(pq, fd_pq, atol=1e-11)
    fd_qp = finite_difference_jacobian(lambda qv: tokamak.grad_p(qv, p), q)
    np.testing.assert_allclose(pq.T, fd_qp, atol=1e-10)


def test_potential_vanishes_on_magnetic_axis_circle(tokamak):
    on_circle = np.array([5.0 / tokamak.scales.L0, 0.0, 0.0])
    assert np.max(np.abs(tokamak.vector_potential(on_circle))) <= 1e-16


def test_potential_is_azimuthal_plus_vertical(tokamak):
    # the planar part is tangent to circles around the torus axis, and the
    # vertical part is negative outside the major radius
    q = np.array([0.2, 0.11, 0.01])
    pot = tokamak.vector_potential(q)
    assert abs(pot[0] * q[0] + pot[1] * q[1]) <= 1e-18
    rho_si = math.hypot(q[0], q[1]) * tokamak.scales.L0
    assert rho_si > 5.0
    assert pot[2] < 0.0


def test_potential_jacobian_is_trace_free(tokamak, tokamak_state):
    jac = tokamak.potential_and_jacobian(tokamak_state.q)[1]
    assert jac[0, 0] + jac[1, 1] + jac[2, 2] == 0.0


def test_axis_evaluation_raises(tokamak):
    axis = np.array([0.0, 0.0, 0.2])
    with pytest.raises(AxisSingularityError):
        tokamak.vector_potential(axis)


def test_float_path_memoizes_repeated_positions():
    model = TokamakModel()
    q = reference_initial_state(model).q
    pot1, jac1 = model.potential_and_jacobian(q)
    pot2, jac2 = model.potential_and_jacobian(q)
    assert pot1 is pot2 and jac1 is jac2
    pot3, _ = model.potential_and_jacobian(q + 1e-3)
    assert pot3 is not pot1


def _complex_step(q):
    return q + STEP * 1j


def test_float_path_memo_arrays_are_read_only():
    # complex steps share the memo and get read-only arrays as well
    model = TokamakModel()
    q_float = reference_initial_state(model).q
    for q in (q_float, _complex_step(q_float)):
        pot, jac = model.potential_and_jacobian(q)
        pot_before, jac_before = pot.copy(), jac.copy()
        with pytest.raises(ValueError):
            pot[0] = 1.0
        with pytest.raises(ValueError):
            jac[1, 2] = 1.0
        with pytest.raises(ValueError):
            jac.T[0] += 1.0
        pot_again, jac_again = model.potential_and_jacobian(q)
        assert pot_again is pot and jac_again is jac
        assert np.array_equal(pot_again, pot_before)
        assert np.array_equal(jac_again, jac_before)
        moved = model.vector_potential(q + 1e-3)
        with pytest.raises(ValueError):
            moved[2] = 0.0


@pytest.mark.parametrize("as_input", [np.asarray, _complex_step], ids=["float", "complex"])
def test_batch_potential_matches_each_column_bitwise(tokamak, tokamak_state, as_input):
    rng = np.random.default_rng(4)
    batch = as_input(tokamak_state.q[:, None] + 0.01 * rng.standard_normal((3, 5)))
    pot, jac = TokamakModel().potential_and_jacobian(batch)
    assert pot.shape == (3, 5) and jac.shape == (3, 3, 5)
    with pytest.raises(ValueError):
        jac[0, 0, 0] = 1.0
    for k in range(5):
        pot_k, jac_k = tokamak.potential_and_jacobian(batch[:, k].copy())
        assert np.array_equal(pot[:, k], pot_k)
        assert np.array_equal(jac[:, :, k], jac_k)


def test_memo_tells_a_float_batch_from_a_complex_vector_with_equal_bytes(tokamak_state):
    # the complex 3-vector (x + i y) and the float (3, 2) batch [x, y] are
    # the same bytes; each must get its own potential
    x = tokamak_state.q
    y = x + np.array([2e-3, -1e-3, 5e-3])
    vector = x + 1j * y
    batch = np.stack([x, y], axis=1)
    assert vector.tobytes() == batch.tobytes()
    fresh = TokamakModel()
    want_vector = fresh.potential_and_jacobian(vector)
    want_batch = TokamakModel().potential_and_jacobian(batch)
    for first, second, want in ((vector, batch, want_batch), (batch, vector, want_vector)):
        model = TokamakModel()
        model.potential_and_jacobian(first)
        pot, jac = model.potential_and_jacobian(second)
        assert pot.dtype == want[0].dtype and pot.shape == want[0].shape
        assert np.array_equal(pot, want[0]) and np.array_equal(jac, want[1])
    assert np.array_equal(want_batch[0][:, 1], fresh.vector_potential(y))


@pytest.mark.parametrize(
    "x, as_input",
    [(1e110, np.asarray), (1e200, np.asarray), (1e110, _complex_step), (1e200, _complex_step)],
    ids=["flux-overflow", "radius-overflow", "flux-overflow-complex", "radius-overflow-complex"],
)
def test_float_path_rejects_overflowing_field_radius(tokamak, x, as_input):
    # at 1e110 the radius is finite but F(r) overflows; at 1e200 r itself does;
    # float and complex positions run the same body, so both must raise
    with pytest.raises(NonFiniteIterateError, match="radius"):
        tokamak.potential_and_jacobian(as_input(np.array([x, 0.0, 0.0])))


def test_float_path_matches_generic_path(tokamak, tokamak_state):
    # the complex pass must run the float step's arithmetic exactly, for
    # every seeded direction; log(rho / R) sits near 1, where cmath.log's
    # real part and math.log differ by an ulp
    rng = np.random.default_rng(7)
    for q in tokamak_state.q + 0.01 * rng.standard_normal((300, 3)):
        pot_f, jac_f = tokamak.potential_and_jacobian(q)
        for j in range(3):
            z = q.astype(complex)
            z[j] += STEP * 1j
            pot_c, jac_c = tokamak.potential_and_jacobian(z)
            assert np.array_equal(pot_c.real, pot_f), (q, j)
            assert np.array_equal(jac_c.real, jac_f), (q, j)
