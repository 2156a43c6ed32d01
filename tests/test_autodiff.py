import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympdefect.autodiff import (
    STEP,
    CustomPrimitive,
    NonFiniteError,
    finite_difference_jacobian,
    jacobian,
)


def test_step_is_a_power_of_two_whose_square_underflows():
    mantissa, _ = math.frexp(STEP)
    assert mantissa == 0.5
    assert STEP * STEP == 0.0
    # scaling a tangent by STEP and back is exact
    assert (0.1 * STEP) / STEP == 0.1


def test_arithmetic_matches_product_and_quotient_rules():
    got = jacobian(lambda z: [z[0] * z[1], z[0] / z[1], 2.0 * z[0] - z[1] / 2.0 + 1.0],
                   np.array([3.0, 0.5]))
    assert np.array_equal(got[0], [0.5, 3.0])
    np.testing.assert_allclose(got[1], [2.0, -12.0], rtol=1e-15)
    np.testing.assert_allclose(got[2], [2.0, -0.5], rtol=1e-15)


def test_power_rule():
    assert np.array_equal(jacobian(lambda z: [z[0] ** 3], np.array([2.0])), [[12.0]])


def test_elementary_functions_on_complex_steps():
    # cmath takes one number, so the map runs it on each seed column
    got = jacobian(lambda z: [[f(v) for v in z[0]] for f in (cmath.sqrt, cmath.log, cmath.exp)],
                   np.array([4.0]))
    assert got[0, 0] == 0.25
    np.testing.assert_allclose(got[1:, 0], [0.25, math.exp(4.0)], rtol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 10.0))
def test_chain_rule_against_closed_form(x):
    # f(x) = sqrt(x) log(x) has derivative (log(x) + 2) / (2 sqrt(x))
    got = jacobian(lambda z: [[cmath.sqrt(v) * cmath.log(v) for v in z[0]]], np.array([x]))
    expected = (math.log(x) + 2.0) / (2.0 * math.sqrt(x))
    np.testing.assert_allclose(got[0, 0], expected, rtol=1e-12)


def test_seeded_vector_validation():
    # jacobian checks the point it seeds its complex steps at
    with pytest.raises(ValueError):
        jacobian(lambda z: z, np.eye(2))
    with pytest.raises(NonFiniteError):
        jacobian(lambda z: z, np.array([1.0, math.inf]))
    # one call, on the batch whose column j seeds input j
    seen = []
    jacobian(lambda z: seen.append(z.copy()) or z, np.array([1.0, 2.0]))
    assert len(seen) == 1
    assert np.array_equal(seen[0][:, 1], [1.0, 2.0 + STEP * 1j])


def test_jacobian_calls_the_map_once():
    calls = []

    def fn(z):
        calls.append(z.shape)
        return [z[0] * z[1] * z[2], z[2] - z[0]]

    got = jacobian(fn, np.array([1.0, 2.0, 3.0]))
    assert calls == [(3, 3)]
    assert np.array_equal(got, [[6.0, 3.0, 2.0], [-1.0, 0.0, 1.0]])


def test_jacobian_rejects_output_without_one_column_per_input():
    with pytest.raises(ValueError, match="one column per input"):
        jacobian(lambda z: z[0].sum(), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="one column per input"):
        jacobian(lambda z: z[:, :1], np.array([1.0, 2.0]))


def test_jacobian_of_linear_map_is_exact():
    a = np.array([[2.0, -1.0], [0.5, 3.0]])

    def fn(z):
        return [a[0, 0] * z[0] + a[0, 1] * z[1], a[1, 0] * z[0] + a[1, 1] * z[1]]

    assert np.array_equal(jacobian(fn, np.array([0.3, -0.7])), a)


def test_jacobian_of_truncated_euler_step():
    # one p-implicit Euler step for H = (q^2 + p^2)/2 at h = 0.1; the sweep
    # is independent of p, so the exact Jacobian is [[1-h^2, h], [-h, 1]]
    h = 0.1

    def step(z):
        q, p = z[0], z[1]
        pt = p - h * q
        qt = q + h * pt
        return [qt, pt]

    got = jacobian(step, np.array([0.7, -0.3]))
    assert np.array_equal(got, [[1.0 - h * h, h], [-h, 1.0]])


def test_jacobian_constant_component_gives_zero_row():
    got = jacobian(lambda z: [z[0], np.full(z.shape[1], 5.0)], np.array([1.0, 2.0]))
    assert np.array_equal(got, [[1.0, 0.0], [0.0, 0.0]])


def test_jacobian_rejects_non_finite_output():
    with pytest.raises(NonFiniteError, match="component 0"):
        jacobian(lambda z: [z[0] * math.nan], np.array([1.0]))
    # a finite value with an infinite derivative, and one whose derivative
    # overflows only when the step is divided out
    with pytest.raises(NonFiniteError, match="component 1"):
        jacobian(lambda z: [z[0], [complex(v.real, math.inf) for v in z[0]]], np.array([1.0]))
    with pytest.raises(NonFiniteError, match="component 0"):
        jacobian(lambda z: z * 1e200 * 1e200, np.array([1e-300]))


def test_custom_primitive_supplies_registered_derivative():
    sine = CustomPrimitive(evaluate=math.sin, derivative=math.cos, name="sine")
    assert sine(0.0) == 0.0

    def fn(z):
        s = np.array([sine(v) for v in z[0]])
        return [s, s + z[1]]

    got = jacobian(fn, np.array([0.6, 1.0]))
    np.testing.assert_allclose(
        got, [[math.cos(0.6), 0.0], [math.cos(0.6), 1.0]], rtol=1e-15
    )


def test_finite_difference_identity():
    got = finite_difference_jacobian(lambda z: z, np.array([0.2, -1.4, 3.0]))
    np.testing.assert_allclose(got, np.eye(3), atol=1e-10)


def test_finite_difference_square_map():
    got = finite_difference_jacobian(lambda z: z * z, np.ones(3))
    np.testing.assert_allclose(got, 2.0 * np.eye(3), atol=1e-8)


def test_finite_difference_agrees_with_forward_mode():
    h = 0.1

    def step(z):
        q, p = z[0], z[1]
        pt = p - h * q
        qt = q + h * pt
        return [qt, pt]

    def step_float(z):
        return np.array(step(z), dtype=float)

    x = np.array([0.7, -0.3])
    np.testing.assert_allclose(
        finite_difference_jacobian(step_float, x), jacobian(step, x), atol=1e-8
    )


def test_finite_difference_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_difference_jacobian(lambda z: z, np.ones(2), step=0.0)
