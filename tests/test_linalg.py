import numpy as np
import pytest

from sympdefect.autodiff import jacobian
from sympdefect.linalg import (
    determinant,
    frobenius_norm,
    solve,
    symplectic_matrix,
)

def test_symplectic_matrix_smallest():
    assert np.array_equal(symplectic_matrix(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symplectic_matrix_structure(n):
    j = symplectic_matrix(n)
    assert determinant(j) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(j.T, -j)
    assert np.array_equal(j @ j, -np.eye(2 * n))


def test_symplectic_matrix_rejects_nonpositive():
    with pytest.raises(ValueError):
        symplectic_matrix(0)


# The LU tests below exercise linalg.solve, which is LAPACK's LU with
# partial pivoting, real or complex.


def test_lu_solve_identity():
    b = np.array([1.0, -2.0, 3.5])
    assert np.array_equal(solve(np.eye(3), b), b)


def test_lu_solve_diagonal():
    x = solve(2.0 * np.eye(2), np.array([4.0, 6.0]))
    assert np.array_equal(x, np.array([2.0, 3.0]))


def test_lu_solve_residual_on_random_system():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    b = rng.standard_normal(6)
    x = solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_lu_solve_matrix_right_hand_side():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    b = rng.standard_normal((4, 3))
    x = solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_lu_solve_reports_singular_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(np.linalg.LinAlgError):
        solve(a, np.array([1.0, 1.0]))


def test_lu_solve_rejects_nonfinite():
    a = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        solve(a, np.array([1.0, 1.0]))
    # complex steps are checked in both parts
    for bad in (complex(np.nan, 0.0), complex(1.0, np.inf)):
        a = np.array([[1.0, bad], [0.0, 1.0]])
        with pytest.raises(ValueError):
            solve(a, np.array([1.0, 1.0]))


A0 = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 4.0]])
B0 = np.array([1.0, -1.0, 0.5])


@pytest.mark.parametrize(
    "e, d",
    [
        (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.zeros(3)),
        (None, np.array([0.5, -1.0, 2.0])),
        (np.diag([0.0, 0.0, -2.0]), np.array([0.0, 1.0, 0.0])),
    ],
    ids=["matrix", "right-hand-side", "matrix-and-right-hand-side"],
)
def test_solve_derivative_through_jacobian(e, d):
    # d/dt of solve((A + t E) x = b + t d) at t=0 is A^-1 (d - E x0); a real
    # matrix (E = None) with a complex right-hand side is solved as is
    def fn(t):
        return solve(A0 if e is None else A0 + t[0] * e, B0 + t[0] * d)

    x0 = np.linalg.solve(A0, B0)
    expected = np.linalg.solve(A0, d - (0.0 if e is None else e @ x0))
    np.testing.assert_allclose(jacobian(fn, np.zeros(1))[:, 0], expected, rtol=1e-12)


def test_determinant_identity():
    assert determinant(np.eye(4)) == 1.0


def test_determinant_is_multiplicative():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    lhs = determinant(a @ b)
    rhs = determinant(a) * determinant(b)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_determinant_rejects_nonfinite():
    with pytest.raises(ValueError):
        determinant(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# quadratic_oracle.coupling_power takes its exact int64 powers from
# np.linalg.matrix_power; these pin the behaviour it relies on.


def test_mat_pow_zero_gives_identity():
    a = np.array([[2.0, 1.0], [0.0, 2.0]])
    assert np.array_equal(np.linalg.matrix_power(a, 0), np.eye(2))


def test_mat_pow_matches_repeated_product():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(np.linalg.matrix_power(a, 3), a @ a @ a)


def test_mat_pow_preserves_integer_dtype():
    a = np.array([[0, -2], [1, 0]], dtype=np.int64)
    out = np.linalg.matrix_power(a, 4)
    assert out.dtype == np.int64
    assert np.array_equal(out, np.array([[4, 0], [0, 4]]))


def test_frobenius_norm():
    assert frobenius_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == 5.0
