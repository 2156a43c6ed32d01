import numpy as np
import pytest

from sympdefect.autodiff import jacobian
from sympdefect.linalg import (
    frobenius_norm,
    real_product,
    solve,
    solve3,
    symplectic_matrix,
)

def test_symplectic_matrix_smallest():
    assert np.array_equal(symplectic_matrix(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symplectic_matrix_structure(n):
    j = symplectic_matrix(n)
    assert np.linalg.det(j) == pytest.approx(1.0, abs=1e-12)
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
        # one input: t is the (1, 1) seed batch, and x its one column
        t = t[0, 0]
        return solve(A0 if e is None else A0 + t * e, B0 + t * d)[:, None]

    x0 = np.linalg.solve(A0, B0)
    expected = np.linalg.solve(A0, d - (0.0 if e is None else e @ x0))
    np.testing.assert_allclose(jacobian(fn, np.zeros(1))[:, 0], expected, rtol=1e-12)


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
    # a stack's norms are bitwise np.linalg.norm of each matrix
    stack = np.random.default_rng(13).standard_normal((4, 2, 5, 5))
    norms = frobenius_norm(stack)
    assert norms.shape == (4, 2)
    assert np.array_equal(norms, [[np.linalg.norm(a) for a in pair] for pair in stack])


@pytest.mark.parametrize("dtype", [float, complex])
def test_batched_solve_matches_each_column_bitwise(dtype):
    # the stacked LAPACK solve gives each column exactly the unbatched result
    rng = np.random.default_rng(3)
    k = 5
    a = rng.standard_normal((3, 3, k)).astype(dtype)
    x = rng.standard_normal((3, k)).astype(dtype)
    if dtype is complex:
        a += 2.0**-600 * 1j * rng.standard_normal((3, 3, k))
        x += 2.0**-600 * 1j * rng.standard_normal((3, k))
    lhs = np.eye(3) - 0.1 * a.T
    solved = solve(lhs, x)
    assert solved.shape == (3, k)
    for c in range(k):
        col_a, col_x = a[:, :, c].copy(), x[:, c].copy()
        assert np.array_equal(solved[:, c], solve(np.eye(3) - 0.1 * col_a.T, col_x))


def _product_operands(n, rng):
    """Right-hand sides for real_product: a vector, odd and even batch
    widths, a strided column slice and a transposed (Fortran-ordered) batch."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return {
        "vector": cplx(n),
        "width-1": cplx(n, 1),
        "width-3": cplx(n, 3),
        "width-2n+1": cplx(n, 2 * n + 1),
        "strided": cplx(n, 10)[:, ::3],
        "transposed": cplx(5, n).T,
    }


@pytest.mark.parametrize("n", range(2, 65))
def test_real_product_matches_the_complex_product(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    eps = np.finfo(float).eps
    for matrix in (a, a.T):
        for name, x in _product_operands(n, rng).items():
            got = real_product(matrix, x)
            want = matrix.astype(complex) @ x
            assert got.dtype == np.complex128 and got.shape == want.shape, name
            # each side is within n eps |a| |x| of the exact product, per part
            for part in (np.real, np.imag):
                bound = 2 * n * eps * (np.abs(matrix) @ np.abs(part(x)))
                assert np.all(np.abs(part(got) - part(want)) <= bound), name


def test_real_product_of_floats_is_the_plain_product():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 9))
    for x in (rng.standard_normal(9), rng.standard_normal((9, 4)), rng.standard_normal((4, 9)).T):
        for matrix in (a, a.T):
            got = real_product(matrix, x)
            assert got.dtype == np.float64
            assert np.array_equal(got, matrix @ x)


# solve3 is the same solve on Python floats for the float tokamak step.
# Bound fixed before the first run: the matrices below have condition
# numbers of a few, so elimination with pivoting lands within 1e-14 of
# LAPACK, normwise relative.
SOLVE3_RTOL = 1e-14


def test_solve3_matches_lapack_on_matrices_that_need_row_swaps():
    rng = np.random.default_rng(3)
    swaps = [[1, 0, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1], [0, 2, 1]]
    for k in range(200):
        # a diagonally dominant matrix with its rows permuted: pivoting must
        # bring the dominant entries back, in both elimination steps
        dominant = 3.0 * np.eye(3) + rng.uniform(-1.0, 1.0, (3, 3))
        a = dominant[swaps[k % len(swaps)]]
        b = rng.standard_normal(3)
        want = np.linalg.solve(a, b)
        (got,) = solve3(a.tolist(), b.tolist())
        assert np.linalg.norm(np.array(got) - want) <= SOLVE3_RTOL * np.linalg.norm(want)


def test_solve3_solves_each_right_hand_side_as_alone():
    # one elimination for several right-hand sides, each solution bitwise its own call's
    rng = np.random.default_rng(25)
    a = (3.0 * np.eye(3) + rng.uniform(-1.0, 1.0, (3, 3)))[[2, 0, 1]].tolist()
    rhs = rng.standard_normal((4, 3)).tolist()
    assert solve3(a, *rhs) == [solve3(a, b)[0] for b in rhs]
    assert solve3(a) == []


def test_solve3_is_exact_on_a_permutation():
    a = [[0.0, 2.0, 0.0], [0.0, 0.0, 4.0], [8.0, 0.0, 0.0]]
    assert solve3(a, [1.0, 2.0, 3.0]) == [(0.375, 0.5, 0.5)]


@pytest.mark.parametrize(
    "a",
    [
        [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]],
        [[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
    ],
    ids=["dependent-rows", "zero-column", "zero-last-pivot"],
)
def test_solve3_rejects_a_singular_matrix_as_lapack_does(a):
    for run in (lambda: solve(np.array(a), np.ones(3)), lambda: solve3(a, [1.0, 1.0, 1.0])):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            run()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve3_rejects_non_finite_entries_as_solve_does(bad):
    for i in range(9):
        a = np.eye(3)
        a.flat[i] = bad
        for run in (lambda: solve(a, np.ones(3)), lambda: solve3(a.tolist(), [1.0, 1.0, 1.0])):
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                run()
    # finite entries whose sum overflows are accepted
    big = [[1e308, 1e308, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert solve3(big, [1e308, 1.0, 1.0]) == [(0.0, 1.0, 1.0)]
