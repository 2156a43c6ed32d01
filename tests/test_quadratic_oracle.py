import numpy as np
import pytest

from sympdefect import quadratic_oracle
from sympdefect.defect import analyze
from sympdefect.hamiltonians import mixed_hessian
from sympdefect.integrators import Scheme, SchemeConfig
from sympdefect.quadratic_oracle import (
    MAX_SWEEPS,
    OracleRangeError,
    check_case,
    coupling_power,
    predicted_defect_blocks,
)
from sympdefect.state import PhaseState


@pytest.fixture
def fresh_powers():
    """Empty the power cache before and after the test, so its powers are
    computed and checked afresh and none computed under a patch leaks out."""
    coupling_power.cache_clear()
    yield
    coupling_power.cache_clear()


def band(power, offset):
    """Value on band `offset` (row minus column) of a Toeplitz matrix."""
    return power[offset, 0] if offset >= 0 else power[0, -offset]


def test_first_power_band_signs():
    c = coupling_power(4, 1)
    for offset in range(-3, 4):
        expected = 0 if offset == 0 else (-2 if offset < 0 else 1)
        assert band(c, offset) == expected
    assert c.dtype == np.int64


def test_zeroth_power_is_identity():
    c = coupling_power(5, 0)
    assert c.dtype == np.int64
    assert np.array_equal(c, np.eye(5, dtype=np.int64))
    assert np.array_equal(c, c.T)


def test_two_dimensional_even_powers_collapse_to_scaled_identity():
    sq = coupling_power(2, 2)
    assert np.array_equal(sq, [[-2, 0], [0, -2]])
    assert np.array_equal(sq, sq.T)
    for k in (1, 2, 3):
        c = coupling_power(2, 2 * k)
        assert c.dtype == np.int64
        assert np.array_equal(c, (-2) ** k * np.eye(2, dtype=np.int64))


def test_symmetry_only_in_the_degenerate_cases():
    for n in range(2, 9):
        for m in range(0, 7):
            c = coupling_power(n, m)
            assert np.array_equal(c, c.T) == (m == 0 or (n == 2 and m % 2 == 0))


def test_power_matches_repeated_multiplication():
    base = coupling_power(5, 1)
    acc = np.eye(5, dtype=np.int64)
    for m in range(0, 5):
        assert np.array_equal(coupling_power(5, m), acc)
        acc = acc @ base


@pytest.mark.parametrize("n", [2, 3, 8, 33, 64])
def test_power_equals_exact_integer_power(n):
    # Python ints never overflow, so this checks every admitted power exactly
    base = mixed_hessian(n, dtype=np.int64).astype(object)
    exact = np.eye(n, dtype=np.int64).astype(object)
    admitted = 0
    for m in range(MAX_SWEEPS + 1):
        try:
            power = coupling_power(n, m)
        except ValueError as exc:
            assert "overflow" in str(exc)
            break
        assert power.dtype == np.int64
        assert power.tolist() == exact.tolist()
        exact = exact @ base
        admitted += 1
    assert admitted >= 9


def test_non_toeplitz_power_is_refused(fresh_powers, monkeypatch):
    def perturbed(n, dtype=float):
        c = mixed_hessian(n, dtype=dtype)
        c[2, 1] = 5
        return c

    monkeypatch.setattr(quadratic_oracle, "mixed_hessian", perturbed)
    with pytest.raises(ValueError, match="Toeplitz"):
        coupling_power(4, 1)


def test_wrong_wrap_ratio_is_refused(fresh_powers, monkeypatch):
    def rewrapped(n, dtype=float):
        ones = np.ones((n, n), dtype=dtype)
        return np.tril(ones, -1) - 3 * np.triu(ones, 1)

    monkeypatch.setattr(quadratic_oracle, "mixed_hessian", rewrapped)
    assert np.array_equal(coupling_power(4, 0), np.eye(4, dtype=np.int64))
    with pytest.raises(ValueError, match="wrap"):
        coupling_power(4, 1)


def test_range_validation():
    with pytest.raises(ValueError):
        coupling_power(1, 2)
    with pytest.raises(ValueError):
        coupling_power(65, 2)
    with pytest.raises(ValueError):
        coupling_power(3, -1)
    with pytest.raises(ValueError):
        coupling_power(3, 17)


def test_power_is_cached_and_read_only(fresh_powers):
    first = coupling_power(6, 3)
    assert coupling_power(6, 3) is first
    assert coupling_power(6, 4) is not first
    with pytest.raises(ValueError, match="read-only"):
        first[0, 1] = 0
    assert first[0, 1] == coupling_power(6, 3)[0, 1] != 0


def test_case_range_names_the_argument():
    check_case(2, 15)
    check_case(64, 7)
    for n, m, key in ((65, 1, "n"), (1, 1, "n"), (2, 16, "m"), (5, 0, "m"),
                      (40, 9, "m"), (64, 8, "m")):
        with pytest.raises(OracleRangeError) as info:
            check_case(n, m)
        assert info.value.key == key
    # the blocks at (40, 9) need C^10, which coupling_power refuses
    with pytest.raises(OracleRangeError, match=r"power must be in \[0, 9\] at size 40"):
        predicted_defect_blocks(40, 9, 0.1)


def test_overflow_guard():
    # (64, 8) still fits int64; (64, 16) is refused rather than wrapped
    assert coupling_power(64, 8)[0, 0] == -501221085642
    with pytest.raises(ValueError, match="overflow"):
        coupling_power(64, 16)


def test_predicted_blocks_frozen_two_dimensional_case():
    h = 0.1
    diag, antidiag = predicted_defect_blocks(2, 1, h)
    np.testing.assert_allclose(
        diag, [[0.0, 3.0 * h**2], [-3.0 * h**2, 0.0]], rtol=1e-15
    )
    np.testing.assert_allclose(antidiag, (1.0 + 2.0 * h**2) * np.eye(2), rtol=1e-15)


def test_predicted_blocks_follow_the_closed_form():
    # diag = 2 (-1)^m h^(m+1) skew(C^m), antidiag = I + (-1)^m h^(m+1) C^(m+1)
    h = 0.1
    for m in (1, 2, 3):
        sign = (-1.0) ** m
        c_m = coupling_power(3, m).astype(float)
        c_m1 = coupling_power(3, m + 1).astype(float)
        diag, antidiag = predicted_defect_blocks(3, m, h)
        np.testing.assert_allclose(
            diag, sign * h ** (m + 1) * (c_m - c_m.T), rtol=1e-15
        )
        np.testing.assert_allclose(
            antidiag, np.eye(3) + sign * h ** (m + 1) * c_m1, rtol=1e-15
        )


def test_predicted_blocks_validation():
    with pytest.raises(ValueError):
        predicted_defect_blocks(3, 2, -0.1)
    with pytest.raises(ValueError):
        predicted_defect_blocks(3, 2, np.inf)


def test_prediction_matches_measured_defect(quad3):
    state = PhaseState(np.full(3, 0.3), np.full(3, -0.2))
    pred_diag, pred_anti = predicted_defect_blocks(3, 2, 0.1)
    rep = analyze(quad3, SchemeConfig(Scheme.P_IMPLICIT, 0.1, M=2), state)
    np.testing.assert_allclose(rep.diag_q, pred_diag, rtol=1e-9, atol=1e-13)
    np.testing.assert_allclose(rep.antidiag, pred_anti, rtol=1e-9, atol=1e-13)
