import numpy as np
import pytest

from sympdefect.state import PhaseState


def test_roundtrip_through_vector():
    st = PhaseState(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    z = st.to_vector()
    assert np.array_equal(z, [1.0, 2.0, 3.0, 4.0])
    back = PhaseState.from_vector(z)
    assert np.array_equal(back.q, st.q)
    assert np.array_equal(back.p, st.p)


def test_dim_counts_degrees_of_freedom():
    assert PhaseState(np.zeros(3), np.zeros(3)).dim == 3


def test_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        PhaseState(np.zeros(2), np.zeros(3))


def test_rejects_non_vector_components():
    with pytest.raises(ValueError):
        PhaseState(np.zeros((2, 2)), np.zeros(4))


def test_from_vector_rejects_odd_length():
    with pytest.raises(ValueError):
        PhaseState.from_vector(np.zeros(5))


def test_copy_is_independent():
    st = PhaseState(np.array([1.0]), np.array([2.0]))
    dup = st.copy()
    dup.q[0] = 99.0
    assert st.q[0] == 1.0


def test_batch_round_trips_through_vector():
    q = np.arange(6.0).reshape(3, 2)
    st = PhaseState(q, -q)
    assert st.dim == 3
    z = st.to_vector()
    assert z.shape == (6, 2)
    back = PhaseState.from_vector(z)
    assert np.array_equal(back.q, q) and np.array_equal(back.p, -q)
    # column k is the k-th state
    assert np.array_equal(z[:, 1], PhaseState(q[:, 1], -q[:, 1]).to_vector())


def test_rejects_mismatched_batch_shapes():
    with pytest.raises(ValueError, match="equal shapes"):
        PhaseState(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="equal shapes"):
        PhaseState(np.zeros((3, 2)), np.zeros(3))


def test_rejects_three_dimensional_input():
    with pytest.raises(ValueError):
        PhaseState(np.zeros((3, 2, 2)), np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        PhaseState.from_vector(np.zeros((6, 2, 2)))


def test_from_vector_rejects_odd_length_batch():
    with pytest.raises(ValueError):
        PhaseState.from_vector(np.zeros((5, 2)))
