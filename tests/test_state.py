import pickle

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


def _held_and_twin():
    q, p = (0.25, -1.5, 3.0e-7), (1.0e-3, 0.0, -2.5)
    return PhaseState(q, p), PhaseState(np.array(q), np.array(p))


def test_float_tuples_are_held_until_q_or_p_is_read():
    held, twin = _held_and_twin()
    assert held.floats == ((0.25, -1.5, 3.0e-7), (1.0e-3, 0.0, -2.5)) and twin.floats is None
    # dim and to_vector read the tuples and leave them held
    assert held.dim == twin.dim == 3
    z = held.to_vector()
    assert z.dtype == twin.to_vector().dtype and z.tobytes() == twin.to_vector().tobytes()
    assert held.floats is not None
    assert held.p.tobytes() == twin.p.tobytes() and held.p.dtype == np.float64
    assert held.floats is None and held.q.tobytes() == twin.q.tobytes()
    # read, it is a plain state, whose attribute reads pay for no __getattr__
    assert type(held) is type(twin) is PhaseState and isinstance(_held_and_twin()[0], PhaseState)
    # the dataclass form of repr, held or read
    assert repr(_held_and_twin()[0]) == repr(held) == repr(twin) == f"PhaseState(q={twin.q!r}, p={twin.p!r})"


def test_float_held_and_array_states_survive_pickling():
    # grid_report(jobs=) sends states to worker processes
    held, twin = _held_and_twin()
    back = pickle.loads(pickle.dumps(held))
    assert back.floats == held.floats
    assert back.to_vector().tobytes() == twin.to_vector().tobytes()
    assert back.q.tobytes() == twin.q.tobytes() and back.p.tobytes() == twin.p.tobytes()
    again = pickle.loads(pickle.dumps(twin))
    assert again.floats is None and again.to_vector().tobytes() == twin.to_vector().tobytes()
    with pytest.raises(AttributeError, match="no attribute 'x'"):
        back.x


@pytest.mark.parametrize(
    "q, p",
    [
        ((1, 2, 3), (4, 5, 6)),  # int tuples: int arrays
        ((1.0, 2, 3), (4.0, 5, 6)),  # float, then ints: float arrays
        ((1.0, 2.0), (3.0, 4.0 + 1.0j)),  # a complex tail: complex p
        (((1.0, 2.0), (3.0, 4.0)), ((5.0, 6.0), (7.0, 8.0))),  # nested: a batch
        ((), ()),
    ],
    ids=["ints", "float-then-ints", "complex-tail", "nested", "empty"],
)
def test_other_tuples_give_the_arrays_of_asarray(q, p):
    st = PhaseState(q, p)
    for got, want in ((st.q, np.asarray(q)), (st.p, np.asarray(p))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(st.to_vector(), np.concatenate([np.asarray(q), np.asarray(p)]))


@pytest.mark.parametrize(
    "q, p",
    [((1.0, 2, 3), (4.0, 5.0, 6.0)), ((1.0, 2.0), (3.0, 4.0 + 1.0j)), ((1.0, 2.0), (3.0, np.float64(4.0)))],
    ids=["int-tail", "complex-tail", "numpy-scalar-tail"],
)
def test_only_tuples_of_python_floats_are_held(q, p):
    # the float form is taken only when every entry is a Python float
    assert PhaseState(q, p).floats is None
    assert PhaseState(tuple(map(float, q)), tuple(map(float, np.real(p)))).floats is not None


@pytest.mark.parametrize(
    "q, p, message",
    [
        ((1.0, 2.0), (3.0,), "equal shapes, got \\(2,\\) and \\(1,\\)"),
        ((1.0, 2), (3, 4, 5), "equal shapes"),
        ((1.0, 2.0), ((3.0, 4.0), (5.0, 6.0)), "equal shapes, got \\(2,\\) and \\(2, 2\\)"),
        ((((1.0,),),), (((1.0,),),), "vectors \\(N,\\) or batches \\(N, K\\)"),
        ((1.0, 2.0), (), "equal shapes"),
    ],
)
def test_tuples_that_are_not_float_pairs_fail_as_arrays_do(q, p, message):
    with pytest.raises(ValueError, match=message):
        PhaseState(q, p)
