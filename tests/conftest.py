import numpy as np
import pytest

from sympdefect.hamiltonians import (
    harmonic_oscillator,
    quadratic_model,
    reference_initial_state,
    tokamak_model,
)
from sympdefect.state import PhaseState


@pytest.fixture(scope="session")
def tokamak():
    return tokamak_model()


@pytest.fixture(scope="session")
def tokamak_state(tokamak):
    return reference_initial_state(tokamak)


@pytest.fixture(scope="session")
def quad3():
    return quadratic_model(3)


@pytest.fixture
def quad3_state():
    return PhaseState(np.full(3, 0.3), np.full(3, -0.2))


@pytest.fixture(scope="session")
def quad17():
    return quadratic_model(17)


@pytest.fixture
def quad17_state():
    rng = np.random.default_rng(17)
    return PhaseState(rng.standard_normal(17), rng.standard_normal(17))


@pytest.fixture(scope="session")
def oscillator():
    return harmonic_oscillator()


@pytest.fixture
def oscillator_state():
    return PhaseState(np.array([0.7]), np.array([-0.3]))
