import numpy as np
import pytest

from smoothflow.harness import ExperimentConfig, generate_problem
from smoothflow.problem import CompositePoint

# Benchmark shapes used throughout: n_A >= n_x gives a strongly convex
# quadratic part, n_A < n_x a rank-deficient (sigma = 0) one.
SEED = 20260808


@pytest.fixture(scope="session")
def strongly_convex_problem():
    return generate_problem(ExperimentConfig(n_x=10, n_a=20, n_c=50, rng_seed=SEED))


@pytest.fixture(scope="session")
def nonstrongly_convex_problem():
    return generate_problem(ExperimentConfig(n_x=10, n_a=2, n_c=5, rng_seed=SEED))


@pytest.fixture(scope="session")
def zero_x0():
    return np.zeros(10)


@pytest.fixture
def residual_formations(monkeypatch):
    """A list that grows by one each time a point forms the stacked residual."""
    formed = []
    original = CompositePoint.move

    def counting_move(self, x):
        formed.append(1)
        return original(self, x)

    monkeypatch.setattr(CompositePoint, "move", counting_move)
    return formed
