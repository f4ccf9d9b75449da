import numpy as np
import pytest

from roybounds import DgpSpec, EvaluationGrid, generate_sample


def quasi_dgp_spec():
    return DgpSpec.quasi_linear(
        mu0=(0.0, 0.3), mu1=(0.2, 0.5), sigma0=0.6, sigma1=0.7,
        g0=(1.5, -0.8), g1=(0.3, 0.0))


def content_dgp_spec():
    """A quasi-linear design whose population lower bound is positive on
    about half of its identified cells (every other tested design's is 0):
    the cost 1.5 - 1.5 z falls to 0 as the sector-1 mean falls in z."""
    return DgpSpec.quasi_linear(
        mu0=(0.0, 0.0), mu1=(0.2, -0.3), sigma0=0.6, sigma1=0.6,
        g0=(1.5, -1.5), g1=(0.0, 0.0))


@pytest.fixture(scope="session")
def quasi_dgp():
    return quasi_dgp_spec()


@pytest.fixture(scope="session")
def pure_roy_dgp():
    return DgpSpec.pure_roy(mu=(0.0, 0.6), sigma=0.5)


@pytest.fixture(scope="session")
def quasi_sample(quasi_dgp):
    return generate_sample(quasi_dgp, 4000, seed=7)


@pytest.fixture(scope="session")
def small_grid(quasi_sample):
    return EvaluationGrid.from_sample(quasi_sample, n_y=40, n_z=5)


def interior_grid(dgp, n_y=60, n_z=6, seed=12345, n_pilot=40000,
                  lo=0.01, hi=0.99):
    """Population-study grid: interior Y quantiles from a pilot draw."""
    pilot = generate_sample(dgp, n_pilot, seed=seed)
    y = np.unique(np.quantile(pilot.y, np.linspace(lo, hi, n_y)))
    z = np.linspace(0.05, 0.95, n_z)
    return EvaluationGrid(y=y, z=z)
