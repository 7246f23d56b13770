"""Shared fixtures: populations are expensive enough to build once."""

import numpy as np
import pytest
from hypothesis import settings

from populations import (
    DEFAULT_SEED,
    random_hyperbolic_ovals,
    random_perturbed_sphere_circles,
    random_support_ovals,
    random_trig_polys,
    torsion_test_curves,
)

# the same examples on every run, whatever a local example database holds;
# each test keeps its own max_examples.  `ci` is the default, so Tier-1 is
# deterministic; `pytest --hypothesis-profile=explore` draws random examples
# and replays the local database instead.
settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("explore")
if settings.get_current_profile_name() == "default":
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def oval_population():
    return random_support_ovals(count=200, seed=DEFAULT_SEED, n_samples=1024)


@pytest.fixture(scope="session")
def trig_poly_population():
    return random_trig_polys(count=1000, seed=DEFAULT_SEED)


@pytest.fixture(scope="session")
def sphere_population():
    return random_perturbed_sphere_circles(count=50, seed=DEFAULT_SEED, n_samples=1024)


@pytest.fixture(scope="session")
def hyperbolic_population():
    return random_hyperbolic_ovals(count=50, seed=DEFAULT_SEED, n_samples=1024)


@pytest.fixture(scope="session")
def torsion_population():
    return torsion_test_curves(count=20, seed=DEFAULT_SEED)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
