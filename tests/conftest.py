import pytest

from fbmcf.acceptance import DENSITY_LINE, ArtifactCache  # noqa: F401

# DENSITY_LINE is the flat barrier with a raised scale cap, so the truncation
# bias of the reflected kernel stays far below the density tolerances.


@pytest.fixture(scope="session")
def artifact_cache():
    """The acceptance suite's reference histories, each built once per session."""
    return ArtifactCache(seed=0)


@pytest.fixture(scope="session")
def circle_extinction_history(artifact_cache):
    """Unit circle flowed to just before extinction, finely sampled in time."""
    return artifact_cache.circle_extinction()


@pytest.fixture(scope="session")
def corner_history(artifact_cache):
    """Half circle on the flat barrier, flowed to just before extinction."""
    return artifact_cache.corner()


@pytest.fixture(scope="session")
def pop_history(artifact_cache):
    """Lasso around the unit circle barrier: one pop."""
    return artifact_cache.peanut()
