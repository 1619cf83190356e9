import pytest
from hypothesis import settings

from coarselab import space

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def f2():
    return space.FreeGroupSpace(2)


@pytest.fixture(scope="session")
def z2():
    return space.GridSpace(2)


@pytest.fixture(scope="session")
def zz():
    """Z^2 * Z, the default relatively hyperbolic testbed."""
    return space.FreeProductSpace([space.GridSpace(2), space.FreeGroupSpace(1)])


@pytest.fixture(scope="session")
def loopy():
    return space.LoopyRaySpace(30)


@pytest.fixture
def trees(monkeypatch):
    """The paths that space.path_metric reads (into a path tree on free
    groups and free products) while the test runs, in order."""
    built = []
    metric = space.path_metric
    monkeypatch.setattr(space, "path_metric",
                        lambda p: built.append(p) or metric(p))
    return built
