import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("exact")


@pytest.fixture(scope="session")
def a2():
    from coxkit import corpus
    return corpus.load("a2")


@pytest.fixture(scope="session")
def b2():
    from coxkit import corpus
    return corpus.load("b2")


@pytest.fixture(scope="session")
def a3():
    from coxkit import corpus
    return corpus.load("a3")


@pytest.fixture(scope="session")
def b3():
    from coxkit import corpus
    return corpus.load("b3")


@pytest.fixture(scope="session")
def dinf():
    from coxkit import corpus
    return corpus.load("dihedral_inf")


@pytest.fixture(scope="session")
def walk_systems():
    """The corpus groups and the 3,3,inf triangle group, whose cone is not
    classified: the systems the chamber-walk routes are checked over."""
    from coxkit import corpus
    from coxkit.coxgroup import build_system
    inf = float("inf")
    systems = dict(corpus.all_systems())
    systems["triangle_33inf"] = build_system([[1, 3, 3], [3, 1, inf], [3, inf, 1]])
    return systems
