import pytest
from hypothesis import settings

from mirrorspec import models
from mirrorspec.arith import characters_mod

# reproducible property tests: a fixed example sequence and no example database
settings.register_profile("mirrorspec", derandomize=True, database=None, deadline=None)
settings.load_profile("mirrorspec")


@pytest.fixture(scope="session")
def zeros10():
    return models.riemann_zeros(count=10)


@pytest.fixture(scope="session")
def E1(zeros10):
    return zeros10[0]


@pytest.fixture(scope="session")
def chi4():
    return next(c for c in characters_mod(4) if not c.is_principal)
