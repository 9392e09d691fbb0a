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


def _is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


@pytest.fixture(scope="session")
def is_prime():
    """Trial-division primality: the oracle for the mirror-path sieve."""
    return _is_prime_trial
