import functools
import math

import mpmath
import pytest
from hypothesis import settings

from mirrorspec import models
from mirrorspec.arith import characters_mod

# reproducible property tests: a fixed example sequence and no example database
settings.register_profile("mirrorspec", derandomize=True, database=None, deadline=None)
settings.load_profile("mirrorspec")


@pytest.fixture(scope="session")
def chi1():
    """The character mod 1, whose L-function is zeta."""
    return characters_mod(1)[0]


@pytest.fixture(scope="session")
def zeros10(chi1):
    return models.critical_zeros(chi1, count=10)


@pytest.fixture(scope="session")
def E1(zeros10):
    return zeros10[0]


@pytest.fixture(scope="session")
def chi4():
    return next(c for c in characters_mod(4) if not c.is_principal)


@pytest.fixture(scope="session")
def perron_residue_series():
    """Residue-series value of the half-weighted Moebius sum up to x, with
    every zeta derivative from mpmath, each computed once.

    The leading term is 1/zeta(z), or, when z sits on a critical-line zero,
    the double-pole residue of x^w / (w zeta(z + w)) at w = 0,
    log(x)/zeta'(z) - zeta''(z) / (2 zeta'(z)^2). Each listed ordinate E_m
    adds x^{rho - z} / ((rho - z) zeta'(rho)) for rho = 1/2 +- i E_m, and
    the trivial zeros -2n, n = 1..5, add x^{-2n - z} / (-(2n + z) zeta'(-2n)).
    """
    @functools.lru_cache(maxsize=None)
    def d(rho: complex, k: int) -> complex:
        return complex(mpmath.zeta(rho, derivative=k))

    def series(z: complex, x: float, zeros: list[float]) -> complex:
        z = complex(z)
        zz = complex(mpmath.zeta(z))
        if abs(zz) < 1e-6:
            d1 = d(z, 1)
            total = math.log(x) / d1 - d(z, 2) / (2 * d1 * d1)
        else:
            total = 1.0 / zz
        for E_m in zeros:
            d1 = d(0.5 + 1j * E_m, 1)  # zeta'(conj rho) = conj zeta'(rho)
            for rho, d1_rho in ((0.5 + 1j * E_m, d1), (0.5 - 1j * E_m, d1.conjugate())):
                if abs(rho - z) >= 1e-6:
                    total += x ** (rho - z) / ((rho - z) * d1_rho)
        for n in range(1, 6):
            total += x ** (-2 * n - z) / (-(2 * n + z) * d(-2 * n, 1))
        return total

    return series


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


def _mu_trial(n: int) -> int:
    if n == 1:
        return 1
    count = 0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
        else:
            p += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


@pytest.fixture(scope="session")
def mu_trial():
    """Trial-division Moebius function: the oracle for the sieve."""
    return _mu_trial
