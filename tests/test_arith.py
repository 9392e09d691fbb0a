"""Arithmetic layer: Moebius sieve, characters, Gauss sums."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirrorspec import arith
from mirrorspec.errors import DomainError


def _mu_direct(n: int) -> int:
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


def test_moebius_sieve_matches_direct():
    table = arith.moebius_sieve(2000)
    for n in range(1, 2001):
        assert table[n] == _mu_direct(n), n


def test_mertens_value():
    # Mertens function M(10^4) = -23 from the sieved table
    assert int(arith.moebius_sieve(10_000).values[1:].sum()) == -23


_MU_LIMIT = 100_000


@given(st.integers(1, 316), st.integers(1, 316))
def test_moebius_multiplicative_on_coprime_pairs(m, n):
    mu = arith.moebius_sieve(_MU_LIMIT)
    if math.gcd(m, n) == 1:
        assert mu[m * n] == mu[m] * mu[n]
    else:
        assert mu[m * n] == 0  # a shared prime divides mn twice


@given(st.integers(1, _MU_LIMIT))
def test_moebius_divisor_sum(n):
    # sum over d | n of mu(d) is 1 at n = 1 and 0 elsewhere
    mu = arith.moebius_sieve(_MU_LIMIT)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divisors = set(small) | {n // d for d in small}
    assert sum(mu[d] for d in divisors) == (1 if n == 1 else 0)


def test_euler_phi():
    assert [arith.euler_phi(q) for q in (1, 2, 4, 5, 12)] == [1, 1, 2, 4, 4]


@given(st.integers(1, 10_000))
def test_factorize_and_euler_phi(is_prime, n):
    factors = arith.factorize(n)
    primes = [p for p, _ in factors]
    assert primes == sorted(set(primes)) and all(map(is_prime, primes))
    assert all(e >= 1 for _, e in factors)
    assert math.prod(p**e for p, e in factors) == n
    assert arith.euler_phi(n) == sum(math.gcd(k, n) == 1 for k in range(1, n + 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(DomainError):
        arith.factorize(0)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 12])
def test_characters_group_structure(q):
    chars = arith.characters_mod(q)
    phi = arith.euler_phi(q)
    assert len(chars) == phi
    assert chars[0].is_principal
    for chi in chars:
        vals = chi.values_upto(3 * q)
        # periodicity and vanishing on non-units
        for n in range(3 * q + 1):
            if math.gcd(n, q) > 1:
                assert vals[n] == 0
            else:
                assert abs(abs(vals[n]) - 1) < 1e-12
                assert abs(vals[n] - vals[n % q]) < 1e-12
        # complete multiplicativity on a sample
        for a, b in ((2, 3), (3, 5), (2, 7)):
            assert abs(chi(a * b) - chi(a) * chi(b)) < 1e-12
    # row orthogonality: sum over n of chi(n) vanishes except principal
    for chi in chars[1:]:
        assert abs(sum(chi(n) for n in range(1, q + 1))) < 1e-10


def test_character_conductor_and_primitivity():
    chars4 = arith.characters_mod(4)
    nonprincipal = [c for c in chars4 if not c.is_principal]
    assert len(nonprincipal) == 1 and nonprincipal[0].primitive
    assert nonprincipal[0].conductor == 4
    # mod 8 contains the character induced from mod 4
    chars8 = arith.characters_mod(8)
    conductors = sorted(c.conductor for c in chars8)
    assert conductors == [1, 4, 8, 8]


@given(st.integers(1, 60))
def test_character_orthogonality(q):
    # the phi(q) x q value matrix C: rows C C^H = phi I; columns over the
    # units, sum_chi chi(m) conj chi(n) = phi [m = n mod q]
    chars = arith.characters_mod(q)
    phi = arith.euler_phi(q)
    C = np.array([chi.values_upto(q)[1:] for chi in chars])
    assert np.max(np.abs(C @ C.conj().T - phi * np.eye(phi))) < 1e-9
    units = [n - 1 for n in range(1, q + 1) if math.gcd(n, q) == 1]
    cols = C[:, units]
    assert np.max(np.abs(cols.conj().T @ cols - phi * np.eye(phi))) < 1e-9


@pytest.mark.parametrize("q", [5, 7, 12])
def test_gauss_sum_modulus(q):
    for chi in arith.characters_mod(q):
        if chi.primitive:
            assert abs(abs(arith.gauss_sum(chi)) - math.sqrt(q)) < 1e-10


def test_gauss_sum_quadratic_exact(chi4):
    # for the odd quadratic character mod 4 the Gauss sum is exactly 2i
    assert abs(arith.gauss_sum(chi4) - 2j) < 1e-12


def test_primitive_characters_q_max():
    # every character mod q is induced by exactly one primitive character of
    # conductor d | q, so the primitive counts p(d) satisfy sum_{d|q} p(d) =
    # phi(q); there is none mod 2 (or any q = 2 mod 4)
    counts = {q: sum(c.primitive for c in arith.characters_mod(q)) for q in range(1, 41)}
    for q in counts:
        assert sum(counts[d] for d in counts if q % d == 0) == arith.euler_phi(q)
        if q % 4 == 2:
            assert counts[q] == 0


def test_moebius_sieve_rejects_bad_limit():
    with pytest.raises(DomainError):
        arith.moebius_sieve(0)
