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
    assert arith.mertens(10_000) == -23


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


@pytest.mark.parametrize("q", [5, 7, 12])
def test_gauss_sum_modulus(q):
    for chi in arith.primitive_characters(q):
        if chi.modulus != q:
            continue
        assert abs(abs(arith.gauss_sum(chi)) - math.sqrt(q)) < 1e-10


def test_gauss_sum_quadratic_exact(chi4):
    # for the odd quadratic character mod 4 the Gauss sum is exactly 2i
    assert abs(arith.gauss_sum(chi4) - 2j) < 1e-12


def test_primitive_characters_q_max():
    prims = arith.primitive_characters(12)
    assert all(c.primitive for c in prims)
    moduli = {c.modulus for c in prims}
    assert 4 in moduli and 2 not in moduli  # no primitive character mod 2


def test_moebius_sieve_rejects_bad_limit():
    with pytest.raises(DomainError):
        arith.moebius_sieve(0)
