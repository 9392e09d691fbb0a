"""Arithmetic layer: Moebius sieve, characters, Gauss sums."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorspec import arith
from mirrorspec.errors import DomainError


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 31, 47, 97]


@settings(max_examples=60)
@given(st.one_of(
    st.integers(1, 3),
    st.builds(lambda p, d: p * p + d, st.sampled_from(_SMALL_PRIMES), st.integers(-1, 1)),
    st.integers(4, 3000)))
@example(2000)
def test_moebius_sieve_matches_direct(mu_trial, limit):
    # p^2 - 1, p^2 and p^2 + 1 put the top of the table on either side of
    # the last sieving prime
    mu = arith.moebius_sieve(limit)
    assert mu.dtype == np.int8 and mu.shape == (limit + 1,) and mu[0] == 0
    assert mu.tolist()[1:] == [mu_trial(n) for n in range(1, limit + 1)]
    with pytest.raises(ValueError):  # read-only: the lru_cache shares it
        mu[1] = 0


def test_mertens_value():
    # Mertens function M(10^4) = -23 from the sieved table
    assert int(arith.moebius_sieve(10_000)[1:].sum()) == -23


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
    assert sum(int(mu[d]) for d in divisors) == (1 if n == 1 else 0)


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


@settings(max_examples=40)
@given(st.integers(1, 200))
def test_conductor_is_the_least_period_over_the_units(q):
    # brute force: the least d | q with chi(m) = chi(n) for all units m = n (mod d)
    units = np.array([n for n in range(q) if math.gcd(n, q) == 1])
    divisors = [d for d in range(1, q + 1) if q % d == 0]
    for chi in arith.characters_mod(q):
        vals = chi.table[units]
        close = np.abs(vals[:, None] - vals[None, :]) < 1e-9
        period = next(d for d in divisors
                      if close[(units[:, None] - units[None, :]) % d == 0].all())
        assert chi.conductor == period, (q, chi.index)
        assert chi.primitive == (period == q)


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


def test_gauss_sum_of_the_character_mod_one_is_one(chi1):
    # n = 1..q would leave exp(2 pi i) = 1 - 2.4e-16 i in zeta's root number
    assert arith.gauss_sum(chi1) == 1


def test_gauss_sum_matches_the_one_to_q_loop():
    # for q >= 2 the n = 0 and n = q terms are both chi(0) = 0, so summing
    # n = 0..q-1 leaves every bit of the n = 1..q sum in place
    def gauss_1_to_q(chi):
        total = 0j
        for n in range(1, chi.modulus + 1):
            total += chi(n) * cmath.exp(2j * math.pi * n / chi.modulus)
        return total

    for q in range(2, 61):
        for chi in arith.characters_mod(q):
            got, want = arith.gauss_sum(chi), gauss_1_to_q(chi)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), \
                (q, chi.index)


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
